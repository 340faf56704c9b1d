(* The batch workloads: one simulation replication per op, driven
   through Simulation.Driver exactly as Simulation.run drives it
   (create, advance to the horizon, finalize). *)

module Core = Statsched_core
module Cluster = Statsched_cluster
module Sim = Cluster.Simulation
module Driver = Sim.Driver
module Telemetry = Cluster.Telemetry
module Journal = Statsched_obs.Journal
module Http = Statsched_obs.Http
module Engine = Statsched_des.Engine

type kind = Paper | Paper_observed | N10k

let rho = 0.7
let n_big = 10_000

let observed = function Paper_observed -> true | Paper | N10k -> false

(* Jobs per op, sized so one op takes 70-250 ms on a 2-core x86 host:
   short enough for dozens to hundreds of ops per run, so that the
   fastest op is a steady figure even when co-tenants slow the host down
   in bursts lasting seconds, and long enough that the journal
   serialisation does not dominate paper-observed, and that an n10k op
   averages over the cluster's own fluctuations (the fastest of 20 000-job
   chunks varied more from seed to seed than the fastest of 60 000). *)
let jobs_per_op = 60_000.0

(* Arrivals simulated, untimed, before n10k's first op.  Under
   least-load at n = 10^4 the fast servers take about ten jobs each
   before a slow one is used, so the cluster is still filling after
   3*10^5 arrivals (1 000 pending events, all on fast servers) and
   settles only near 10^6 (3 000-4 600 pending events, ~12 000 jobs in
   system).  That is seventeen ops' worth, so n10k's ops are consecutive
   chunks of one long-lived driver.  The Table 3 cluster settles within
   a few thousand arrivals, so each paper op is a whole replication
   with a 10 % warm-up. *)
let fill_jobs = function Paper | Paper_observed -> 0.0 | N10k -> 1_000_000.0

let chunked kind = fill_jobs kind > 0.0

let speeds = function
  | Paper | Paper_observed -> Core.Speeds.table3
  | N10k -> Statsched_experiments.Ext_scale.speeds_for n_big

let scheduler = function
  | Paper | Paper_observed -> Cluster.Scheduler.static Core.Policy.orr
  | N10k -> Cluster.Scheduler.jsq ~d:n_big ()

(* Virtual time that [jobs] arrivals take on this workload. *)
let time_for kind jobs =
  jobs /. Cluster.Workload.arrival_rate (Cluster.Workload.paper_default ~rho ~speeds:(speeds kind))

let op_time kind = time_for kind jobs_per_op

(* A replication op's configuration; for n10k, the long-lived driver's,
   with the fill as its warm-up and a horizon no op reaches. *)
let config kind ~seed =
  let speeds = speeds kind in
  let workload = Cluster.Workload.paper_default ~rho ~speeds in
  let horizon, warmup =
    if chunked kind then (1e12, time_for kind (fill_jobs kind))
    else (op_time kind, 0.1 *. op_time kind)
  in
  Sim.default_config ~horizon ~warmup ~seed:(Int64.of_int seed) ~speeds ~workload
    ~scheduler:(scheduler kind) ()

(* Telemetry plus a journal at their defaults, attached through the
   observer hooks as [schedsim run --metrics-out --journal] attaches
   them. *)
type observers = { telemetry : Telemetry.t; journal : Journal.t }

let observers cfg =
  let journal = Journal.create () in
  { telemetry = Telemetry.create ~journal cfg; journal }

(* The driver and its engine (for the event counters). *)
let create_driver ?obs ?on_dispatch ?on_completion ?arrivals cfg =
  let engine = ref None in
  let d =
    match obs with
    | None ->
      Driver.create ~hooks_retain_jobs:false
        ~on_engine:(fun e -> engine := Some e)
        ?on_dispatch ?on_completion ?arrivals cfg
    | Some o ->
      let tel = o.telemetry in
      Driver.create ~hooks_retain_jobs:false ?arrivals
        ~metric_histograms:(Telemetry.histograms tel)
        ~on_engine:(fun e ->
          engine := Some e;
          Telemetry.set_engine tel e)
        ?on_dispatch ?on_completion
        ~on_drop:(Telemetry.on_drop tel)
        ~on_rate_change:(fun ~time ~computer ~rate ->
          Telemetry.on_rate_change tel ~time ~computer ~rate)
        cfg
  in
  match !engine with
  | Some e -> (d, e)
  | None -> failwith "Driver.create did not pass its engine to on_engine"

(* Serialise the exposition and the journal in memory, never to disk. *)
let serialise o (r : Sim.result) =
  Telemetry.finalize o.telemetry r;
  String.length (Telemetry.metrics_exposition o.telemetry)
  + String.length (Journal.to_string o.journal)

let digest (r : Sim.result) =
  Printf.sprintf "arrivals=%d events=%d mean_rr=%016Lx" r.Sim.total_arrivals
    r.Sim.events_executed
    (Int64.bits_of_float r.Sim.metrics.Core.Metrics.mean_response_ratio)

(* A live driver's counters, comparable with a finished run's. *)
let counts_digest ~arrivals ~events ~measured =
  Printf.sprintf "arrivals=%d events=%d measured=%d" arrivals events measured

(* n10k's chunk whose end state is checked against the reference. *)
let reference_chunk = 1

type reference = {
  digest : string;  (* printed, for comparing commits *)
  expect : string;  (* what a checked op's digest must be *)
  at_chunk : int option;  (* which op is checked; None: every op *)
}

(* The one-shot reference: Simulation.run with the workload's observers.
   Every replication op must reproduce its digest bit for bit; on n10k,
   Simulation.run through the fill and [reference_chunk] chunks must
   match the long-lived driver's counters after that chunk (chunked
   advance is bit-identical to one advance). *)
let reference kind cfg =
  if chunked kind then begin
    let horizon = cfg.Sim.warmup +. (float_of_int reference_chunk *. op_time kind) in
    let r = Sim.run { cfg with Sim.horizon } in
    {
      digest = digest r;
      expect =
        counts_digest ~arrivals:r.Sim.total_arrivals ~events:r.Sim.events_executed
          ~measured:r.Sim.metrics.Core.Metrics.jobs;
      at_chunk = Some reference_chunk;
    }
  end
  else begin
    let r =
      if observed kind then begin
        let o = observers cfg in
        let tel = o.telemetry in
        let r =
          Sim.run ~hooks_retain_jobs:false
            ~metric_histograms:(Telemetry.histograms tel)
            ~on_engine:(Telemetry.set_engine tel)
            ~on_dispatch:(Telemetry.on_dispatch tel)
            ~on_completion:(Telemetry.on_completion tel) cfg
        in
        ignore (serialise o r);
        r
      end
      else Sim.run cfg
    in
    { digest = digest r; expect = digest r; at_chunk = None }
  end

type op = {
  chunk : int;  (* n10k: which chunk of the long-lived driver; else 0 *)
  run_ns : int;  (* advance + finalize (+ serialisation when observed) *)
  jobs : int;  (* completions in the timed window *)
  arrivals : int;
  measured : int;
  events : int;
  high_water : int;
  digest : string;
  conserved : bool;
  alloc_words : float;
  minor_gcs : int;
  major_gcs : int;
  hooks : int;  (* observer-hook calls, counted on the traced op only *)
  occupancy : float;  (* jobs per computer *)
}

(* Arrivals = completions + in system (+ dropped, always 0 here: no fault
   plan). *)
let conserved d = Driver.arrivals d = Driver.completions d + Driver.in_system d

(* The state a timed window starts from: counters and GC counts. *)
type mark = {
  m_arrivals : int;
  m_completions : int;
  m_measured : int;
  m_events : int;
  gc : Gc.stat;
  minor_words : float;
  t_run : int;
}

let mark d e =
  let m_arrivals = Driver.arrivals d
  and m_completions = Driver.completions d
  and m_measured = Driver.measured d
  and m_events = Engine.events_executed e in
  let gc = Gc.quick_stat () in
  let minor_words = Gc.minor_words () in
  { m_arrivals; m_completions; m_measured; m_events; gc; minor_words; t_run = Util.now_ns () }

(* The op of the window since [m]: from the finished run [r] for a
   replication, from the live driver for a chunk.  [conserved] and the
   completions are read before finalize. *)
let finish_op ?(chunk = 0) ?(hooks = 0) ~m ~conserved ~completions d e r =
  let run_ns = Util.now_ns () - m.t_run in
  let mw1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  let arrivals, measured, events, high_water, digest, occupancy =
    match r with
    | Some (r : Sim.result) ->
      ( r.Sim.total_arrivals,
        r.Sim.metrics.Core.Metrics.jobs,
        r.Sim.events_executed,
        r.Sim.heap_high_water,
        digest r,
        Array.fold_left (fun acc (c : Sim.per_computer) -> acc +. c.Sim.mean_jobs) 0.0
          r.Sim.per_computer
        /. float_of_int (Array.length r.Sim.per_computer) )
    | None ->
      let arrivals = Driver.arrivals d
      and events = Engine.events_executed e
      and measured = Driver.measured d in
      ( arrivals - m.m_arrivals,
        measured - m.m_measured,
        events - m.m_events,
        Engine.heap_high_water e,
        counts_digest ~arrivals ~events ~measured,
        float_of_int (Driver.in_system d)
        /. float_of_int (Array.length (Driver.config d).Sim.speeds) )
  in
  {
    chunk;
    run_ns;
    jobs = completions - m.m_completions;
    arrivals;
    measured;
    events;
    high_water;
    digest;
    conserved;
    alloc_words = mw1 -. m.minor_words;
    minor_gcs = gc1.Gc.minor_collections - m.gc.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - m.gc.Gc.major_collections;
    hooks;
    occupancy;
  }

(* n10k's long-lived driver, advanced untimed through the fill; each op
   advances it by one more chunk. *)
type stream = { s_driver : Driver.t; s_engine : Engine.t; mutable chunks : int }

(* The untimed fills allocate garbage for seconds; a full collection
   every [collect_every] steps keeps the heap's peak, and with it
   peak_rss_mb, from depending on where the GC's own cycles fall. *)
let collect_every = 10

let fill_steps = 50

(* [between] runs after each of the fill's [fill_steps] advances. *)
let stream ?(between = ignore) kind cfg =
  let d, e = create_driver cfg in
  let fill = time_for kind (fill_jobs kind) in
  for k = 1 to fill_steps do
    Driver.advance d ~to_:(fill *. float_of_int k /. float_of_int fill_steps);
    if k mod collect_every = 0 then Gc.full_major ();
    between ()
  done;
  { s_driver = d; s_engine = e; chunks = 0 }

(* Where the next chunk ends. *)
let next_chunk kind s =
  s.chunks <- s.chunks + 1;
  time_for kind (fill_jobs kind) +. (float_of_int s.chunks *. op_time kind)

let chunk_op kind s =
  let d = s.s_driver and e = s.s_engine in
  let to_ = next_chunk kind s in
  let m = mark d e in
  Driver.advance d ~to_;
  finish_op ~chunk:s.chunks ~m ~conserved:(conserved d) ~completions:(Driver.completions d) d e
    None

(* One untraced op: the next chunk of [stream] when given, otherwise a
   fresh replication.  [on_dispatch] lets the self-test inject work into
   the dispatch path. *)
let run_op ?on_dispatch ?stream kind cfg =
  match stream with
  | Some s -> chunk_op kind s
  | None ->
    let obs = if observed kind then Some (observers cfg) else None in
    let d, e =
      match obs with
      | None -> create_driver ?on_dispatch cfg
      | Some o ->
        create_driver ~obs:o ~on_dispatch:(Telemetry.on_dispatch o.telemetry)
          ~on_completion:(Telemetry.on_completion o.telemetry) cfg
    in
    let m = mark d e in
    Driver.advance d ~to_:cfg.Sim.horizon;
    let conserved = conserved d in
    let completions = Driver.completions d in
    let r = Driver.finalize d in
    (match obs with Some o -> ignore (serialise o r) | None -> ());
    finish_op ~m ~conserved ~completions d e (Some r)

let chunks = 16

(* The same op with a span around every library call the benchmark
   makes.  The op's window is covered in [chunks] advances (bit-identical
   to one advance), so the trace shows progress through it; observer
   hooks are timed call by call and charged to the telemetry layer. *)
let traced_op ?stream sp ~op kind cfg =
  let module S = Span in
  let advance_in_chunks d ~from ~to_ ~charge =
    for c = 1 to chunks do
      S.with_ sp ~op ~layer:"cluster" "Driver.advance" (fun () ->
          Driver.advance d ~to_:(from +. ((to_ -. from) *. float_of_int c /. float_of_int chunks));
          charge ())
    done
  in
  S.with_ sp ~op ~layer:"bench" "op" (fun () ->
      match stream with
      | Some s ->
        let d = s.s_driver and e = s.s_engine in
        let from = Driver.now d in
        let to_ = next_chunk kind s in
        let m = mark d e in
        advance_in_chunks d ~from ~to_ ~charge:ignore;
        finish_op ~chunk:s.chunks ~m ~conserved:(conserved d)
          ~completions:(Driver.completions d) d e None
      | None ->
        let obs =
          if observed kind then
            Some (S.with_ sp ~op ~layer:"cluster" "Telemetry.create" (fun () -> observers cfg))
          else None
        in
        let disp_ns = ref 0 and comp_ns = ref 0 and hooks = ref 0 in
        let on_dispatch, on_completion =
          match obs with
          | None -> (None, None)
          | Some o ->
            let tel = o.telemetry in
            ( Some
                (fun job ->
                  let t = Util.now_ns () in
                  Telemetry.on_dispatch tel job;
                  disp_ns := !disp_ns + (Util.now_ns () - t);
                  incr hooks),
              Some
                (fun job ->
                  let t = Util.now_ns () in
                  Telemetry.on_completion tel job;
                  comp_ns := !comp_ns + (Util.now_ns () - t);
                  incr hooks) )
        in
        let d, e =
          S.with_ sp ~op ~layer:"cluster" "Driver.create" (fun () ->
              create_driver ?obs ?on_dispatch ?on_completion cfg)
        in
        let m = mark d e in
        advance_in_chunks d ~from:0.0 ~to_:cfg.Sim.horizon ~charge:(fun () ->
            S.charge sp ~layer:"cluster.telemetry" (!disp_ns + !comp_ns);
            disp_ns := 0;
            comp_ns := 0);
        let conserved = conserved d in
        let completions = Driver.completions d in
        let r = S.with_ sp ~op ~layer:"cluster" "Driver.finalize" (fun () -> Driver.finalize d) in
        (match obs with
        | None -> ()
        | Some o ->
          S.with_ sp ~op ~layer:"cluster" "Telemetry.finalize" (fun () ->
              Telemetry.finalize o.telemetry r);
          S.with_ sp ~op ~layer:"cluster" "Telemetry.metrics_exposition" (fun () ->
              ignore (Telemetry.metrics_exposition o.telemetry));
          S.with_ sp ~op ~layer:"obs" "Journal.to_string" (fun () ->
              ignore (Journal.to_string o.journal)));
        finish_op ~hooks:!hooks ~m ~conserved ~completions d e (Some r))

let jobs_per_s op = float_of_int op.jobs /. (float_of_int op.run_ns *. 1e-9)
let ns_per_job op = float_of_int op.run_ns /. float_of_int op.jobs

(* Ops until [budget_s] has passed (at least [min_ops]), with a full
   major collection between replication ops so each starts from the
   same heap.  Between chunks of n10k's long-lived driver a collection
   takes about half as long as a chunk (0.12 s over a live heap of
   ~100 MB, the two drivers' servers), so one runs every
   [collect_every] chunks, as in the fills. *)
let run_ops ?(min_ops = 3) ~budget_s kind f =
  let t0 = Util.now_ns () in
  let rec loop acc n =
    if n >= min_ops && Util.seconds_since t0 >= budget_s then List.rev acc
    else begin
      if (not (chunked kind)) || n mod collect_every = 0 then Gc.full_major ();
      let o = f n in
      loop (o :: acc) (n + 1)
    end
  in
  loop [] 0

(* Set-up samples for [perfbench setup]: Driver.create (plus its
   observers on the observed workload), each from a collected heap like
   every op, until [budget_s] has passed or there are [max_samples]. *)
let setup_samples kind cfg ~budget_s ~max_samples =
  let s = Util.Sample.create () in
  let t0 = Util.now_ns () in
  while Util.Sample.length s < max_samples && Util.seconds_since t0 < budget_s do
    Gc.full_major ();
    let t = Util.now_ns () in
    let obs = if observed kind then Some (observers cfg) else None in
    let d = create_driver ?obs cfg in
    Util.Sample.add s (float_of_int (Util.now_ns () - t) *. 1e-9);
    ignore (Sys.opaque_identity d)
  done;
  s

(* Arrivals and completions from a POST /drain answer. *)
let drain_counts body =
  try
    Scanf.sscanf body
      "{\"drained\":true,\"sim_time\":%f,\"arrivals\":%d,\"completions\":%d,"
      (fun _ a c -> Some (a, c))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* In-process job submissions, in rounds, so they can be spread over a
   run; GC counts cover the submissions only.  [call i] makes submission
   [i] and says whether it was accepted. *)
type submitter = {
  call : int -> bool;
  calls : int;
  first : int;  (* submissions made before timing started *)
  mutable next : int;
  mutable rejected : int;
  mutable alloc_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let make_submitter ?(first = 0) call ~calls =
  { call; calls; first; next = first; rejected = 0; alloc_words = 0.0; minor_gcs = 0; major_gcs = 0 }

(* The workload's own job stream from the seed: each call gives the
   next gap (scaled by [gap_scale]) and size.  Gaps and sizes come from
   separate substreams. *)
let job_source ?(gap_scale = 1.0) (cfg : Sim.config) ~seed =
  let rng = Statsched_prng.Rng.create ~seed:(Int64.of_int seed) () in
  let gaps =
    Cluster.Workload.gap_source cfg.Sim.workload
      ~rng:(Statsched_prng.Rng.substream rng 1)
  in
  let size_rng = Statsched_prng.Rng.substream rng 2 in
  let size = cfg.Sim.workload.Cluster.Workload.size in
  fun () ->
    let g = gap_scale *. Cluster.Workload.next_gap gaps in
    (g, Statsched_dist.Distribution.sample size size_rng)

(* The next [calls] jobs of [next] as arrays of gaps and sizes. *)
let job_arrays next ~calls =
  let gaps = Array.make calls 0.0 and sizes = Array.make calls 0.0 in
  for i = 0 to calls - 1 do
    let g, s = next () in
    gaps.(i) <- g;
    sizes.(i) <- s
  done;
  (gaps, sizes)


let external_config kind ~seed = { (config kind ~seed) with Sim.horizon = 1e12; warmup = 0.0 }

(* One job submitted to an external-arrivals driver with this workload's
   cluster, policy and observers: advance the clock to the job's arrival,
   then Driver.submit — the daemon's path without HTTP or the handler.
   The warm-up submissions are made here, untimed, so that the timed
   ones find the cluster in its steady state: the fill on n10k, 40 000
   on the Table 3 cluster. *)
let driver_submitter kind ~seed ~calls =
  let warm = max 40_000 (int_of_float (fill_jobs kind)) in
  let cfg = external_config kind ~seed in
  let next = job_source cfg ~seed in
  let d, _ =
    if observed kind then begin
      let o = observers cfg in
      create_driver ~obs:o ~on_dispatch:(Telemetry.on_dispatch o.telemetry)
        ~on_completion:(Telemetry.on_completion o.telemetry) ~arrivals:`External cfg
    end
    else create_driver ~arrivals:`External cfg
  in
  let now = ref 0.0 in
  let submit gap size =
    now := !now +. gap;
    Driver.advance d ~to_:!now;
    ignore (Driver.submit d ~size)
  in
  for i = 1 to warm do
    let gap, size = next () in
    submit gap size;
    if i mod (warm / collect_every) = 0 then Gc.full_major ()
  done;
  let gap, sizes = job_arrays next ~calls in
  let call i =
    submit gap.(i - warm) sizes.(i - warm);
    true
  in
  (make_submitter ~first:warm call ~calls:(warm + calls), d)

(* POST /jobs through Daemon.handle_request on the Table 3 cluster under
   ORR, socket-free, with an injected clock advancing one gap per call. *)
let daemon_submitter ?gap_scale ~seed ~calls () =
  let cfg = external_config Paper ~seed in
  let gap, sizes = job_arrays (job_source ?gap_scale cfg ~seed) ~calls in
  let vt = ref 0.0 in
  let dm = Cluster.Daemon.create ~backlog_limit:max_int ~clock:(fun () -> !vt) cfg in
  let reqs =
    Array.map
      (fun s -> { Http.meth = "POST"; path = "/jobs"; body = Printf.sprintf "%.17g" s })
      sizes
  in
  let call i =
    vt := !vt +. gap.(i);
    (Cluster.Daemon.handle_request dm reqs.(i)).Http.status = 202
  in
  (make_submitter call ~calls, dm)

(* The next [n] submissions; per-call latencies in ns. *)
let submit_round s n =
  let n = min n (s.calls - s.next) in
  let lat = Array.make n 0.0 in
  let gc0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  for k = 0 to n - 1 do
    let t = Util.now_ns () in
    let ok = s.call (s.next + k) in
    lat.(k) <- float_of_int (Util.now_ns () - t);
    if not ok then s.rejected <- s.rejected + 1
  done;
  let mw1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  s.next <- s.next + n;
  s.alloc_words <- s.alloc_words +. (mw1 -. mw0);
  s.minor_gcs <- s.minor_gcs + gc1.Gc.minor_collections - gc0.Gc.minor_collections;
  s.major_gcs <- s.major_gcs + gc1.Gc.major_collections - gc0.Gc.major_collections;
  lat

let submitted s = s.next
let timed s = s.next - s.first
let remaining s = s.calls - s.next

(* Drain the daemon; true when it completed exactly the accepted jobs.
   Returns the finalized run too (None if nothing was measured). *)
let daemon_drain s dm =
  let drained =
    Cluster.Daemon.handle_request dm { Http.meth = "POST"; path = "/drain"; body = "" }
  in
  let accepted = s.next - s.rejected in
  let ok =
    match drain_counts drained.Http.body with
    | Some (arrivals, completions) -> arrivals = accepted && completions = accepted
    | None -> false
  in
  (ok, Cluster.Daemon.result dm)
