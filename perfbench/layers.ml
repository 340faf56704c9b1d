(* Per-layer replays for the traced pass.  Each replay calls one layer's
   public function in a tight loop, at the operating point the workload
   just measured (queue depth, server occupancy, cluster size), inside
   spans; the cost per call is that of the fastest round.  Nothing in
   lib/ is instrumented. *)

module Rng = Statsched_prng.Rng
module Dist = Statsched_dist
module Eq = Statsched_des.Event_queue
module Engine = Statsched_des.Engine
module Q = Statsched_queueing
module Core = Statsched_core
module Cluster = Statsched_cluster
module Sim = Cluster.Simulation
module Obs = Statsched_obs
module E = Statsched_experiments

type ctx = {
  sp : Span.t;
  seed : int;
  inject : string -> int;
      (* extra busy-wait (ns) added to each replayed call of a metric —
         zero except in the attribution self-test *)
}

let rounds = 7

(* Ns per call of [f] in the fastest of [rounds] rounds of [calls] calls
   — the same fastest-repetition rule as the end-to-end figures, so the
   budget compares like with like. *)
let time_calls ctx ~layer ~name ~calls f =
  let extra = ctx.inject name in
  let per = Array.make rounds 0.0 in
  Span.with_ ctx.sp ~op:0 ~layer name (fun () ->
      for r = 0 to rounds - 1 do
        let s = Span.enter ctx.sp ~op:0 ~layer "round" in
        let t0 = Util.now_ns () in
        if extra = 0 then
          for i = 0 to calls - 1 do
            f i
          done
        else
          for i = 0 to calls - 1 do
            f i;
            Util.spin extra
          done;
        let dt = Util.now_ns () - t0 in
        Span.leave ctx.sp s;
        per.(r) <- float_of_int dt /. float_of_int calls
      done);
  Util.quantile per 0.0

let rng ctx k = Rng.substream (Rng.create ~seed:(Int64.of_int ctx.seed) ()) k

(* ---- dist ---------------------------------------------------------------- *)

let gap_ns ctx (w : Cluster.Workload.t) =
  let gaps = Cluster.Workload.gap_source w ~rng:(rng ctx 11) in
  time_calls ctx ~layer:"dist" ~name:"dist.gap_ns" ~calls:200_000 (fun _ ->
      ignore (Sys.opaque_identity (Cluster.Workload.next_gap gaps)))

let size_ns ctx (w : Cluster.Workload.t) =
  let r = rng ctx 12 in
  time_calls ctx ~layer:"dist" ~name:"dist.size_ns" ~calls:200_000 (fun _ ->
      ignore (Sys.opaque_identity (Dist.Distribution.sample w.Cluster.Workload.size r)))

(* ---- des ----------------------------------------------------------------- *)

(* One add + pop_step on a queue holding [depth] live events; each popped
   event is replaced by one due a random time ahead, so the depth stays
   put (and past 4096 the far tier stays active). *)
let queue_add_pop_ns ?(name = "des.queue_add_pop_ns") ctx ~depth =
  let depth = max 1 depth in
  let r = rng ctx 13 in
  let ahead = Array.init 4096 (fun _ -> Rng.float r *. 2.0 *. float_of_int depth) in
  let q = Eq.create () in
  for i = 0 to depth - 1 do
    ignore (Eq.add q ~time:ahead.(i land 4095) i)
  done;
  time_calls ctx ~layer:"des" ~name ~calls:200_000 (fun i ->
      if Eq.pop_step q then
        ignore (Eq.add q ~time:(Eq.last_time q +. ahead.(i land 4095)) i))

(* ---- queueing ------------------------------------------------------------ *)

(* One Ps_server arrival and one departure: a job goes to one of
   [servers] PS servers on a shared engine (chosen at random, so each
   cycle touches a different server's state, as dispatch does), then the
   engine fires its earliest departure.  The servers start with
   [occupancy] jobs each, and the engine holds one departure event per
   server — the workload's live depth. *)
let ps_cycle_ns ctx (w : Cluster.Workload.t) ~servers ~occupancy =
  let servers = max 1 servers in
  let r = rng ctx 14 in
  let sizes = Array.init 4096 (fun _ -> Dist.Distribution.sample w.Cluster.Workload.size r) in
  let target = Array.init 4096 (fun _ -> Rng.int r servers) in
  let engine = Engine.create () in
  let pool = Q.Job.pool () in
  let ps =
    Array.init servers (fun _ ->
        Q.Ps_server.create ~engine ~speed:1.0 ~on_departure:(fun j -> Q.Job.release pool j) ())
  in
  let submit s i =
    Q.Ps_server.submit ps.(s)
      (Q.Job.acquire pool ~id:i ~size:sizes.(i land 4095) ~arrival:(Engine.now engine))
  in
  Array.iteri
    (fun s _ ->
      for i = 0 to max 1 occupancy - 1 do
        submit s i
      done)
    ps;
  time_calls ctx ~layer:"queueing" ~name:"queueing.ps_cycle_ns" ~calls:100_000 (fun i ->
      submit target.(i land 4095) i;
      ignore (Engine.step engine))

(* ---- core ---------------------------------------------------------------- *)

let policies = [ "orr"; "orr-lazy"; "least-load"; "jsq-d"; "jiq" ]
let sizes_label n = if n = 15 then "n15" else "n10k"
let dispatch_metric policy n = Printf.sprintf "core.dispatch_ns.%s.%s" policy (sizes_label n)

(* One dispatch decision, plus the job-sent / departure bookkeeping the
   dynamic policies need to stay at a steady load (jobs leave in FIFO
   order after [2n] further decisions). *)
let dispatch_ns ctx ~speeds policy =
  let n = Array.length speeds in
  let r = rng ctx 15 in
  let calls = if policy = "orr" && n > 1000 then 500 else 100_000 in
  let ring = Array.make (2 * n) 0 in
  let with_ring sent departed select =
    let pos = ref 0 in
    let step () =
      let i = select () in
      sent i;
      departed ring.(!pos);
      ring.(!pos) <- i;
      pos := (!pos + 1) mod Array.length ring
    in
    for _ = 1 to Array.length ring do
      let i = select () in
      sent i;
      ring.(!pos) <- i;
      pos := (!pos + 1) mod Array.length ring
    done;
    fun _ -> step ()
  in
  let call =
    match policy with
    | "orr" ->
      let d = Core.Dispatch.round_robin (Core.Allocation.optimized ~rho:Batch.rho speeds) in
      fun _ -> ignore (Sys.opaque_identity (Core.Dispatch.select d))
    | "orr-lazy" ->
      let d =
        Core.Dispatch.round_robin_lazy (Core.Allocation.optimized ~rho:Batch.rho speeds)
      in
      fun _ -> ignore (Sys.opaque_identity (Core.Dispatch.select d))
    | "least-load" ->
      let ll = Core.Least_load.create speeds in
      with_ring (Core.Least_load.job_sent ll) (Core.Least_load.departure_recorded ll)
        (fun () -> Core.Least_load.select ~rng:r ll)
    | "jsq-d" ->
      let ll = Core.Least_load.create speeds in
      with_ring (Core.Least_load.job_sent ll) (Core.Least_load.departure_recorded ll)
        (fun () -> Core.Least_load.select_weighted ~rng:r ll ~d:2)
    | "jiq" ->
      let j = Core.Jiq.create speeds in
      with_ring (Core.Jiq.job_sent j) (Core.Jiq.departure_recorded j) (fun () ->
          Core.Jiq.select ~rng:r j)
    | p -> invalid_arg ("unknown policy " ^ p)
  in
  time_calls ctx ~layer:"core" ~name:(dispatch_metric policy n) ~calls call

let allocation_ms ctx ~speeds =
  let n = Array.length speeds in
  let calls = if n > 1000 then 5 else 5_000 in
  1e-6
  *. time_calls ctx ~layer:"core"
       ~name:("core.allocation_ms." ^ sizes_label n)
       ~calls
       (fun _ ->
         ignore (Sys.opaque_identity (Core.Allocation.optimized ~rho:Batch.rho speeds)))

(* ---- cluster ------------------------------------------------------------- *)

(* Completed jobs spread over [n] computers, as the hooks see them. *)
let completed_jobs ctx ~n =
  let r = rng ctx 16 in
  let size = Dist.Bounded_pareto.create_paper_default () in
  Array.init 4096 (fun i ->
      let sz = Dist.Distribution.sample size r in
      let j = Q.Job.create ~id:i ~size:sz ~arrival:(float_of_int i) in
      j.Q.Job.computer <- i mod n;
      j.Q.Job.start <- j.Q.Job.arrival;
      j.Q.Job.completion <- j.Q.Job.arrival +. (sz *. (1.0 +. Rng.float r));
      j)

let collector_ns ctx =
  let jobs = completed_jobs ctx ~n:15 in
  let c = Cluster.Collector.create ~warmup:0.0 () in
  time_calls ctx ~layer:"cluster" ~name:"cluster.collector_ns" ~calls:200_000 (fun i ->
      Cluster.Collector.on_departure c jobs.(i land 4095))

(* Telemetry with its default journal, sharing its histograms with the
   run's collector as the CLI wires it. *)
let telemetry_ns ctx cfg =
  let jobs = completed_jobs ctx ~n:(Array.length cfg.Sim.speeds) in
  let tel = Cluster.Telemetry.create ~journal:(Obs.Journal.create ()) cfg in
  ignore (Cluster.Telemetry.histograms tel);
  let d =
    time_calls ctx ~layer:"cluster" ~name:"cluster.telemetry_dispatch_ns" ~calls:200_000
      (fun i -> Cluster.Telemetry.on_dispatch tel jobs.(i land 4095))
  in
  let c =
    time_calls ctx ~layer:"cluster" ~name:"cluster.telemetry_completion_ns"
      ~calls:200_000 (fun i -> Cluster.Telemetry.on_completion tel jobs.(i land 4095))
  in
  (d, c)

let in_system_ns ctx kind =
  let cfg = Batch.config kind ~seed:ctx.seed in
  let d = Sim.Driver.create cfg in
  Sim.Driver.advance d ~to_:(0.2 *. Batch.op_time kind);
  let n = Array.length cfg.Sim.speeds in
  time_calls ctx ~layer:"cluster"
    ~name:("cluster.in_system_ns." ^ sizes_label n)
    ~calls:(if n > 1000 then 200 else 200_000)
    (fun _ -> ignore (Sys.opaque_identity (Sim.Driver.in_system d)))

(* ---- obs ----------------------------------------------------------------- *)

(* One journal record; dispatch, queue-depth and completion records in
   turn, as the telemetry hooks write them. *)
let journal_record_ns ctx =
  let j = Obs.Journal.create () in
  time_calls ctx ~layer:"obs" ~name:"obs.journal_record_ns" ~calls:300_000 (fun i ->
      let t = float_of_int i in
      match i mod 3 with
      | 0 -> Obs.Journal.record_dispatch j ~id:i ~computer:(i land 15) ~time:t
      | 1 -> Obs.Journal.record_queue j ~depth:3 ~computer:(i land 15) ~time:t
      | _ ->
        Obs.Journal.record_completion j ~id:i ~computer:(i land 15) ~arrival:t
          ~start:t ~completion:(t +. 2.0) ~size:1.5)

let hdr_add_ns ctx =
  let r = rng ctx 17 in
  let xs = Array.init 4096 (fun _ -> 1.0 +. (50.0 *. Rng.float r *. Rng.float r)) in
  let h = Obs.Hdr_histogram.create ~lo:1e-3 ~hi:1e5 () in
  time_calls ctx ~layer:"obs" ~name:"obs.hdr_add_ns" ~calls:300_000 (fun i ->
      Obs.Hdr_histogram.add h xs.(i land 4095))

(* Read one recorded POST /jobs request off a socket pair. *)
let http_parse_us ctx =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let raw = Service.format_request ~meth:"POST" ~path:"/jobs" ~body:"76.80000000000001" in
  let failed = ref 0 in
  let v =
    Fun.protect
      ~finally:(fun () ->
        Unix.close a;
        Unix.close b)
      (fun () ->
        time_calls ctx ~layer:"obs" ~name:"obs.http_parse_us" ~calls:20_000 (fun _ ->
            Service.write_all a raw 0;
            match Obs.Http.Testing.read_request ~read_timeout:5.0 b with
            | Ok req when req.Obs.Http.body = "76.80000000000001" -> ()
            | Ok _ | Error _ -> incr failed))
  in
  (v *. 1e-3, !failed)

(* GET /healthz over loopback against a schedsimd process, one request
   at a time. *)
let http_roundtrip_us ctx ~exe ~out_dir =
  let metrics_out = Filename.concat out_dir "roundtrip-metrics.prom" in
  let srv, _ = Service.timed_start ~exe ~metrics_out in
  let failed = ref 0 in
  let v =
    Fun.protect
      ~finally:(fun () -> ignore (Service.stop srv))
      (fun () ->
        time_calls ctx ~layer:"obs" ~name:"obs.http_roundtrip_us" ~calls:300 (fun _ ->
            match Service.request ~port:srv.Service.port ~meth:"GET" ~path:"/healthz" ~body:"" with
            | 200, _ -> ()
            | _ -> incr failed))
  in
  (v *. 1e-3, !failed)

(* ---- par / experiments --------------------------------------------------- *)

(* Replications per second through Runner at one job and at [nproc];
   the two result lists must be identical. *)
let par ctx =
  let speeds = Core.Speeds.table3 in
  let spec =
    E.Runner.make_spec ~speeds
      ~workload:(Cluster.Workload.paper_default ~rho:Batch.rho ~speeds)
      ~scheduler:(Cluster.Scheduler.static Core.Policy.orr) ()
  in
  let scale = { E.Config.horizon = 5.0e4; warmup = 1.0e4; reps = 4 } in
  let seed = Int64.of_int ctx.seed in
  let run jobs =
    Span.with_ ctx.sp ~op:0 ~layer:"par" (Printf.sprintf "Runner.replicate jobs=%d" jobs)
      (fun () ->
        let t0 = Util.now_ns () in
        let rs = E.Runner.replicate ~seed ~jobs ~scale spec in
        (rs, float_of_int scale.E.Config.reps /. Util.seconds_since t0))
  in
  let rs1, r1 = run 1 in
  let rsn, rn = run (Util.nproc ()) in
  let same = List.map Batch.digest rs1 = List.map Batch.digest rsn in
  (r1, rn, same)
