(* perfbench — the repository benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1
               [--schedsimd PATH] [--out DIR]
     perfbench selftest --seed N
     perfbench setup --workload W --seed N --seconds S

   Workloads: paper, paper-observed, n10k (batch simulation) and service
   (schedsimd over loopback).  --trace 0 is the untraced pass and prints
   the end-to-end metrics; --trace 1 is the traced pass and prints the
   per-layer metrics, the per-layer cost budget that reconciles them
   with ns/job, and writes its spans as Chrome trace-event JSON.  The
   last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  run.py builds this
   program and schedsimd from source and calls it. *)

module Core = Statsched_core
module Cluster = Statsched_cluster
module Sim = Cluster.Simulation

type workload = Batch of Batch.kind | Service

let workloads =
  [
    ("paper", Batch Batch.Paper);
    ("paper-observed", Batch Batch.Paper_observed);
    ("n10k", Batch Batch.N10k);
    ("service", Service);
  ]

(* Unit of a timing metric from its name: "core.dispatch_ns.orr.n15" is
   in ns, "obs.http_parse_us" in us. *)
let unit_of name =
  let has sub =
    let n = String.length name and k = String.length sub in
    let rec at i = i + k <= n && (String.sub name i k = sub || at (i + 1)) in
    at 0
  in
  if has "_ns" || has ".ns_" then "ns"
  else if has "_us" then "us"
  else if has "_ms" then "ms"
  else invalid_arg ("no unit for " ^ name)

(* ---- checks --------------------------------------------------------------- *)

type checks = { mutable failed : int }

let new_checks () = { failed = 0 }

let check c what ok =
  if not ok then begin
    c.failed <- c.failed + 1;
    Printf.printf "CHECK FAILED: %s\n%!" what
  end

(* ---- the per-layer cost budget ------------------------------------------ *)

let budget_layers = [ "dist"; "des"; "queueing"; "core"; "cluster"; "obs" ]

type budget = {
  e2e_ns : float;  (* end-to-end ns per job, untraced *)
  parts : (string * float) list;  (* layer -> ns per job *)
}

let explained b = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 b.parts
let unexplained_frac b = (b.e2e_ns -. explained b) /. b.e2e_ns
let part b layer = Option.value (List.assoc_opt layer b.parts) ~default:0.0

let budget e2e_ns contributions =
  {
    e2e_ns;
    parts =
      List.map
        (fun l ->
          ( l,
            List.fold_left
              (fun acc (l', v) -> if l' = l then acc +. v else acc)
              0.0 contributions ))
        budget_layers;
  }

let print_budget b ~flag_hint =
  Printf.printf "per-layer cost budget (ns per job; end-to-end %.1f):\n" b.e2e_ns;
  List.iter
    (fun (l, v) -> Printf.printf "  %-10s %10.1f  %5.1f%%\n" l v (100.0 *. v /. b.e2e_ns))
    b.parts;
  let u = unexplained_frac b in
  Printf.printf "  %-10s %10.1f  %5.1f%%\n" "unexplained" (b.e2e_ns -. explained b)
    (100.0 *. u);
  if u > 0.20 then
    Printf.printf
      "FLAG: reconcile.unexplained_frac %.3f > 0.20; most likely missing: %s\n" u
      flag_hint
  else if u < -0.20 then
    Printf.printf
      "FLAG: reconcile.unexplained_frac %.3f < -0.20; replays over-count, largest \
       part: %s\n"
      u
      (fst
         (List.fold_left
            (fun (bl, bv) (l, v) -> if v > bv then (l, v) else (bl, bv))
            ("", neg_infinity) b.parts))

let print_self_time sp ~ops ~jobs =
  let per_job ns = float_of_int ns /. float_of_int (max 1 (ops * jobs)) in
  Printf.printf "self time per layer inside the traced ops (ns per job):\n";
  List.iter
    (fun (l, ns) -> Printf.printf "  %-18s %10.1f\n" l (per_job ns))
    (Span.self_by_layer sp)

(* Mean duration (ns) of the op spans called [name]. *)
let mean_span sp name =
  let ds =
    List.filter_map
      (fun (s : Span.span) ->
        if s.Span.op > 0 && s.Span.name = name then Some (float_of_int (Span.duration_ns s))
        else None)
      (Span.spans sp)
  in
  match ds with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)

(* ---- replays shared by every traced pass -------------------------------- *)

type replays = {
  values : (string * float) list;  (* per-layer metric -> value *)
  replay_failures : int;
}

let replay_all (ctx : Layers.ctx) ~exe ~out_dir ~(w : Cluster.Workload.t) ~depth ~servers
    ~occupancy ~daemon_submit_us =
  let v = ref [] in
  let put name x = v := (name, x) :: !v in
  put "dist.gap_ns" (Layers.gap_ns ctx w);
  put "dist.size_ns" (Layers.size_ns ctx w);
  put "des.queue_add_pop_ns" (Layers.queue_add_pop_ns ctx ~depth);
  put "des.queue_add_pop_ns.depth10k"
    (Layers.queue_add_pop_ns ~name:"des.queue_add_pop_ns.depth10k" ctx ~depth:Batch.n_big);
  put "queueing.ps_cycle_ns" (Layers.ps_cycle_ns ctx w ~servers ~occupancy);
  let small = Core.Speeds.table3
  and big = Statsched_experiments.Ext_scale.speeds_for Batch.n_big in
  List.iter
    (fun speeds ->
      List.iter
        (fun p -> put (Layers.dispatch_metric p (Array.length speeds)) (Layers.dispatch_ns ctx ~speeds p))
        Layers.policies)
    [ small; big ];
  put "core.allocation_ms.n15" (Layers.allocation_ms ctx ~speeds:small);
  put "core.allocation_ms.n10k" (Layers.allocation_ms ctx ~speeds:big);
  put "cluster.collector_ns" (Layers.collector_ns ctx);
  let td, tc = Layers.telemetry_ns ctx (Batch.config Batch.Paper ~seed:ctx.Layers.seed) in
  put "cluster.telemetry_dispatch_ns" td;
  put "cluster.telemetry_completion_ns" tc;
  put "cluster.in_system_ns.n15" (Layers.in_system_ns ctx Batch.Paper);
  put "cluster.in_system_ns.n10k" (Layers.in_system_ns ctx Batch.N10k);
  put "cluster.daemon_submit_us" daemon_submit_us;
  put "obs.journal_record_ns" (Layers.journal_record_ns ctx);
  put "obs.hdr_add_ns" (Layers.hdr_add_ns ctx);
  let parse, parse_failed = Layers.http_parse_us ctx in
  put "obs.http_parse_us" parse;
  let rt, rt_failed = Layers.http_roundtrip_us ctx ~exe ~out_dir in
  put "obs.http_roundtrip_us" rt;
  let r1, rn, same = Layers.par ctx in
  put "par.reps_per_s.jobs1" r1;
  put "par.reps_per_s.nproc" rn;
  put "par.speedup" (rn /. r1);
  {
    values = List.rev !v;
    replay_failures = parse_failed + rt_failed + if same then 0 else 1;
  }

let get r name =
  match List.assoc_opt name r.values with
  | Some x -> x
  | None -> invalid_arg ("no replay value " ^ name)

(* Contributions (layer, ns per job) of a batch op, from the layer costs
   and the counts the op itself reported. *)
let batch_contributions kind r ~(op : Batch.op) ~sp =
  let j = float_of_int op.Batch.jobs in
  let per x = float_of_int x /. j in
  let a = per op.Batch.arrivals and m = per op.Batch.measured in
  let arrival_events = per (op.Batch.events - op.Batch.jobs) in
  let n = Array.length (Batch.speeds kind) in
  let policy = match kind with Batch.N10k -> "least-load" | _ -> "orr" in
  let add_pop = get r "des.queue_add_pop_ns" and hdr = get r "obs.hdr_add_ns" in
  let span_per_job name = mean_span sp name /. j in
  let base =
    [
      ("dist", (get r "dist.gap_ns" +. get r "dist.size_ns") *. a);
      ("core", get r (Layers.dispatch_metric policy n) *. a);
      (* Departure events are inside ps_cycle, which ran at the live
         depth; arrival events are the des layer's own. *)
      ("des", add_pop *. arrival_events);
      ("queueing", get r "queueing.ps_cycle_ns");
      ("cluster", (get r "cluster.collector_ns" -. (2.0 *. hdr)) *. m);
      ("obs", 2.0 *. hdr *. m);
      ("cluster", span_per_job "Driver.finalize");
    ]
  in
  if Batch.observed kind then
    let journal = get r "obs.journal_record_ns" *. ((2.0 *. a) +. 1.0) in
    base
    @ [
        ( "cluster",
          (get r "cluster.telemetry_dispatch_ns" *. a)
          +. get r "cluster.telemetry_completion_ns" -. journal );
        ("obs", journal);
        ("cluster", span_per_job "Telemetry.finalize");
        ("cluster", span_per_job "Telemetry.metrics_exposition");
        ("obs", span_per_job "Journal.to_string");
      ]
  else base

(* ---- output --------------------------------------------------------------- *)

(* A metric that is NaN or infinite (say, a quantile of an empty sample)
   is a failed check: JSON cannot carry it, and the result line writes
   it as 0, which would read as the best possible figure. *)
let emit ~correct ~attempted ~failed metrics =
  let bad = List.filter (fun (m : Util.metric) -> not (Float.is_finite m.Util.value)) metrics in
  List.iter
    (fun (m : Util.metric) ->
      Printf.printf "CHECK FAILED: metric %s is %g, not a finite number\n" m.Util.name
        m.Util.value)
    bad;
  let correct = correct && bad = [] and failed = failed + List.length bad in
  print_endline (Util.result_line ~correct ~attempted ~failed metrics)

let per_layer_names =
  [
    "gc.alloc_words_per_job"; "gc.minor_collections_per_kjob";
    "gc.major_collections_per_kjob"; "des.events_per_job"; "des.heap_high_water";
    "obs.hooks_per_job"; "obs.connects_per_job"; "dist.gap_ns"; "dist.size_ns";
    "des.queue_add_pop_ns"; "des.queue_add_pop_ns.depth10k"; "queueing.ps_cycle_ns";
  ]
  @ List.concat_map
      (fun n -> List.map (fun p -> Layers.dispatch_metric p n) Layers.policies)
      [ 15; Batch.n_big ]
  @ [
      "core.allocation_ms.n15"; "core.allocation_ms.n10k"; "cluster.collector_ns";
      "cluster.telemetry_dispatch_ns"; "cluster.telemetry_completion_ns";
      "cluster.in_system_ns.n15"; "cluster.in_system_ns.n10k";
      "cluster.daemon_submit_us"; "obs.journal_record_ns"; "obs.hdr_add_ns";
      "obs.http_parse_us"; "obs.http_roundtrip_us"; "par.reps_per_s.jobs1";
      "par.reps_per_s.nproc"; "par.speedup";
    ]
  @ List.map (fun l -> Printf.sprintf "budget.%s_ns_per_job" l) budget_layers
  @ [
      "e2e.ns_per_job"; "reconcile.explained_ns_per_job"; "reconcile.unexplained_frac";
      "trace.overhead_frac";
    ]

let unit_of_layer_metric name =
  match name with
  | "gc.alloc_words_per_job" -> "words/job"
  | "gc.minor_collections_per_kjob" | "gc.major_collections_per_kjob" -> "1/kjob"
  | "des.events_per_job" -> "events/job"
  | "des.heap_high_water" -> "events"
  | "obs.hooks_per_job" -> "calls/job"
  | "obs.connects_per_job" -> "1/job"
  | "par.reps_per_s.jobs1" | "par.reps_per_s.nproc" -> "1/s"
  | "par.speedup" -> "x"
  | "reconcile.unexplained_frac" | "trace.overhead_frac" -> "frac"
  | n when String.ends_with ~suffix:"_ns_per_job" n -> "ns"
  | n -> unit_of n

(* Per-layer metrics in the fixed order, from the replays, the counts,
   and the budget. *)
let layer_metrics r ~counts ~b ~overhead =
  let value name =
    match List.assoc_opt name counts with
    | Some x -> x
    | None -> (
      match List.assoc_opt name r.values with
      | Some x -> x
      | None -> (
        match name with
        | "e2e.ns_per_job" -> b.e2e_ns
        | "reconcile.explained_ns_per_job" -> explained b
        | "reconcile.unexplained_frac" -> unexplained_frac b
        | "trace.overhead_frac" -> overhead
        | n ->
          let l =
            try Scanf.sscanf n "budget.%[a-z]_ns_per_job" Fun.id
            with Scanf.Scan_failure _ | End_of_file -> invalid_arg ("unknown metric " ^ n)
          in
          part b l))
  in
  List.map (fun n -> Util.metric n (unit_of_layer_metric n) (value n)) per_layer_names

(* ---- batch workloads ----------------------------------------------------- *)

(* Every timing is summarised by its fastest repetition — the largest
   rate, the smallest time — over many short repetitions of the same
   work.  On a shared host, co-tenants slow this process down by up to
   1.7x in bursts lasting seconds, and noise only ever slows a
   repetition down.  Measured on a 2-core x86 host over ten 30 s runs of
   paper, the spread across runs (quartile distance over median) was
   0.11 for the fastest op, 0.13 for the median op and 0.22 for the 95th
   percentile, which falls between the two regimes. *)
let best_rate xs = Util.quantile xs 1.0
let best_time xs = Util.quantile xs 0.0

(* Set-up times are the exception: a process keeps one of two or three
   set-up levels for its whole life, so no statistic within one process
   removes the spread between runs.  Set-up is therefore sampled in
   [setup_procs] short child processes ([perfbench setup]), spread over
   the run like the submission rounds, and reports the median of their
   medians.  The levels follow the host's load (every child of one
   moment gets the same one), so children at seven moments sample more
   of it than seven children in a row. *)
let setup_stat xs = Util.median xs

let setup_procs = 7

(* The [perfbench setup] child: set-up samples of one batch workload;
   prints their median. *)
let setup_child kind ~seed ~seconds =
  let s =
    Batch.setup_samples kind (Batch.config kind ~seed) ~budget_s:(0.005 *. seconds)
      ~max_samples:100
  in
  Printf.printf "%.17g\n" (Util.Sample.quantile s 0.5)

(* The median set-up time of one [perfbench setup] child; None if it
   failed. *)
let setup_in_child ~name ~seed ~seconds =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [|
        exe; "setup"; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
        Printf.sprintf "%g" seconds;
      |]
  in
  let v = try float_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
  match Unix.close_process_in ic with Unix.WEXITED 0 -> v | _ -> None

(* [count] calls of [f] spread evenly over the next [window] seconds:
   [tick ()] makes the next call once it is due, [finish ()] makes the
   ones left. *)
let spread ~count ~window f =
  let t0 = Util.now_ns () and made = ref 0 in
  let call () =
    f ();
    incr made
  in
  let tick () =
    if !made < count && Util.seconds_since t0 >= float_of_int !made *. window /. float_of_int count
    then call ()
  in
  let finish () =
    while !made < count do
      call ()
    done
  in
  (tick, finish)

(* In-process submission rounds per run, and submissions per round.
   Forty rounds give the fastest one a chance at a quiet moment of the
   host; a round holds 100 calls beyond its p99, so the p99 of the
   fastest round is not an extreme value of a handful of calls.  On
   n10k a round also spans enough of the cluster's trajectory (its
   pending-event count wanders around the event queue's far-tier
   threshold) that the fastest round's p50 varied less from seed to
   seed than with rounds of 4 000. *)
let submit_rounds = 40
let round_calls = 10_000

(* One submission round; its p50 and p99 in ms go to [p50] and [p99]. *)
let submit_round sub ~p50 ~p99 =
  let lat = Array.map (fun ns -> ns *. 1e-6) (Batch.submit_round sub round_calls) in
  Util.Sample.add p50 (Util.quantile lat 0.5);
  Util.Sample.add p99 (Util.quantile lat 0.99)

let check_ops c ~(reference : Batch.reference) ops =
  List.iter
    (fun (o : Batch.op) ->
      if reference.Batch.at_chunk = None || reference.Batch.at_chunk = Some o.Batch.chunk then
        check c
          (Printf.sprintf "op digest %s equals the Simulation.run reference %s" o.Batch.digest
             reference.Batch.expect)
          (o.Batch.digest = reference.Batch.expect);
      check c "job conservation: arrivals = completions + in system" o.Batch.conserved)
    ops

(* n10k's long-lived driver, filled; None for the replication workloads. *)
let stream ?between ?sp kind cfg =
  if not (Batch.chunked kind) then None
  else
    match sp with
    | None -> Some (Batch.stream ?between kind cfg)
    | Some sp ->
      Some
        (Span.with_ sp ~op:0 ~layer:"cluster" "Driver.advance (fill)" (fun () ->
             Batch.stream ?between kind cfg))

(* The measured part of a run is 0.8 of it.  The submission driver is
   filled first; its submission rounds and the set-up children are then
   spread evenly over the rest, between the pieces of n10k's stream fill
   and between the ops, so that they sample as many moments of the
   host's load as possible.
   The reference comes last and takes about as long as the submission
   driver's fill (on n10k both simulate 10^6 arrivals; elsewhere both
   take a few ms), so that much is held back from the ops. *)
let untraced_batch kind ~name ~seed ~seconds =
  let c = new_checks () in
  let t_start = Util.now_ns () in
  let cfg = Batch.config kind ~seed in
  let sub, d = Batch.driver_submitter kind ~seed ~calls:(submit_rounds * round_calls) in
  let held_back = Util.seconds_since t_start in
  let window = Float.max (0.3 *. seconds) ((0.8 *. seconds) -. (2.0 *. held_back)) in
  let t0 = Util.now_ns () in
  let p50 = Util.Sample.create () and p99 = Util.Sample.create () in
  let round_tick, rounds_finish =
    spread ~count:submit_rounds ~window (fun () -> submit_round sub ~p50 ~p99)
  in
  let setup = Util.Sample.create () and setup_failed = ref false in
  let setup_tick, setup_finish =
    spread ~count:setup_procs ~window (fun () ->
        match setup_in_child ~name ~seed ~seconds with
        | Some v -> Util.Sample.add setup v
        | None -> setup_failed := true)
  in
  let tick () =
    round_tick ();
    setup_tick ()
  in
  let stream = stream ~between:tick kind cfg in
  let budget_s = Float.max (0.2 *. seconds) (window -. Util.seconds_since t0) in
  let ops =
    Batch.run_ops ~budget_s kind (fun _ ->
        let o = Batch.run_op ?stream kind cfg in
        tick ();
        o)
  in
  rounds_finish ();
  setup_finish ();
  check c "every set-up child process exited 0 with a time" (not !setup_failed);
  check c "submissions: arrivals = submitted = completions + in system"
    (Sim.Driver.arrivals d = Batch.submitted sub && Batch.conserved d);
  (* The drivers are dead by now; collect them so the reference reuses
     their memory. *)
  Gc.full_major ();
  let reference = Batch.reference kind cfg in
  check_ops c ~reference ops;
  let rss_mb = Util.peak_rss_mb () in
  let setup = Util.Sample.to_array setup in
  let jps = Array.of_list (List.map Batch.jobs_per_s ops) in
  let metrics =
    [
      Util.metric "jobs_per_s" "1/s" (best_rate jps);
      Util.metric "setup_s" "s" (setup_stat setup);
      Util.metric "peak_rss_mb" "MB" rss_mb;
      Util.metric "submit_p50_ms" "ms" (best_time (Util.Sample.to_array p50));
      Util.metric "submit_p99_ms" "ms" (best_time (Util.Sample.to_array p99));
    ]
  in
  Printf.printf "digest: %s\n" reference.Batch.digest;
  Printf.printf "ops: %d x %.0f jobs; jobs/s p5 %.0f  p50 %.0f  p95 %.0f  max %.0f\n"
    (List.length ops) Batch.jobs_per_op (Util.quantile jps 0.05)
    (Util.median jps) (Util.quantile jps 0.95) (Util.quantile jps 1.0);
  (match ops with
  | o :: _ when Batch.chunked kind ->
    Printf.printf "after a %.0f-arrival fill: %d events pending at most, %.2f jobs per computer\n"
      (Batch.fill_jobs kind) o.Batch.high_water o.Batch.occupancy
  | _ -> ());
  Printf.printf "set-up: medians of %d child processes (s): %s\n" (Array.length setup)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3g") setup)));
  Printf.printf "in-process submissions: %d rounds x %d\n" submit_rounds round_calls;
  Util.print_metrics "end-to-end metrics:" metrics;
  let attempted = List.length ops + Batch.timed sub in
  let failed = c.failed + sub.Batch.rejected in
  emit ~correct:(c.failed = 0) ~attempted ~failed metrics

let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* cluster.daemon_submit_us: POST /jobs through Daemon.handle_request on
   the Table 3 cluster under ORR, socket-free, in rounds; the fastest
   round mean.  Returns the submitter for its counts. *)
let daemon_submit ?gap_scale c ~seed =
  let rounds = 10 and per_round = 2_000 in
  let sub, dm = Batch.daemon_submitter ?gap_scale ~seed ~calls:(rounds * per_round) () in
  let means = Array.init rounds (fun _ -> mean (Batch.submit_round sub per_round)) in
  check c "every in-process POST /jobs answered 202" (sub.Batch.rejected = 0);
  let drained_ok, result = Batch.daemon_drain sub dm in
  check c "daemon drain completed exactly the accepted jobs" drained_ok;
  (best_time means *. 1e-3, sub, result)

let daemon_submit_us c ~seed =
  let us, _, _ = daemon_submit c ~seed in
  us

(* The replays at a batch op's operating point: one departure event per
   busy server, and the op's jobs in system spread over those servers. *)
let batch_replays ctx ~exe ~out_dir (cfg : Sim.config) (op : Batch.op) ~daemon_submit_us =
  let n = Array.length cfg.Sim.speeds in
  let servers = max 1 (min n (op.Batch.high_water - 1)) in
  replay_all ctx ~exe ~out_dir ~w:cfg.Sim.workload ~depth:op.Batch.high_water ~servers
    ~occupancy:
      (int_of_float (Float.round (op.Batch.occupancy *. float_of_int n /. float_of_int servers)))
    ~daemon_submit_us

let trace_path ~out_dir name ~seed =
  Util.ensure_dir out_dir;
  Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" name seed)

(* The traced pass of a batch workload.  On n10k the traced ops come
   first, so that the chunk checked against the reference is a traced
   one. *)
let traced_batch kind ~exe ~name ~seed ~seconds ~out_dir =
  let sp = Span.create () in
  let c = new_checks () in
  let cfg = Batch.config kind ~seed in
  let reference =
    Span.with_ sp ~op:0 ~layer:"cluster" "Simulation.run (reference)" (fun () ->
        Batch.reference kind cfg)
  in
  let stream = stream ~sp kind cfg in
  let traced_ops () =
    Batch.run_ops ~budget_s:(0.2 *. seconds) kind (fun i ->
        Batch.traced_op ?stream sp ~op:(i + 1) kind cfg)
  and plain_ops () =
    Batch.run_ops ~budget_s:(0.3 *. seconds) kind (fun _ -> Batch.run_op ?stream kind cfg)
  in
  let traced, plain =
    if Batch.chunked kind then
      let t = traced_ops () in
      (t, plain_ops ())
    else
      let p = plain_ops () in
      (traced_ops (), p)
  in
  check_ops c ~reference plain;
  check_ops c ~reference traced;
  let op = List.nth plain (List.length plain - 1) in
  let e2e = best_time (Array.of_list (List.map Batch.ns_per_job plain)) in
  let traced_ns = best_time (Array.of_list (List.map Batch.ns_per_job traced)) in
  let ctx = { Layers.sp; seed; inject = (fun _ -> 0) } in
  let r =
    batch_replays ctx ~exe ~out_dir cfg op ~daemon_submit_us:(daemon_submit_us c ~seed)
  in
  check c "replays: HTTP parses/round trips answered, Runner jobs=1 = jobs=nproc"
    (r.replay_failures = 0);
  let b = budget e2e (batch_contributions kind r ~op ~sp) in
  let j = float_of_int op.Batch.jobs in
  let last_traced = List.nth traced (List.length traced - 1) in
  let counts =
    [
      ("gc.alloc_words_per_job", op.Batch.alloc_words /. j);
      ("gc.minor_collections_per_kjob", 1000.0 *. float_of_int op.Batch.minor_gcs /. j);
      ("gc.major_collections_per_kjob", 1000.0 *. float_of_int op.Batch.major_gcs /. j);
      ("des.events_per_job", float_of_int op.Batch.events /. j);
      ("des.heap_high_water", float_of_int op.Batch.high_water);
      (* counted on the traced ops, where the hooks are wrapped *)
      ( "obs.hooks_per_job",
        float_of_int last_traced.Batch.hooks /. float_of_int last_traced.Batch.jobs );
      ("obs.connects_per_job", 0.0);
    ]
  in
  Printf.printf "digest: %s\n" reference.Batch.digest;
  print_budget b
    ~flag_hint:
      ("cluster: Simulation's own per-arrival and per-departure glue, which runs inside \
        Driver.advance and has no replay"
      ^
      if Batch.chunked kind then
        "; and cache misses over 10^4 servers' state in a heap of ~150 MB, which the \
         replays' tight loops on small warm data do not pay"
      else "");
  print_self_time sp ~ops:(List.length traced) ~jobs:op.Batch.jobs;
  let path = trace_path ~out_dir name ~seed in
  Span.write_chrome sp path;
  Printf.printf "trace: %d spans -> %s\n" (List.length (Span.spans sp)) path;
  let metrics = layer_metrics r ~counts ~b ~overhead:((traced_ns /. e2e) -. 1.0) in
  Util.print_metrics "per-layer metrics:" metrics;
  emit ~correct:(c.failed = 0)
    ~attempted:(1 + List.length plain + List.length traced)
    ~failed:c.failed metrics

(* ---- service ------------------------------------------------------------- *)

let service_checks c (o : Service.outcome) =
  List.iter (fun (what, ok) -> check c what ok) o.Service.checks

let untraced_service ~exe ~seed ~seconds ~out_dir =
  let c = new_checks () in
  let o = Service.run ~exe ~seed ~out_dir ~closed_s:(0.35 *. seconds) ~open_s:(0.45 *. seconds) () in
  service_checks c o;
  let late = Util.Sample.to_array o.Service.open_.Service.late_ms in
  let metrics =
    [
      Util.metric "jobs_per_s" "1/s" (Service.jobs_per_s o);
      Util.metric "setup_s" "s" (setup_stat (Util.Sample.to_array o.Service.setup));
      Util.metric "peak_rss_mb" "MB" o.Service.rss_mb;
      Util.metric "submit_p50_ms" "ms" (Service.submit_ms o 0.5);
      Util.metric "submit_p99_ms" "ms" (Service.submit_ms o 0.99);
    ]
  in
  let ld = o.Service.total in
  Printf.printf "requests: %d sent, %d accepted (202), %d failed, %d connections\n"
    ld.Service.sent ld.Service.accepted ld.Service.rejected ld.Service.connects;
  Printf.printf
    "open loop: %.0f requests/s, %d latency samples in %.1f s windows; whole-phase p50 \
     %.4f ms, p99 %.4f ms; late_p99_ms %.4f\n"
    Service.open_rate
    (Util.Sample.length o.Service.open_.Service.latency_ms)
    Service.open_window
    (Util.Sample.quantile o.Service.open_.Service.latency_ms 0.5)
    (Util.Sample.quantile o.Service.open_.Service.latency_ms 0.99)
    (Util.quantile late 0.99);
  Printf.printf "closed loop: %d callers, %d accepted in %.1f s (%.0f/s overall)\n"
    (Util.nproc ()) o.Service.closed.Service.accepted o.Service.closed_s
    (float_of_int o.Service.closed.Service.accepted /. o.Service.closed_s);
  Printf.printf "setup samples: %d spawns\n" (Util.Sample.length o.Service.setup);
  Util.print_metrics "end-to-end metrics:" metrics;
  emit ~correct:(c.failed = 0) ~attempted:ld.Service.sent
    ~failed:(ld.Service.rejected + c.failed) metrics

let traced_service ~exe ~seed ~seconds ~out_dir =
  let c = new_checks () in
  let sp = Span.create () in
  let o =
    Service.run ~sp ~exe ~seed ~out_dir ~closed_s:(0.25 *. seconds) ~open_s:(0.1 *. seconds) ()
  in
  service_checks c o;
  let jobs_per_s = Service.jobs_per_s o in
  let paper = Batch.config Batch.Paper ~seed in
  (* The same handler in-process, at the virtual arrival rate the
     closed loop offered: jobs_per_s requests per wall second, each wall
     second worth [Service.time_scale] virtual seconds. *)
  let gap_scale =
    float_of_string Service.time_scale /. jobs_per_s
    *. Cluster.Workload.arrival_rate paper.Sim.workload
  in
  let submit_us, sub, result = daemon_submit ~gap_scale c ~seed in
  let calls = float_of_int (Batch.submitted sub) in
  let events, high_water =
    match result with
    | Some r -> (float_of_int r.Sim.events_executed, float_of_int r.Sim.heap_high_water)
    | None -> (0.0, 0.0)
  in
  let ctx = { Layers.sp; seed; inject = (fun _ -> 0) } in
  let r =
    replay_all ctx ~exe ~out_dir ~w:paper.Sim.workload ~depth:(int_of_float high_water)
      ~servers:(max 1 (int_of_float high_water - 1)) ~occupancy:1
      ~daemon_submit_us:submit_us
  in
  check c "replays: HTTP parses/round trips answered, Runner jobs=1 = jobs=nproc"
    (r.replay_failures = 0);
  let ld = o.Service.total in
  let counts =
    [
      ("gc.alloc_words_per_job", sub.Batch.alloc_words /. calls);
      ("gc.minor_collections_per_kjob", 1000.0 *. float_of_int sub.Batch.minor_gcs /. calls);
      ("gc.major_collections_per_kjob", 1000.0 *. float_of_int sub.Batch.major_gcs /. calls);
      ("des.events_per_job", events /. calls);
      ("des.heap_high_water", high_water);
      (* the daemon's telemetry hooks: one dispatch and one completion *)
      ("obs.hooks_per_job", 2.0);
      ( "obs.connects_per_job",
        float_of_int ld.Service.connects /. float_of_int (max 1 ld.Service.accepted) );
    ]
  in
  (* The closed loop keeps nproc requests in flight, so each job carries
     1/nproc of a serial round trip (connect, server read and parse,
     write, close); the handler's own time is the cluster part. *)
  let b =
    budget (1e9 /. jobs_per_s)
      [
        ("obs", get r "obs.http_roundtrip_us" *. 1e3 /. float_of_int (Util.nproc ()));
        ("cluster", submit_us *. 1e3);
      ]
  in
  print_budget b
    ~flag_hint:
      "obs: per-connection socket and process-switch time beyond a serial round trip's \
       share";
  let path = trace_path ~out_dir "service" ~seed in
  Span.write_chrome sp path;
  Printf.printf "trace: %d spans -> %s\n" (List.length (Span.spans sp)) path;
  let metrics = layer_metrics r ~counts ~b ~overhead:0.0 in
  Util.print_metrics "per-layer metrics:" metrics;
  emit ~correct:(c.failed = 0) ~attempted:ld.Service.sent
    ~failed:(ld.Service.rejected + c.failed) metrics

(* ---- attribution self-test ---------------------------------------------- *)

(* Add a fixed busy-wait of ~15 % of ns/job to every dispatch decision —
   in the real run through an on_dispatch hook, in the replay through the
   wrapper around core.dispatch_ns.orr.n15 — and check that the extra
   ns/job lands in the core layer's budget, not in the unexplained part.
   Plain and slowed ops alternate, as do plain and slowed replays, so
   both sides see the same host load. *)
let selftest ~exe ~out_dir ~seed ~seconds =
  let kind = Batch.Paper in
  let metric = Layers.dispatch_metric "orr" 15 in
  let cfg = Batch.config kind ~seed in
  let sp = Span.create () in
  let ns_per_job = Batch.ns_per_job in
  let first = Batch.run_ops ~budget_s:(0.1 *. seconds) kind (fun _ -> Batch.run_op kind cfg) in
  let op = List.hd first in
  let a = float_of_int op.Batch.arrivals /. float_of_int op.Batch.jobs in
  let e2e0 = best_time (Array.of_list (List.map ns_per_job first)) in
  let inject_ns = int_of_float (0.15 *. e2e0 /. a) in
  let spin _ = Util.spin inject_ns in
  let plain = Util.Sample.create () and slowed = Util.Sample.create () in
  ignore
    (Batch.run_ops ~budget_s:(0.6 *. seconds) kind (fun i ->
         if i mod 2 = 0 then begin
           let o = Batch.run_op kind cfg in
           Util.Sample.add plain (ns_per_job o);
           o
         end
         else begin
           let o = Batch.run_op ~on_dispatch:spin kind cfg in
           Util.Sample.add slowed (ns_per_job o);
           o
         end));
  let ctx = { Layers.sp; seed; inject = (fun _ -> 0) } in
  let r = batch_replays ctx ~exe ~out_dir cfg op ~daemon_submit_us:0.0 in
  let ctx_slow = { ctx with Layers.inject = (fun m -> if m = metric then inject_ns else 0) } in
  let d_plain = Util.Sample.create () and d_slow = Util.Sample.create () in
  for _ = 1 to 5 do
    Util.Sample.add d_plain (Layers.dispatch_ns ctx ~speeds:Core.Speeds.table3 "orr");
    Util.Sample.add d_slow (Layers.dispatch_ns ctx_slow ~speeds:Core.Speeds.table3 "orr")
  done;
  let with_dispatch d =
    let v = best_time (Util.Sample.to_array d) in
    { r with values = List.map (fun (k, x) -> if k = metric then (k, v) else (k, x)) r.values }
  in
  let budget_of e2e d =
    budget (best_time (Util.Sample.to_array e2e))
      (batch_contributions kind (with_dispatch d) ~op ~sp)
  in
  let base = budget_of plain d_plain and slow = budget_of slowed d_slow in
  let injected = float_of_int inject_ns *. a in
  let d_core = part slow "core" -. part base "core" in
  let d_e2e = slow.e2e_ns -. base.e2e_ns in
  let unexpl b = b.e2e_ns -. explained b in
  let d_unexpl = unexpl slow -. unexpl base in
  Printf.printf
    "self-test: injected %d ns per dispatch = %.1f ns/job (%.1f%% of %.1f)\n\
    \  end-to-end grew by  %8.1f ns/job\n\
    \  core budget grew by %8.1f ns/job\n\
    \  unexplained moved   %8.1f ns/job\n"
    inject_ns injected (100.0 *. injected /. base.e2e_ns) base.e2e_ns d_e2e d_core d_unexpl;
  (* A spin overshoots its nominal length by a clock read, in the run and
     in the replay alike, so the growth is judged against what the run
     actually gained. *)
  let ok =
    d_e2e >= 0.5 *. injected
    && Float.abs (d_core -. d_e2e) <= 0.25 *. d_e2e
    && Float.abs d_unexpl <= 0.25 *. d_e2e
  in
  Printf.printf "self-test %s: the slowdown %s attributed to %s\n"
    (if ok then "PASSED" else "FAILED")
    (if ok then "is" else "is not")
    metric;
  if not ok then exit 1

(* ---- command line -------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref (-1) in
  let exe = ref "_build/default/bin/schedsimd.exe" and out_dir = ref ".perfbench_out" in
  let mode = ref `Bench in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  paper | paper-observed | n10k | service");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  untraced (end-to-end) or traced (per-layer) pass");
      ("--schedsimd", Arg.Set_string exe, "PATH  the schedsimd binary");
      ("--out", Arg.Set_string out_dir, "DIR  where traces and server files go");
    ]
  in
  let anon = function
    | "selftest" -> mode := `Selftest
    | "setup" -> mode := `Setup
    | a -> raise (Arg.Bad ("unexpected argument " ^ a))
  in
  Arg.parse spec anon "perfbench [selftest|setup] --workload W --seed N --seconds S --trace 0|1";
  if !seed < 0 then (prerr_endline "perfbench: --seed N is required"; exit 2);
  Util.ensure_dir !out_dir;
  let chosen () =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S\n" !workload;
      exit 2
  in
  match !mode with
  | `Selftest -> selftest ~exe:!exe ~out_dir:!out_dir ~seed:!seed ~seconds:!seconds
  | `Setup -> (
    match chosen () with
    | Batch kind -> setup_child kind ~seed:!seed ~seconds:!seconds
    | Service ->
      prerr_endline "perfbench: setup samples only the batch workloads";
      exit 2)
  | `Bench -> (
    let traced =
      match !trace with
      | 0 -> false
      | 1 -> true
      | _ -> prerr_endline "perfbench: --trace must be 0 or 1"; exit 2
    in
    match chosen () with
    | Batch kind ->
      if traced then
        traced_batch kind ~exe:!exe ~name:!workload ~seed:!seed ~seconds:!seconds
          ~out_dir:!out_dir
      else untraced_batch kind ~name:!workload ~seed:!seed ~seconds:!seconds
    | Service ->
      if traced then traced_service ~exe:!exe ~seed:!seed ~seconds:!seconds ~out_dir:!out_dir
      else untraced_service ~exe:!exe ~seed:!seed ~seconds:!seconds ~out_dir:!out_dir)
