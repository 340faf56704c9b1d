open Test_util
module Core = Statsched_core
module Cluster = Statsched_cluster
module Simulation = Cluster.Simulation
module Driver = Simulation.Driver
module Daemon = Cluster.Daemon
module Scheduler = Cluster.Scheduler
module Http = Statsched_obs.Http

let scheduler name =
  match Scheduler.of_name name with
  | Ok k -> k
  | Error msg -> Alcotest.fail msg

let config ?(policy = "orr") ?(horizon = 2000.0) ?(warmup = 500.0)
    ?(seed = 11L) () =
  let speeds = [| 1.0; 1.5; 2.0; 12.0 |] in
  let rho = 0.6 in
  let workload = Cluster.Workload.paper_default ~rho ~speeds in
  Simulation.default_config ~horizon ~warmup ~seed ~speeds ~workload
    ~scheduler:(scheduler policy) ()

(* ------------------------------------------------------------------ *)
(* Driver ≡ run                                                        *)

let check_same_result what (a : Simulation.result) (b : Simulation.result) =
  let am = a.Simulation.metrics and bm = b.Simulation.metrics in
  Alcotest.(check int) (what ^ ": jobs") am.Core.Metrics.jobs bm.Core.Metrics.jobs;
  let exact label x y =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s %.17g vs %.17g" what label x y)
      true (Float.equal x y)
  in
  exact "mean response time" am.Core.Metrics.mean_response_time
    bm.Core.Metrics.mean_response_time;
  exact "mean response ratio" am.Core.Metrics.mean_response_ratio
    bm.Core.Metrics.mean_response_ratio;
  exact "fairness" am.Core.Metrics.fairness bm.Core.Metrics.fairness;
  exact "median ratio" a.Simulation.median_response_ratio
    b.Simulation.median_response_ratio;
  Array.iteri
    (fun i (pa : Simulation.per_computer) ->
      let pb = b.Simulation.per_computer.(i) in
      Alcotest.(check int)
        (Printf.sprintf "%s: dispatched[%d]" what i)
        pa.Simulation.dispatched pb.Simulation.dispatched;
      Alcotest.(check int)
        (Printf.sprintf "%s: completed[%d]" what i)
        pa.Simulation.completed pb.Simulation.completed;
      exact (Printf.sprintf "utilization[%d]" i) pa.Simulation.utilization
        pb.Simulation.utilization;
      exact (Printf.sprintf "mean jobs[%d]" i) pa.Simulation.mean_jobs
        pb.Simulation.mean_jobs)
    a.Simulation.per_computer

(* A one-shot [run] and a driver advanced in many small steps must be
   bit-identical: [Engine.run ~until] partitions the same event sequence
   whatever the step boundaries. *)
let driver_matches_run () =
  List.iter
    (fun policy ->
      let cfg = config ~policy () in
      let batch = Simulation.run cfg in
      let d = Driver.create cfg in
      Alcotest.(check (float 0.0)) "driver starts at time 0" 0.0 (Driver.now d);
      Alcotest.(check int) "no arrivals yet" 0 (Driver.arrivals d);
      let horizon = cfg.Simulation.horizon in
      let chunks = 13 in
      for k = 1 to chunks do
        Driver.advance d ~to_:(horizon *. float_of_int k /. float_of_int chunks)
      done;
      Driver.advance d ~to_:horizon;
      (* Monotone: stepping backwards is a no-op, not an error. *)
      Driver.advance d ~to_:(horizon /. 2.0);
      Alcotest.(check (float 0.0)) "clock pinned at horizon" horizon (Driver.now d);
      let stepped = Driver.finalize d in
      check_same_result (policy ^ " chunked") batch stepped)
    [ "orr"; "jsq-d"; "jiq" ]

(* Replaying a batch run's recorded arrival trace through an [`External]
   driver — the daemon's mode — reproduces every dispatch decision and
   the whole result bit-for-bit. *)
let external_replay_matches_batch () =
  let cfg = config ~policy:"jsq-d" () in
  let trace = ref [] in
  let batch =
    Simulation.run ~hooks_retain_jobs:false
      ~on_dispatch:(fun j ->
        trace :=
          ( j.Statsched_queueing.Job.arrival,
            j.Statsched_queueing.Job.size,
            j.Statsched_queueing.Job.computer )
          :: !trace)
      cfg
  in
  let d = Driver.create ~arrivals:`External cfg in
  let mismatches = ref 0 in
  List.iter
    (fun (t, size, computer) ->
      Driver.advance d ~to_:t;
      if Driver.submit d ~size <> computer then incr mismatches)
    (List.rev !trace);
  Alcotest.(check int) "every replayed dispatch decision identical" 0 !mismatches;
  Driver.advance d ~to_:cfg.Simulation.horizon;
  let replayed = Driver.finalize d in
  check_same_result "external replay" batch replayed

let driver_lifecycle_errors () =
  let cfg = config ~warmup:0.0 () in
  let d = Driver.create ~arrivals:`External cfg in
  Alcotest.check_raises "NaN advance rejected"
    (Invalid_argument "Simulation.Driver.advance: NaN time") (fun () ->
      Driver.advance d ~to_:Float.nan);
  Alcotest.check_raises "non-positive size rejected"
    (Invalid_argument "Simulation.Driver.submit: size <= 0") (fun () ->
      ignore (Driver.submit d ~size:0.0));
  ignore (Driver.submit d ~size:1.0);
  Alcotest.(check int) "one job in system" 1 (Driver.in_system d);
  Driver.drain d;
  Alcotest.(check int) "drained empty" 0 (Driver.in_system d);
  Alcotest.(check bool) "drain moved the clock" true (Driver.now d > 0.0);
  ignore (Driver.finalize d);
  Alcotest.check_raises "dead after finalize: advance"
    (Invalid_argument "Simulation.Driver.advance: already finalized") (fun () ->
      Driver.advance d ~to_:1.0);
  Alcotest.check_raises "dead after finalize: submit"
    (Invalid_argument "Simulation.Driver.submit: already finalized") (fun () ->
      ignore (Driver.submit d ~size:1.0))

(* A policy swap stops the periodic refresh of the policy it replaces
   (the adaptive recompute, the stale least-load poller): 1 000 round
   trips leave the pending-event count where it started. *)
let swap_stops_periodic () =
  let engine = ref None in
  let cfg = config ~policy:"adaptive-orr" ~warmup:0.0 () in
  let d =
    Driver.create ~arrivals:`External ~on_engine:(fun e -> engine := Some e) cfg
  in
  let pending () =
    match !engine with
    | Some e -> Statsched_des.Engine.pending_events e
    | None -> Alcotest.fail "engine hook never fired"
  in
  let before = pending () in
  let stale = Scheduler.stale_least_load ~poll_period:50.0 () in
  for _ = 1 to 1_000 do
    Driver.set_scheduler d (scheduler "orr");
    Driver.set_scheduler d stale;
    Driver.set_scheduler d (scheduler "adaptive-orr")
  done;
  Alcotest.(check int) "pending events after 1000 swaps" before (pending ());
  Driver.advance d ~to_:100_000.0;
  Alcotest.(check int) "pending events after the refresh ticks" before (pending ())

(* ------------------------------------------------------------------ *)
(* Daemon endpoints (no sockets: handle_request + injected clock)      *)

let req ?(body = "") meth path = { Http.meth; path; body }

let daemon_endpoints () =
  let now = ref 0.0 in
  let cfg = config ~policy:"jsq-d" ~warmup:0.0 ~horizon:1.0e9 () in
  let daemon =
    Daemon.create ~clock:(fun () -> !now) ~backlog_limit:3 cfg
  in
  let h r = Daemon.handle_request daemon r in
  let status r = r.Http.status in
  (* Liveness, metrics, state. *)
  let r = h (req "GET" "/healthz") in
  Alcotest.(check int) "healthz 200" 200 (status r);
  Alcotest.(check string) "healthz body" "ok\n" r.Http.body;
  let r = h (req "GET" "/metrics") in
  Alcotest.(check int) "metrics 200" 200 (status r);
  Alcotest.(check string) "prometheus content type"
    "text/plain; version=0.0.4; charset=utf-8" r.Http.content_type;
  Alcotest.(check bool) "metrics exposition non-empty" true
    (String.length r.Http.body > 0);
  let r = h (req "GET" "/state") in
  Alcotest.(check int) "state 200" 200 (status r);
  Alcotest.(check bool) "state is a JSON object" true (r.Http.body.[0] = '{');
  (* Policy read and hot swap. *)
  let r = h (req "GET" "/policy") in
  Alcotest.(check string) "initial policy"
    (Scheduler.name (scheduler "jsq-d") ^ "\n")
    r.Http.body;
  let r = h (req ~body:"bogus" "PUT" "/policy") in
  Alcotest.(check int) "unknown policy 400" 400 (status r);
  let r = h (req ~body:"jsq-d:0" "PUT" "/policy") in
  Alcotest.(check int) "bad probe count 400" 400 (status r);
  let r = h (req ~body:"jiq" "PUT" "/policy") in
  Alcotest.(check int) "policy swap 200" 200 (status r);
  Alcotest.(check string) "swap reports new policy"
    (Scheduler.name (scheduler "jiq") ^ "\n")
    r.Http.body;
  (* Routing errors. *)
  Alcotest.(check int) "unknown path 404" 404 (status (h (req "GET" "/nope")));
  Alcotest.(check int) "wrong method 405" 405 (status (h (req "GET" "/jobs")));
  Alcotest.(check int) "wrong method on state 405" 405
    (status (h (req "POST" "/state")));
  (* Admission: parse errors, then the backlog limit. *)
  Alcotest.(check int) "garbage body 400" 400
    (status (h (req ~body:"three" "POST" "/jobs")));
  Alcotest.(check int) "negative size 400" 400
    (status (h (req ~body:"-2" "POST" "/jobs")));
  Alcotest.(check int) "empty body 400" 400 (status (h (req "POST" "/jobs")));
  let r = h (req ~body:" 2.5 \n" "POST" "/jobs") in
  Alcotest.(check int) "first job accepted 202" 202 (status r);
  Alcotest.(check bool) "submit response carries the id" true
    (String.length r.Http.body >= 8 && String.sub r.Http.body 0 8 = "{\"id\":1,");
  Alcotest.(check int) "second job accepted" 202
    (status (h (req ~body:"1.0" "POST" "/jobs")));
  Alcotest.(check int) "third job accepted" 202
    (status (h (req ~body:"1.0" "POST" "/jobs")));
  Alcotest.(check int) "backlog full 429" 429
    (status (h (req ~body:"1.0" "POST" "/jobs")));
  Alcotest.(check int) "three jobs in system" 3 (Daemon.backlog daemon);
  (* Virtual time passes; the backlog drains and admission reopens. *)
  now := 1.0e4;
  Alcotest.(check int) "state read advances the clock" 200
    (status (h (req "GET" "/state")));
  Alcotest.(check int) "backlog drained by virtual time" 0
    (Daemon.backlog daemon);
  Alcotest.(check int) "admission reopens" 202
    (status (h (req ~body:"0.5" "POST" "/jobs")));
  (* Drain: idempotent, then everything mutating is refused. *)
  now := 2.0e4;
  let r = h (req "POST" "/drain") in
  Alcotest.(check int) "drain 200" 200 (status r);
  Alcotest.(check bool) "drain response says drained" true
    (String.length r.Http.body >= 16
    && String.sub r.Http.body 0 16 = "{\"drained\":true,");
  Alcotest.(check bool) "daemon is drained" true (Daemon.is_drained daemon);
  Alcotest.(check int) "drain idempotent" 200 (status (h (req "POST" "/drain")));
  Alcotest.(check int) "submit after drain 503" 503
    (status (h (req ~body:"1.0" "POST" "/jobs")));
  Alcotest.(check int) "swap after drain 503" 503
    (status (h (req ~body:"orr" "PUT" "/policy")));
  (match Daemon.result daemon with
  | None -> Alcotest.fail "drained daemon has no result"
  | Some r ->
    Alcotest.(check int) "all four accepted jobs measured" 4
      r.Simulation.metrics.Core.Metrics.jobs);
  (* With a finalized outcome write_journal reports success (the write
     itself is a no-op here — no journal was configured). *)
  let tmp = Filename.temp_file "schedsimd" ".journal" in
  Alcotest.(check bool) "write_journal after drain" true
    (Daemon.write_journal daemon tmp);
  Sys.remove tmp

let daemon_validation () =
  Alcotest.check_raises "time_scale <= 0"
    (Invalid_argument "Daemon.create: time_scale <= 0") (fun () ->
      ignore (Daemon.create ~time_scale:0.0 (config ())));
  Alcotest.check_raises "backlog_limit < 1"
    (Invalid_argument "Daemon.create: backlog_limit < 1") (fun () ->
      ignore (Daemon.create ~backlog_limit:0 (config ())));
  let d = Daemon.create ~clock:(fun () -> 0.0) (config ()) in
  Alcotest.(check bool) "no journal before drain" false
    (Daemon.write_journal d "/nonexistent/never-touched");
  List.iter
    (fun name ->
      match Scheduler.of_name name with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg)
    [ "jsq-d:4"; "adaptive-orr"; "sita" ];
  (match Scheduler.of_name "jsq-d:x" with
  | Ok _ -> Alcotest.fail "bad probe suffix accepted"
  | Error _ -> ());
  match Scheduler.of_name "fifo" with
  | Ok _ -> Alcotest.fail "unknown policy accepted"
  | Error msg ->
    Alcotest.(check string) "error lists the vocabulary"
      "unknown policy \"fifo\" (known: wran, oran, wrr, orr, least-load, \
       two-choices, adaptive-orr, sita, jsq-d, jsq-d-uniform, jiq)"
      msg

(* ------------------------------------------------------------------ *)
(* The daemon dispatch path stays allocation-free                      *)

(* Steady-state [Driver.submit] must not churn the heap per job: job
   records are pool-recycled, the engine's event queue reuses its
   buffers, and the JSQ(d) decision path is integer-only.  What remains
   is calling-convention float boxing across the non-inlined call
   boundaries (advance/now/submit/Tally each box a handful of floats
   without flambda) — a fixed few dozen words per job, measured at ~60.
   The bound of 80 is far under the batch-path acceptance bound of 120
   (test_journal) and tight enough that reintroducing a per-job record,
   closure or list cell on the dispatch path fails it. *)
let daemon_submit_zero_alloc () =
  let cfg = config ~policy:"jsq-d" ~warmup:0.0 ~horizon:1.0e12 () in
  (* The suite runs sanitized; the invariant checkers allocate per
     event by design, so this measurement turns them off (bit-identity
     of sanitized runs is pinned separately in test_sanitize.ml). *)
  let d = Driver.create ~sanitize:false ~arrivals:`External cfg in
  let jobs = 1000 in
  let t = [| 0.0 |] in
  let cycle () =
    for _ = 1 to jobs do
      t.(0) <- t.(0) +. 0.25;
      Driver.advance d ~to_:t.(0);
      ignore (Driver.submit d ~size:1.0)
    done
  in
  (* Warm the job pool, event queue and per-policy scratch. *)
  cycle ();
  cycle ();
  let before = Gc.minor_words () in
  cycle ();
  let delta = Gc.minor_words () -. before in
  let per_job = delta /. float_of_int jobs in
  Alcotest.(check bool)
    (Printf.sprintf "daemon dispatch allocated %.0f minor words over %d jobs \
                     (%.2f/job)" delta jobs per_job)
    true (per_job <= 80.0);
  Driver.drain d;
  ignore (Driver.finalize d)

let suite =
  [
    test "driver: chunked advance bit-identical to one-shot run"
      driver_matches_run;
    test "driver: external replay reproduces batch decisions"
      external_replay_matches_batch;
    test "driver: lifecycle validation and post-finalize death"
      driver_lifecycle_errors;
    test "driver: policy swaps stop periodic refreshes" swap_stops_periodic;
    test "daemon: every endpoint and error path" daemon_endpoints;
    test "daemon: constructor and policy-name validation" daemon_validation;
    test "daemon: dispatch path allocation bound" daemon_submit_zero_alloc;
  ]
