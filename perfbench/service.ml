(* The service workload: bin/schedsimd in its own process on the Table 3
   cluster under ORR, driven over loopback by this process.  The load
   generator is one thread multiplexing at most [nproc] connections with
   select(2); the server only ever sees job sizes, never the seed. *)

module Http = Statsched_obs.Http

(* Virtual seconds per wall second.  At 2e5 the offered virtual load is
   rate * 76.8 / (2e5 * 44): 0.044 at 5 000 requests/s, 0.44 at 50 000,
   so the server stays below rho = 0.7 even at ten times today's rate. *)
let time_scale = "200000"

(* Far above any backlog the offered load can build, so a faster server
   is never answered with 429. *)
let backlog_limit = "1000000"

(* Open-loop request rate, about half of the closed-loop capacity
   (17 000-21 000 jobs/s) measured on a 2-core x86 host when the
   benchmark was defined. *)
let open_rate = 8000.0

let setup_spawns = 7

(* ---- one-shot HTTP over loopback ------------------------------------- *)

let format_request ~meth ~path ~body =
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s"
    meth path (String.length body) body

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

(* The server closes first (Connection: close), which would leave every
   connection in TIME_WAIT on its side for a minute; after ~28 000
   requests the client's ephemeral ports wrap onto those and connects
   stall.  Closing with SO_LINGER 0 after the full response resets the
   server's half-closed socket instead. *)
let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

(* Status code and body of a complete response; 0 when unparseable. *)
let parse_response raw =
  let status =
    if String.length raw >= 12 && String.starts_with ~prefix:"HTTP/1." raw then
      Option.value (int_of_string_opt (String.sub raw 9 3)) ~default:0
    else 0
  in
  let body =
    let rec find i =
      if i + 4 > String.length raw then String.length raw
      else if String.sub raw i 4 = "\r\n\r\n" then i + 4
      else find (i + 1)
    in
    let b = find 0 in
    String.sub raw b (String.length raw - b)
  in
  (status, body)

let read_to_eof fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec loop () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      loop ()
    end
  in
  loop ();
  Buffer.contents buf

let request ~port ~meth ~path ~body =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd (format_request ~meth ~path ~body) 0;
      parse_response (read_to_eof fd))

(* ---- the server process ------------------------------------------------ *)

type server = { pid : int; port : int; out : in_channel }

let spawn ~exe ~metrics_out =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let args =
    [| exe; "-p"; "orr"; "-u"; "0.7"; "--port"; "0"; "--time-scale"; time_scale;
       "--backlog-limit"; backlog_limit; "--metrics-out"; metrics_out |]
  in
  let pid = Unix.create_process exe args null wr Unix.stderr in
  Unix.close wr;
  Unix.close null;
  let out = Unix.in_channel_of_descr rd in
  (* schedsimd prints its port once the listener is bound. *)
  let rec find_port () =
    match input_line out with
    | line -> (
      match Scanf.sscanf line "schedsimd: listening on http://127.0.0.1:%d" Fun.id with
      | port -> port
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> find_port ())
    | exception End_of_file -> failwith "schedsimd exited before listening"
  in
  { pid; port = find_port (); out }

let rec wait_healthy s tries =
  match request ~port:s.port ~meth:"GET" ~path:"/healthz" ~body:"" with
  | 200, _ -> ()
  | _ | (exception Unix.Unix_error _) ->
    if tries = 0 then failwith "schedsimd never answered /healthz";
    Unix.sleepf 0.001;
    wait_healthy s (tries - 1)

(* Read the server's remaining output and reap it. *)
let reap s =
  let rec drain_out acc =
    match input_line s.out with
    | l -> drain_out (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = drain_out [] in
  close_in_noerr s.out;
  let _, status = Unix.waitpid [] s.pid in
  (lines, status)

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap s

(* Spawn, then time from spawn until the first GET /healthz returns
   200; returns the server and that time in seconds. *)
let timed_start ~exe ~metrics_out =
  let t0 = Util.now_ns () in
  let s = spawn ~exe ~metrics_out in
  wait_healthy s 5000;
  (s, Util.seconds_since t0)

(* ---- load generator ----------------------------------------------------- *)

type slot = {
  mutable fd : Unix.file_descr option;
  mutable due : int;  (* ns: when this request was due *)
  buf : Buffer.t;
}

type load = {
  t0 : int;  (* ns: start of the phase *)
  mutable sent : int;
  mutable accepted : int;  (* 202 *)
  mutable rejected : int;  (* anything else, or a connection error *)
  mutable connects : int;
  done_s : Util.Sample.t;  (* completion time of each 202, since t0 *)
  due_s : Util.Sample.t;  (* due time of each 202, since t0 *)
  latency_ms : Util.Sample.t;  (* from due time to full response *)
  late_ms : Util.Sample.t;  (* send time minus due time *)
}

let new_load () =
  {
    t0 = Util.now_ns ();
    sent = 0;
    accepted = 0;
    rejected = 0;
    connects = 0;
    done_s = Util.Sample.create ();
    due_s = Util.Sample.create ();
    latency_ms = Util.Sample.create ();
    late_ms = Util.Sample.create ();
  }

let chunk = Bytes.create 4096

(* Open a connection for [body] on [slot]; a refused or failed send is a
   failed op, never a fast one. *)
let issue ld ~port slot ~due body =
  ld.sent <- ld.sent + 1;
  ld.connects <- ld.connects + 1;
  match connect port with
  | fd -> (
    match write_all fd (format_request ~meth:"POST" ~path:"/jobs" ~body) 0 with
    | () ->
      slot.fd <- Some fd;
      slot.due <- due;
      Buffer.clear slot.buf
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      ld.rejected <- ld.rejected + 1)
  | exception Unix.Unix_error _ -> ld.rejected <- ld.rejected + 1

(* Read what is available on a ready slot; on end of response, record
   it and free the slot. *)
let on_readable ld ~record slot fd =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 ->
    Unix.close fd;
    slot.fd <- None;
    let status, _ = parse_response (Buffer.contents slot.buf) in
    if status = 202 then begin
      ld.accepted <- ld.accepted + 1;
      let now = Util.now_ns () in
      if record then begin
        Util.Sample.add ld.done_s (float_of_int (now - ld.t0) *. 1e-9);
        Util.Sample.add ld.due_s (float_of_int (slot.due - ld.t0) *. 1e-9);
        Util.Sample.add ld.latency_ms (float_of_int (now - slot.due) *. 1e-6)
      end
    end
    else ld.rejected <- ld.rejected + 1
  | n -> Buffer.add_subbytes slot.buf chunk 0 n
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    slot.fd <- None;
    ld.rejected <- ld.rejected + 1

let busy slots = Array.to_list slots |> List.filter_map (fun s -> s.fd)

let wait_ready ld ~record slots timeout =
  match busy slots with
  | [] -> ()
  | fds ->
    let ready, _, _ =
      try Unix.select fds [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iter
      (fun s ->
        match s.fd with
        | Some fd when List.memq fd ready -> on_readable ld ~record s fd
        | Some _ | None -> ())
      slots

let make_slots conc = Array.init conc (fun _ -> { fd = None; due = 0; buf = Buffer.create 256 })

(* Closed loop: each of [conc] callers sends its next job as soon as its
   previous one is answered. *)
let closed_loop ?(record = true) ld ~port ~bodies ~conc ~seconds =
  let slots = make_slots conc in
  let deadline = Util.now_ns () + int_of_float (seconds *. 1e9) in
  let next = ref 0 in
  let refill () =
    if Util.now_ns () < deadline then
      Array.iter
        (fun s ->
          if s.fd = None then begin
            let now = Util.now_ns () in
            issue ld ~port s ~due:now bodies.(!next mod Array.length bodies);
            incr next
          end)
        slots
  in
  refill ();
  while busy slots <> [] do
    wait_ready ld ~record slots 1.0;
    refill ()
  done

(* Open loop: requests fall due at a fixed rate whatever the server
   does; a request waits for a free connection when all [conc] are busy,
   and its latency counts from when it was due. *)
let open_loop ld ~port ~bodies ~conc ~rate ~seconds =
  let slots = make_slots conc in
  let period = 1e9 /. rate in
  let total = int_of_float (rate *. seconds) in
  let t0 = ld.t0 in
  let due k = t0 + int_of_float (float_of_int k *. period) in
  let k = ref 0 in
  while !k < total || busy slots <> [] do
    let now = Util.now_ns () in
    let free = Array.to_list slots |> List.find_opt (fun s -> s.fd = None) in
    match free with
    | Some s when !k < total && now >= due !k ->
      Util.Sample.add ld.late_ms (float_of_int (now - due !k) *. 1e-6);
      issue ld ~port s ~due:(due !k) bodies.(!k mod Array.length bodies);
      incr k
    | Some _ when !k < total ->
      let wait = float_of_int (due !k - now) *. 1e-9 in
      if busy slots = [] then Unix.sleepf wait
      else wait_ready ld ~record:true slots wait
    | Some _ | None -> wait_ready ld ~record:true slots 1.0
  done

(* Sum of the per-computer completed-job counters in a Prometheus
   exposition. *)
let completed_counter text =
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc line ->
         if String.starts_with ~prefix:"statsched_jobs_completed_total{" line then
           match String.rindex_opt line ' ' with
           | Some i ->
             acc
             +. float_of_string (String.sub line (i + 1) (String.length line - i - 1))
           | None -> acc
         else acc)
       0.0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Seeded job sizes from the paper's Bounded-Pareto distribution, as
   POST bodies. *)
let bodies ~seed n =
  let rng = Statsched_prng.Rng.create ~seed:(Int64.of_int seed) () in
  let dist = Statsched_dist.Bounded_pareto.create_paper_default () in
  Array.init n (fun _ ->
      Printf.sprintf "%.17g" (Statsched_dist.Distribution.sample dist rng))

(* Window statistics.  Co-tenant interference on a shared host comes in
   bursts lasting seconds, so each phase is cut into half-second windows
   and summarised by its fastest window.  A window is long enough not to
   be an extreme of a few requests: a closed-loop window holds ~10 000
   answers (0.1 s windows spread the fastest window's rate by 0.23 across
   ten runs), an open-loop one 4 000 requests, 40 beyond its p99. *)
let window_of ~width t = int_of_float (t /. width)

(* Accepted jobs per second in each full window of the closed loop. *)
let window_rates ld ~width ~seconds =
  let n = int_of_float (seconds /. width) in
  let counts = Array.make (max 1 n) 0 in
  Array.iter
    (fun t ->
      let w = window_of ~width t in
      if w < n then counts.(w) <- counts.(w) + 1)
    (Util.Sample.to_array ld.done_s);
  Array.map (fun c -> float_of_int c /. width) counts

(* Latency quantile [q] within each window of due times holding at
   least [min_samples] requests. *)
let window_latency ld ~width ~q ~min_samples =
  let due = Util.Sample.to_array ld.due_s and lat = Util.Sample.to_array ld.latency_ms in
  let n = Array.fold_left (fun acc t -> max acc (window_of ~width t + 1)) 0 due in
  let groups = Array.init n (fun _ -> Util.Sample.create ()) in
  Array.iteri (fun i t -> Util.Sample.add groups.(window_of ~width t) lat.(i)) due;
  Array.to_list groups
  |> List.filter (fun g -> Util.Sample.length g >= min_samples)
  |> List.map (fun g -> Util.Sample.quantile g q)
  |> Array.of_list

let closed_window = 0.5
let open_window = 0.5

type outcome = {
  setup : Util.Sample.t;  (* seconds from spawn to first healthy answer *)
  closed : load;
  closed_s : float;
  open_ : load;
  total : load;  (* every phase, warm-up included *)
  rss_mb : float;
  checks : (string * bool) list;
}

(* Accepted jobs per second: the fastest closed-loop window. *)
let jobs_per_s o =
  Util.quantile (window_rates o.closed ~width:closed_window ~seconds:o.closed_s) 1.0

(* Open-loop latency quantile [q]: its smallest value over the windows. *)
let submit_ms o q =
  Util.quantile (window_latency o.open_ ~width:open_window ~q ~min_samples:2000) 0.0

let merge_into total ld =
  total.sent <- total.sent + ld.sent;
  total.accepted <- total.accepted + ld.accepted;
  total.rejected <- total.rejected + ld.rejected;
  total.connects <- total.connects + ld.connects

(* The whole service run: [setup_spawns] timed start-ups, then on the
   last server a warm-up, an open loop for [open_s] and a closed loop for
   [closed_s], then a drain whose counts must match what the client saw.
   The open loop runs first, on a server that has not yet absorbed the
   closed loop's connection churn. *)
let run ?sp ~exe ~seed ~out_dir ~closed_s ~open_s () =
  let conc = Util.nproc () in
  let bodies = bodies ~seed 65_536 in
  let metrics_out = Filename.concat out_dir "service-metrics.prom" in
  let phase name f =
    match sp with
    | None -> f ()
    | Some sp -> Span.with_ sp ~op:0 ~layer:"service" name f
  in
  let setup = Util.Sample.create () in
  let rec start i =
    let s, dt = phase "spawn-to-healthy" (fun () -> timed_start ~exe ~metrics_out) in
    Util.Sample.add setup dt;
    if i + 1 < setup_spawns then begin
      ignore (stop s);
      start (i + 1)
    end
    else s
  in
  let s = start 0 in
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (reap s)
      end)
    (fun () ->
      let total = new_load () in
      (* Warm-up: server heap and code paths. *)
      phase "warm-up" (fun () ->
          closed_loop ~record:false total ~port:s.port ~bodies ~conc ~seconds:0.2);
      let open_ = new_load () in
      phase "open-loop" (fun () ->
          open_loop open_ ~port:s.port ~bodies ~conc ~rate:open_rate ~seconds:open_s);
      let closed = new_load () in
      phase "closed-loop" (fun () ->
          closed_loop closed ~port:s.port ~bodies ~conc ~seconds:closed_s);
      merge_into total open_;
      merge_into total closed;
      let rss_mb = Util.peak_rss_mb ~pid:(string_of_int s.pid) () in
      let status, body =
        phase "drain" (fun () -> request ~port:s.port ~meth:"POST" ~path:"/drain" ~body:"")
      in
      let lines, exit_status = reap s in
      reaped := true;
      let drained =
        status = 200
        && match Batch.drain_counts body with
           | Some (a, c) -> a = total.accepted && c = total.accepted
           | None -> false
      in
      let counter =
        match read_file metrics_out with
        | text -> completed_counter text
        | exception Sys_error _ -> -1.0
      in
      let checks =
        [
          ("drain: driver arrivals and completions equal the 202 count", drained);
          ( "/metrics completed-job counter equals the 202 count",
            counter = float_of_int total.accepted );
          ("schedsimd exited cleanly", exit_status = Unix.WEXITED 0);
          ( "schedsimd reported its drain",
            List.exists (String.starts_with ~prefix:"schedsimd: drained") lines );
        ]
      in
      { setup; closed; closed_s; open_; total; rss_mb; checks })
