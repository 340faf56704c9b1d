(* Small helpers shared by the workloads: a nanosecond clock, order
   statistics, process memory, and the result line. *)

(* Monotonic nanoseconds as a plain int (63 bits hold ~146 years), so
   hot timing loops never box. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Busy-wait [ns] nanoseconds without sleeping or allocating. *)
let spin ns =
  let until = now_ns () + ns in
  while now_ns () < until do
    ()
  done

(* Linear-interpolation quantile of an unsorted sample (the
   numpy/"type 7" definition), [nan] when empty. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

(* Growable float sample. *)
module Sample = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 64 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
  let quantile t q = quantile (to_array t) q
end

(* A field of /proc/<pid>/status in kB ("VmHWM" is peak resident set). *)
let proc_status_kb ?(pid = "self") field =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let prefix = field ^ ":" in
      let rec loop () =
        match input_line ic with
        | line when String.starts_with ~prefix line ->
          let rest = String.sub line (String.length prefix)
              (String.length line - String.length prefix) in
          Scanf.sscanf (String.trim rest) "%d" Fun.id
        | _ -> loop ()
        | exception End_of_file -> failwith ("no " ^ field ^ " in /proc status")
      in
      loop ())

let peak_rss_mb ?pid () = float_of_int (proc_status_kb ?pid "VmHWM") /. 1024.0

let nproc () = max 1 (Domain.recommended_domain_count ())

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* JSON numbers: finite floats with every digit; non-finite ones (which
   JSON cannot carry) become 0, and the result line that holds them says
   correct false (see Perfbench.emit). *)
let json_num x =
  if Float.is_finite x then
    let s = Printf.sprintf "%.17g" x in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  else "0.0"

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let result_line ~correct ~attempted ~failed metrics =
  let body =
    metrics
    |> List.map (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_num m.value) m.unit_)
    |> String.concat ", "
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

(* Print the human-readable metric table that precedes the JSON line. *)
let print_metrics title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-40s %16.6g %s\n" m.name m.value m.unit_)
    metrics
