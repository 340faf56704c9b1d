(* Spans recorded on the benchmark's side of each call into a library
   layer.  Nothing inside lib/ is instrumented: a span opens just before
   the benchmark calls a layer's public function and closes when it
   returns.  Spans stay in memory and are written once, at the end of the
   traced pass, as Chrome trace-event JSON (Perfetto / chrome://tracing).

   Every span has a name, a layer, a start, an end and the span that
   was open when it started (its parent); spans of one op share an op id
   (0 for set-up and replays, which are not ops).  A layer's self time
   within the ops is the time its spans cover minus the part their child
   spans cover.  High-frequency calls (observer hooks fire once per
   job) are not recorded one by one: their summed time is {!charge}d to
   the layer and counted as child time of the span open around them. *)

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  op : int;
  layer : string;
  name : string;
  start : int;  (* ns, monotonic *)
  mutable stop : int;
  mutable child_ns : int;
}

type t = {
  origin : int;
  mutable closed : span list;  (* newest first *)
  mutable stack : span list;
  mutable next_id : int;
  self : (string, int) Hashtbl.t;  (* layer -> self ns *)
}

let create () =
  {
    origin = Util.now_ns ();
    closed = [];
    stack = [];
    next_id = 0;
    self = Hashtbl.create 16;
  }

let add_self t layer ns =
  let prev = Option.value (Hashtbl.find_opt t.self layer) ~default:0 in
  Hashtbl.replace t.self layer (prev + ns)

let enter t ~op ~layer name =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let s =
    {
      id = t.next_id;
      parent;
      op;
      layer;
      name;
      start = Util.now_ns ();
      stop = 0;
      child_ns = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- s :: t.stack;
  s

let leave t s =
  s.stop <- Util.now_ns ();
  (match t.stack with
  | top :: rest when top == s -> t.stack <- rest
  | _ -> invalid_arg "Span.leave: not the innermost open span");
  let dur = s.stop - s.start in
  (match t.stack with p :: _ -> p.child_ns <- p.child_ns + dur | [] -> ());
  if s.op > 0 then add_self t s.layer (dur - s.child_ns);
  t.closed <- s :: t.closed

let with_ t ~op ~layer name f =
  let s = enter t ~op ~layer name in
  match f () with
  | v ->
    leave t s;
    v
  | exception e ->
    leave t s;
    raise e

(* Attribute [ns] of un-recorded call time to [layer], as a child of the
   innermost open span. *)
let charge t ~layer ns =
  (match t.stack with p :: _ -> p.child_ns <- p.child_ns + ns | [] -> ());
  add_self t layer ns

let duration_ns s = s.stop - s.start

let spans t = List.rev t.closed

(* Self time by layer within the ops, largest first. *)
let self_by_layer t =
  Hashtbl.fold (fun l ns acc -> (l, ns) :: acc) t.self []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let write_chrome t path =
  let module Te = Statsched_obs.Trace_event in
  let tr = Te.create () in
  Te.process_name tr ~pid:1 "perfbench";
  let ops = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem ops s.op) then begin
        Hashtbl.add ops s.op ();
        Te.thread_name tr ~pid:1 ~tid:s.op
          (if s.op = 0 then "set-up and replays" else Printf.sprintf "op %d" s.op)
      end;
      Te.complete tr ~cat:s.layer ~name:s.name
        ~ts:(float_of_int (s.start - t.origin) *. 1e-9)
        ~dur:(float_of_int (duration_ns s) *. 1e-9)
        ~pid:1 ~tid:s.op
        ~args:
          [
            ("id", Te.Int s.id);
            ("parent", Te.Int s.parent);
            ("op", Te.Int s.op);
            ("self_ns", Te.Int (duration_ns s - s.child_ns));
          ]
        ())
    (spans t);
  Te.write_json tr path
