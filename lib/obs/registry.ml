(* A counter/gauge is a single-field all-float record: OCaml stores it
   flat, so [inc]/[set] write a raw double in place.  A [float ref]
   (the polymorphic [ref] record) would box a fresh float and pay the
   write barrier on every increment — measurable on per-event hooks. *)
type cell = { mutable v : float }

type counter = cell
type gauge = cell
type histogram = Hdr_histogram.t

type data =
  | Counter_v of counter
  | Gauge_v of gauge
  | Histogram_v of histogram

type metric = {
  name : string;
  help : string;
  labels : (string * string) list;
  data : data;
}

(* A family: every metric sharing one name, exported under one
   [# HELP]/[# TYPE] header taken from its first member. *)
type family = {
  first : metric;
  mutable members : metric list;  (* newest first *)
}

(* Series are indexed by [(name, labels)] and families by name, so
   registration is O(1) however many series exist; [families] keeps the
   exposition order. *)
type t = {
  series : (string * (string * string) list, metric) Hashtbl.t;
  by_name : (string, family) Hashtbl.t;
  mutable families : family list;  (* newest first *)
}

let create () =
  { series = Hashtbl.create 64; by_name = Hashtbl.create 16; families = [] }

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)

let valid_name n =
  String.length n > 0
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       n

let valid_label_name n =
  String.length n > 0
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       n

let kind_name = function
  | Counter_v _ -> "counter"
  | Gauge_v _ -> "gauge"
  | Histogram_v _ -> "histogram"

(* Exposition-format suffixes a histogram family [X] claims for its own
   series; no other metric may occupy them, and a histogram may not be
   registered under a name another metric already shadows. *)
let histogram_suffixes = [ "_bucket"; "_sum"; "_count" ]

let strip_suffix name suffix =
  let ln = String.length name and ls = String.length suffix in
  if ln > ls && String.equal (String.sub name (ln - ls) ls) suffix then
    Some (String.sub name 0 (ln - ls))
  else None

(* Run once per new family, never per series. *)
let check_reserved t ~name ~kind =
  if kind = "histogram" then begin
    (* [le] is the bucket label the exposition writer appends. *)
    List.iter
      (fun suffix ->
        let series = name ^ suffix in
        if Hashtbl.mem t.by_name series then
          invalid_arg
            (Printf.sprintf
               "Registry: histogram %s would shadow existing metric %s" name
               series))
      histogram_suffixes
  end;
  List.iter
    (fun suffix ->
      match strip_suffix name suffix with
      | None -> ()
      | Some base -> (
        match Hashtbl.find_opt t.by_name base with
        | Some { first = { data = Histogram_v _; _ }; _ } ->
          invalid_arg
            (Printf.sprintf
               "Registry: %s collides with the %s series of histogram %s" name
               suffix base)
        | Some _ | None -> ()))
    histogram_suffixes

let register t ~help ~labels ~name ~make ~extract ~kind =
  if not (valid_name name) then invalid_arg ("Registry: invalid metric name " ^ name);
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then invalid_arg ("Registry: invalid label name " ^ k);
      if kind = "histogram" && k = "le" then
        invalid_arg "Registry: label name le is reserved on histograms")
    labels;
  match Hashtbl.find_opt t.series (name, labels) with
  | Some m -> (
    match extract m.data with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Registry: %s already registered as a %s, requested as a %s"
           name (kind_name m.data) kind))
  | None ->
    let family = Hashtbl.find_opt t.by_name name in
    (match family with
    | Some f when kind <> kind_name f.first.data ->
      invalid_arg
        (Printf.sprintf "Registry: family %s mixes kinds (%s vs %s)" name
           (kind_name f.first.data) kind)
    | Some _ -> ()
    | None -> check_reserved t ~name ~kind);
    let v, data = make () in
    let m = { name; help; labels; data } in
    Hashtbl.add t.series (name, labels) m;
    (match family with
    | Some f -> f.members <- m :: f.members
    | None ->
      let f = { first = m; members = [ m ] } in
      Hashtbl.add t.by_name name f;
      t.families <- f :: t.families);
    v

let counter t ?(help = "") ?(labels = []) name =
  register t ~help ~labels ~name ~kind:"counter"
    ~make:(fun () ->
      let r = { v = 0.0 } in
      (r, Counter_v r))
    ~extract:(function Counter_v r -> Some r | _ -> None)

let gauge t ?(help = "") ?(labels = []) name =
  register t ~help ~labels ~name ~kind:"gauge"
    ~make:(fun () ->
      let r = { v = 0.0 } in
      (r, Gauge_v r))
    ~extract:(function Gauge_v r -> Some r | _ -> None)

let histogram t ?(help = "") ?(labels = []) ?sub_count ~lo ~hi name =
  register t ~help ~labels ~name ~kind:"histogram"
    ~make:(fun () ->
      let h = Hdr_histogram.create ?sub_count ~lo ~hi () in
      (h, Histogram_v h))
    ~extract:(function Histogram_v h -> Some h | _ -> None)

let[@inline] inc_by c x =
  if Float.is_nan x || x < 0.0 then invalid_arg "Registry.inc_by: negative increment";
  c.v <- c.v +. x

let[@inline] inc c = c.v <- c.v +. 1.0
let[@inline] counter_value c = c.v

let[@inline] set (g : gauge) x = g.v <- x
let[@inline] gauge_value (g : gauge) = g.v

let metric_count t = Hashtbl.length t.series

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (format 0.0.4)                           *)

let fmt_float x =
  if Float.is_nan x then "NaN"
  else if Float.equal x infinity then "+Inf"
  else if Float.equal x neg_infinity then "-Inf"
  else if Float.is_integer x && abs_float x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.12g" x

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels buf labels =
  match labels with
  | [] -> ()
  | _ ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape_label_value v);
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}'

let sample buf name labels value =
  Buffer.add_string buf name;
  render_labels buf labels;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (fmt_float value);
  Buffer.add_char buf '\n'

let render_metric buf m =
  match m.data with
  | Counter_v r -> sample buf m.name m.labels r.v
  | Gauge_v r -> sample buf m.name m.labels r.v
  | Histogram_v h ->
    let cumulative = ref 0 in
    Hdr_histogram.iter_nonempty h (fun ~upper ~count ->
        cumulative := !cumulative + count;
        sample buf (m.name ^ "_bucket")
          (m.labels @ [ ("le", fmt_float upper) ])
          (float_of_int !cumulative));
    sample buf (m.name ^ "_bucket")
      (m.labels @ [ ("le", "+Inf") ])
      (float_of_int (Hdr_histogram.count h));
    sample buf (m.name ^ "_sum") m.labels (Hdr_histogram.sum h);
    sample buf (m.name ^ "_count") m.labels (float_of_int (Hdr_histogram.count h))

let to_prometheus t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      if f.first.help <> "" then
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" f.first.name (escape_help f.first.help));
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" f.first.name (kind_name f.first.data));
      List.iter (render_metric buf) (List.rev f.members))
    (List.rev t.families);
  Buffer.contents buf

let write_prometheus t path =
  (* Write-then-rename so a scraper reading [path] never sees a torn
     half-written exposition. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_prometheus t));
  Sys.rename tmp path
