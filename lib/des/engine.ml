type t = {
  clock : Float.Array.t;
      (* length 1.  A [mutable clock : float] field in this mixed record
         would box on every write — one allocation per event — whereas a
         flat float-array slot stores the raw double. *)
  queue : (t -> unit) Event_queue.t;
  mutable executed : int;
}

type event_handle = Event_queue.handle

exception Schedule_in_past of { now : float; requested : float }

let create ?(start_time = 0.0) () =
  { clock = Float.Array.make 1 start_time; queue = Event_queue.create (); executed = 0 }

let[@inline] now e = Float.Array.unsafe_get e.clock 0

let[@inline] schedule_at e ~time f =
  if time < now e then raise (Schedule_in_past { now = now e; requested = time });
  Event_queue.add e.queue ~time f

let[@inline] [@schedsim.hot] schedule e ~delay f =
  if delay < 0.0 then
    raise (Schedule_in_past { now = now e; requested = now e +. delay });
  schedule_at e ~time:(now e +. delay) f

let cancel e h = Event_queue.cancel e.queue h

let pending_events e = Event_queue.size e.queue

let[@schedsim.hot] step e =
  (* Allocation-free event dispatch: [pop_step] parks the event in the
     queue's scratch slot instead of returning a [(time, payload) option]. *)
  if Event_queue.pop_step e.queue then begin
    Float.Array.unsafe_set e.clock 0 (Event_queue.last_time e.queue);
    e.executed <- e.executed + 1;
    (Event_queue.last_payload e.queue) e;
    true
  end
  else false

let run ?until e =
  match until with
  | None -> while step e do () done
  | Some horizon ->
    let running = ref true in
    while !running do
      (* [next_time] is NaN when the queue is empty, and NaN <= horizon
         is false — one allocation-free comparison covers both exits. *)
      let t = Event_queue.next_time e.queue in
      if t <= horizon then begin
        if not (step e) then running := false
      end
      else running := false
    done;
    if now e < horizon then Float.Array.unsafe_set e.clock 0 horizon

let events_executed e = e.executed

type snapshot = {
  snap_now : float;
  snap_events_executed : int;
  snap_pending : int;
  snap_heap_high_water : int;
}

let snapshot e =
  {
    snap_now = now e;
    snap_events_executed = e.executed;
    snap_pending = Event_queue.size e.queue;
    snap_heap_high_water = Event_queue.high_water e.queue;
  }

let heap_ordered e = Event_queue.heap_ordered e.queue

let heap_high_water e = Event_queue.high_water e.queue

module Testing = struct
  let corrupt_heap e = Event_queue.Testing.corrupt e.queue
end

type periodic = { mutable next : event_handle; mutable stopped : bool }

let every e ~period f =
  if period <= 0.0 then invalid_arg "Engine.every: period <= 0";
  let p = { next = Event_queue.no_handle; stopped = false } in
  (* One closure for the lifetime of the periodic task: re-scheduling the
     same handler value keeps the per-tick path allocation-free.  The
     [stopped] check covers a [stop_every] issued by [f] itself, when
     [p.next] is the event already firing. *)
  let rec handler e =
    f e;
    if not p.stopped then p.next <- schedule e ~delay:period handler
  in
  p.next <- schedule e ~delay:period handler;
  p

let stop_every e p =
  p.stopped <- true;
  ignore (cancel e p.next)
