(** Discrete-event simulation engine.

    A conventional event-scheduling world view: a simulation clock, a
    future-event list ({!Event_queue}), and callbacks fired in timestamp
    order.  The clock only moves forward; scheduling into the past is a
    programming error and raises. *)

type t
(** An engine instance.  Engines are independent; a program may run many
    (e.g. one per replication, possibly in parallel at the OS level). *)

type event_handle = Event_queue.handle

exception Schedule_in_past of { now : float; requested : float }

val create : ?start_time:float -> unit -> t
(** A fresh engine with clock at [start_time] (default 0). *)

val now : t -> float
(** Current simulation time. *)

val schedule : t -> delay:float -> (t -> unit) -> event_handle
(** [schedule e ~delay f] fires [f e] at [now e +. delay].  [delay >= 0].

    @raise Schedule_in_past if [delay < 0]. *)

val schedule_at : t -> time:float -> (t -> unit) -> event_handle
(** [schedule_at e ~time f] fires [f e] at absolute [time >= now e].

    @raise Schedule_in_past if [time < now e]. *)

val cancel : t -> event_handle -> bool
(** Cancel a pending event; [false] if it already fired or was cancelled. *)

val pending_events : t -> int
(** Number of events still scheduled. *)

val step : t -> bool
(** Execute the single earliest event; [false] if the queue is empty. *)

val run : ?until:float -> t -> unit
(** [run e ~until] executes events in order until the queue is empty or
    the next event is strictly after [until]; the clock is then advanced
    to [until] (or left at the last event time when [until] is omitted).
    Events scheduled by callbacks are honoured. *)

val events_executed : t -> int
(** Total callbacks fired since creation (instrumentation). *)

type snapshot = {
  snap_now : float;
  snap_events_executed : int;
  snap_pending : int;
  snap_heap_high_water : int;
}
(** A point-in-time view of the engine's progress counters. *)

val snapshot : t -> snapshot
(** Read the clock and instrumentation counters in one call — the live
    telemetry server polls this from its serving systhread while the
    simulation runs on the main one (systhreads interleave under the
    runtime lock, so the reads are well-defined; the snapshot may lag
    the very latest event by a few callbacks, which is fine for
    monitoring). *)

val heap_high_water : t -> int
(** High-water mark of the future-event list: the largest number of
    pending events observed at any point (instrumentation — a proxy for
    the simulator's heap pressure). *)

val heap_ordered : t -> bool
(** Audit the future-event list's heap property; see
    {!Event_queue.heap_ordered}.  O(pending events). *)

(**/**)

module Testing : sig
  val corrupt_heap : t -> unit
  (** Test-only: corrupt the future-event list so {!heap_ordered} turns
      false; see {!Event_queue.Testing.corrupt}. *)
end

type periodic
(** A running periodic activity, stopped with {!stop_every}. *)

val every : t -> period:float -> (t -> unit) -> periodic
(** [every e ~period f] fires [f] at [now + period], [now + 2·period], …
    until {!stop_every} is called on the returned handle (each firing
    schedules the next).

    @raise Invalid_argument if [period <= 0]. *)

val stop_every : t -> periodic -> unit
(** Cancel the activity's pending firing; it never fires again.
    Idempotent, and safe to call from the activity's own callback. *)
