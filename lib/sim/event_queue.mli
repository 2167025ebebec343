(** The engine's ready queue: an array-backed binary min-heap on
    (virtual time, sequence number) keys carrying a thread id.

    Monomorphic on purpose — this is the simulator's hottest structure:
    the comparison is inlined (no closure call per sift step), keys live
    in unboxed float/int arrays rather than tuples, and {!pop_min}
    allocates nothing. Ties on time pop in insertion (sequence) order,
    which the engine relies on for deterministic scheduling.

    The record is exposed read-only so the engine can test the head
    without a call: [size = 0 || time.(0) >= at] is [min_time t >= at]
    without the float {!min_time} boxes to return it across modules.
    Slots at and beyond [size] are stale. *)

type t = private {
  mutable time : float array;  (** heap-ordered keys; the minimum at 0 *)
  mutable seq : int array;
  mutable tid : int array;
  mutable size : int;
}

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val add : t -> time:float -> seq:int -> tid:int -> unit

val min_time : t -> float
(** Earliest queued time, or [infinity] when empty. *)

val pop_min : t -> int
(** Remove and return the earliest entry's tid, or [-1] when empty. *)

val clear : t -> unit
