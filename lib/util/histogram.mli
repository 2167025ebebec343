(** Integer-valued histogram with unbounded keys.

    Keys in [\[0, 2^16)] are counted in a dense array, so {!add} on them
    is an array store that allocates nothing (past the array's growth);
    other keys fall back to a map.

    Used for per-page move-count distributions (how many ownership transfers
    each page suffered before pinning) and fault-kind breakdowns. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Increment the count of the given key by one. *)

val add_many : t -> int -> int -> unit
(** [add_many t key n] increments the count of [key] by [n]. *)

val count : t -> int -> int
(** Count recorded for a key (0 if never seen). *)

val total : t -> int
(** Sum of all counts. *)

val keys : t -> int list
(** Recorded keys in increasing order, including any only ever given a
    count of 0 by {!add_many}. *)

val mean : t -> float
(** Count-weighted mean of the keys; [0.] for an empty histogram. *)

val max_key : t -> int
(** Largest recorded key; [0] for an empty histogram. *)

val percentile : t -> float -> int
(** [percentile t p] is the nearest-rank [p]-th percentile of the
    distribution ([p] in [\[0,100\]]): the smallest key whose cumulative
    count reaches [ceil (p/100 * total)]. [0] for an empty histogram;
    [Invalid_argument] for [p] outside the range. *)

val to_sorted_list : t -> (int * int) list
(** (key, count) pairs in increasing key order. *)

val pp : Format.formatter -> t -> unit
(** One line per key: [key: count]. *)
