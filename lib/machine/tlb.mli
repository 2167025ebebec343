(** A per-CPU software TLB: a fixed-size direct-mapped translation cache
    in front of the pmap layer.

    Mitosis and numaPTE make the case that per-CPU replication/caching of
    translation state is the lever for NUMA page-table cost; this module
    models (and lets the simulator benefit from) exactly that structure.
    A hit resolves a [(pmap, vpage)] translation in O(1) array reads
    without re-entering the pmap manager / NUMA manager / MMU hash path.

    The cache is payload-polymorphic so it can sit below {!Mmu} in the
    dependency order: the MMU instantiates it with its own entry type.

    Correctness contract: every path that drops or replaces a mapping must
    call {!invalidate} for the affected (cpu, pmap, vpage); {!Mmu} funnels
    all such drops through [remove_entry], which does. Entries whose
    payload is mutated in place (a protection clamp) need no shootdown as
    the payload is shared, not copied. *)

type 'a t

val create : ?slots:int -> unit -> 'a t
(** [slots] (default 1024) is rounded up to a power of two. *)

val size : 'a t -> int
(** Actual slot count after rounding. *)

val lookup : 'a t -> pmap:int -> vpage:int -> 'a option
(** O(1) probe. Counts one hit or one miss. *)

val insert : 'a t -> pmap:int -> vpage:int -> 'a -> unit
(** Fill the slot, silently evicting any conflicting entry (direct-mapped:
    eviction is a future miss, never a correctness problem). *)

val invalidate : 'a t -> pmap:int -> vpage:int -> bool
(** Precise shootdown. True when a live matching entry was dropped (counts
    one shootdown); false when the slot held nothing or another page. *)

val flush : 'a t -> unit
(** Drop everything (not counted as shootdowns). *)

val hits : 'a t -> int
val misses : 'a t -> int
val shootdowns : 'a t -> int
