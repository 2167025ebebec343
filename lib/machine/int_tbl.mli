(** Hash tables keyed on an unboxed [int]: no polymorphic hash or compare
    on the lookup path. Callers pack composite keys into one int (see
    {!Pt} and {!Mmu}).

    The hash is [Hashtbl.hash], the one the generic [Hashtbl] uses on
    ints, so a table keyed on plain ints iterates in the same order as
    the generic table it replaces, given the same insertions. *)

include Hashtbl.S with type key = int
