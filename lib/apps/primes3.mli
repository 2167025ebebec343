(** Primes3: parallel Sieve of Eratosthenes over a shared bit vector
    (section 3.2) — the paper's heavy legitimate write-sharer, with the
    worst alpha and the largest NUMA-management overhead. *)

val limit : float -> int

val scan_offsets : n_bits:int -> bits_per_page:int -> n_pages:int -> int array
(** Output offsets of the scan phase: entry [pg] (of [n_pages + 1]) is the
    number of odd primes on the sieve's pages before [pg], where the sieve
    is [n_bits] bits of [bits_per_page] each, bit [i] standing for
    [2*i + 3]. The last entry is the total. *)

val app : App_sig.t

val app_pragma : App_sig.t
(** The sieve with its shared vectors marked noncacheable up front
    (the section 4.3 pragma study). *)
