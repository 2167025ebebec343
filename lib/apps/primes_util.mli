(** Shared number-theoretic helpers for the three prime-finding workloads.
    These compute the *answers* in plain OCaml; the simulated programs then
    issue the memory references and compute time the 1989 codes would have
    spent obtaining them. *)

val isqrt : int -> int
(** Integer square root (largest s with s*s <= n). *)

type odd_sieve
(** The odd numbers [3, 5, 7, ...] sieved as a bitset: bit [i] stands for
    [2*i + 3], the layout of primes3's simulated bit vector, so the host
    answer reads straight off the vector the simulated program marks. *)

val odd_sieve : n_bits:int -> odd_sieve
(** Sieve bits [0 .. n_bits - 1], i.e. the odd numbers up to
    [2*n_bits + 1]. *)

val odd_primes_in : odd_sieve -> lo_bit:int -> hi_bit:int -> int
(** Number of primes among bits [lo_bit .. hi_bit] (inclusive, clamped
    to the sieved range). *)

val primes_upto : int -> int array
(** All primes <= n in increasing order (2, then the survivors of
    [odd_sieve]). *)

val count_odd_multiples_in_bit_range : p:int -> lo_bit:int -> hi_bit:int -> limit:int -> int
(** Number of sieve marks prime [p] makes in the odd-number bit vector
    between bit indices [lo_bit] and [hi_bit] (inclusive), where bit [i]
    stands for the odd number [2*i + 3] and marking starts at [p*p],
    bounded by [limit]. *)
