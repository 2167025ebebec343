(** Toolkit shared by the application programs: word-addressed arrays over
    page regions, batched range/stride references, stack (subroutine
    linkage) traffic, work piles, and the ROMP-flavoured per-operation
    compute costs used to shape each program's beta. *)

open Numa_system

(** {1 Compute costs (ns per operation)}

    Calibrated so the applications land near the paper's per-program beta
    values (section 3.2); see EXPERIMENTS.md for the comparison. *)

module Cost : sig
  val loop_ns : float
  (** loop control per iteration *)

  val int_mul_ns : float
  (** software integer multiply (ROMP has none) *)

  val trial_div_ns : float
  (** the division loop of Primes1 (division is expensive on the ACE) *)

  val prime_div_ns : float
  (** the leaner division of Primes2 *)

  val flop_ns : float
  (** floating-point op through the FP accelerator *)

  val call_ns : float
  (** subroutine call/return compute, excluding the stack references *)
end

(** {1 Word arrays} *)

type arr = private { region : System.region; words : int; words_per_page : int }

val alloc_arr :
  System.t ->
  ?pragma:Numa_vm.Region_attr.pragma ->
  ?kind:Numa_vm.Region_attr.kind ->
  name:string ->
  sharing:Numa_vm.Region_attr.sharing ->
  words:int ->
  unit ->
  arr
(** A [words]-long array of 32-bit words in freshly allocated pages
    ([kind] defaults to [Data]). *)

val vpage_of : arr -> int -> int
(** Virtual page holding word [i]. *)

val n_pages : arr -> int

val read_word : arr -> int -> unit
val write_word : arr -> ?value:int -> int -> unit

val read_range : arr -> lo:int -> n:int -> unit
(** [n] consecutive word fetches starting at [lo], batched page by page.
    The whole walk is one engine operation ({!Numa_sim.Api.span}): no
    code of the calling thread runs between its pages. *)

val write_range : ?value:int -> arr -> lo:int -> n:int -> unit

val read_stride : arr -> lo:int -> n:int -> stride:int -> unit
(** [n] fetches at [lo], [lo+stride], ...: references are batched per page
    (a column walk touches many pages with few references each), and the
    walk is one engine operation like {!read_range}. Raises
    [Invalid_argument] on a non-positive stride, a negative count or an
    element outside the array — also outside a simulated thread. *)

val write_stride : ?value:int -> arr -> lo:int -> n:int -> stride:int -> unit

(** {1 Stack traffic} *)

val linkage : stack_vpage:int -> refs:int -> unit
(** Subroutine-linkage stack traffic: roughly half stores (frame push) and
    half fetches (restore), all on the thread's stack page. *)

(** {1 Work pile}

    A lock-protected shared counter parcelling out work units, the
    C-Threads idiom the paper's applications use for workload allocation.
    Every [take] references the counter's page under the lock, so the
    allocation state is writably shared — and gets pinned — exactly as in
    the real programs. *)

type workpile

val make_workpile : System.t -> name:string -> total:int -> chunk:int -> workpile

val workpile_take : workpile -> (int * int) option
(** [Some (lo, hi)] (inclusive bounds) or [None] when exhausted. Must be
    called from inside a simulated thread. *)

(** {1 Work splitting} *)

val static_share : total:int -> nthreads:int -> tid:int -> int * int
(** Contiguous [lo, hi) block of an EPEX-style static loop split; empty
    shares yield [lo = hi]. *)
