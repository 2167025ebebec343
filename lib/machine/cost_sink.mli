(** Per-CPU accumulator for kernel (system) time.

    The VM and NUMA layers charge protocol work here as they perform it;
    the simulation engine drains the accumulator after each operation and
    advances the faulting CPU's clock by the drained amount. Keeping the
    sink separate from the engine lets the lower layers stay ignorant of
    scheduling.

    When a {!Numa_obs.Profile} is attached, every charge is additionally
    queued with its cause category, the profiler context current at
    charge time and (when known) the logical page — and profiled at
    {e drain} time, the moment the nanoseconds actually land on a CPU
    clock. Never-drained residue therefore never reaches the profiler,
    which is what makes its conservation invariant exact.

    The queue is flat: per CPU, a growable [int array] of tags (category,
    context and [lpage + 1] packed into one int) beside a [float array]
    of amounts. Once it has grown to a run's largest backlog, charging
    allocates nothing. *)

type t

val create : n_cpus:int -> t

val set_profile : t -> Numa_obs.Profile.t option -> unit
(** Attach (or detach) the profiler receiving categorised charges. *)

val profile : t -> Numa_obs.Profile.t option

val charge : t -> cpu:int -> cat:Numa_obs.Profile.kernel_cat -> lpage:int -> float -> unit
(** Add [ns] of system time against a CPU, categorised for the profiler;
    [lpage < 0] means no page attribution. Both labels are required, so a
    call boxes no option. Negative charges are rejected. *)

val drain : t -> cpu:int -> float
(** Return and reset the pending system time of a CPU, flushing its
    queued charges to the attached profiler newest first (the order in
    which the profiler's float totals have always been summed). *)

val idle : t -> cpu:int -> bool
(** Whether {!drain} would return [0.] and profile nothing: no system
    time pending and no charge queued. Lets the access path skip the
    drain (and the float it returns boxed) on a TLB hit. *)

val pending : t -> cpu:int -> float
(** Peek without resetting. *)

val total_charged : t -> cpu:int -> float
(** Cumulative system time ever charged to a CPU (not reset by [drain]). *)

val grand_total : t -> float
(** Cumulative system time across all CPUs. *)
