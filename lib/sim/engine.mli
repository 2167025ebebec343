(** The discrete-event execution engine.

    Simulated threads are OCaml functions that perform {!Api} effects; the
    engine resumes them one bounded chunk of work at a time, in strict
    virtual-time order across all CPUs. Each CPU has its own clock; a
    thread's chunk runs at [max(event time, cpu clock)], which serialises
    threads sharing a CPU and makes chunk size the effective time-slicing
    granularity.

    Accounting follows Unix [time(1)], the paper's instrument: memory
    references, computation and spinning accrue {e user} time on the
    running CPU; fault handling, protocol actions and system-call service
    accrue {e system} time. T_numa and friends are sums of per-CPU user
    times (section 3.1).

    Two scheduler modes reproduce section 4.7: [Affinity] binds each thread
    to a CPU at spawn (the paper's modified scheduler); [Single_queue]
    models original Mach, re-dispatching a thread to the least-advanced CPU
    at every chunk boundary, destroying locality.

    {b The hand-off.} Thread bodies run on their own fibers, but every
    op is worked on the engine's stack: a [perform] suspends the body, the
    engine charges the op chunk by chunk, and resumes the body with the
    result. An ordinary op allocates nothing in the engine:
    - one effect handler per engine, built by {!create}; its [effc] stores
      the performed {!Op.t} in the engine and returns one preallocated
      [Some] of a constant function;
    - per-thread op state: each thread owns the pending value of each
      frequent op kind (reads and writes, spans, compute, sleep, deadline
      push), allocated at {!spawn} and refilled, every field, when the
      thread performs that kind again; float payloads sit in flat float
      records. Locks, barriers, system calls, migrations and deadline pops
      still allocate theirs;
    - the chunk clock in scratch: the instant a chunk starts at and the
      instant its thread is next ready live in a per-engine float array,
      not in float arguments that would be boxed; a thread's ready time is
      its queue entry's time, read before the entry is popped. *)

type scheduler_mode = Affinity | Single_queue

type config = {
  n_cpus : int;
  chunk_refs : int;  (** max references per chunk (interleaving granularity) *)
  compute_slice_ns : float;  (** max computation per chunk *)
  spin_poll_ns : float;  (** spin-lock / barrier poll interval *)
  unix_master : bool;  (** serialise system calls on CPU 0 (section 4.6) *)
  max_events : int;  (** safety valve against runaway simulations *)
}

val default_config : n_cpus:int -> config

type t

(** Why a thread's op is invalid. *)
type thread_error =
  | Unlock_not_held of { lock_id : int }  (** released a lock it does not hold *)
  | No_such_cpu of { cpu : int }  (** {!Api.migrate} to a CPU the engine lacks *)
  | Deadline_not_pushed  (** popped a deadline it never pushed *)

exception Thread_error of { tid : int; name : string; error : thread_error }
(** Raised out of {!run} by the thread whose op is invalid, at the chunk
    that would carry it out. A printer is registered, so an uncaught one
    reads as [Engine.Thread_error: thread N (name) <cause>]. *)

exception Deadlock of string
(** Raised when no thread can make progress (e.g. a lock was never
    released). *)

exception Event_budget_exceeded of int
(** Raised by {!run} when the run needs more events than
    [config.max_events] (the payload) — a livelock or a runaway workload.
    Every event counts: each popped queue entry, and each operation or
    span page boundary run inline within a turn. *)

val create : ?obs:Numa_obs.Hub.t -> config -> memory:Memory_iface.t -> scheduler:scheduler_mode -> t
(** [obs] (default: a fresh, sink-less hub) receives scheduler dispatch,
    lock and system-call events. The engine points the hub's clock at its
    own virtual-time counter, so all events — including those emitted by
    lower layers sharing the hub — are stamped in simulated nanoseconds.

    Every reference goes through [memory.access], which returns the value
    and leaves the access's cost in [memory.costs]; the engine reads that
    record right after each access, so a chunk that makes two (a lock's
    test-and-set, a barrier arrival, a stack-touching system call)
    charges both. A chunk's outcome (its user and system time, whether
    its op completed, the op's result, the thread's next ready time)
    lives in per-engine scratch, not in a record per chunk. *)

val obs : t -> Numa_obs.Hub.t

val set_profile : t -> Numa_obs.Profile.t -> unit
(** Attach a simulated-time profiler and point its clock at the engine's
    virtual counter. From then on every nanosecond the engine puts on a
    CPU clock is attributed: references and kernel charges through the
    memory layer, compute slices, spin padding, syscall service, dispatch
    and idle gaps directly here. Callers must also attach the profiler to
    the memory layer's {!Numa_machine.Cost_sink} (the {!Numa_system}
    layer does both). *)

val profile : t -> Numa_obs.Profile.t option

val set_turn_hook : t -> (now:float -> unit) -> unit
(** Install a callback invoked at the start of every scheduling turn with
    the (monotone) virtual clock — the fault injector's drive shaft. The
    hook runs before the turn's chunk, so actions it takes (rehoming
    threads, gating frame pools, degrading links) are visible to the very
    next simulated work. Keep it cheap: it runs per event. *)

val make_lock : t -> vpage:int -> Sync.lock
val make_barrier : t -> vpage:int -> parties:int -> Sync.barrier

val spawn : t -> ?cpu:int -> ?stack_vpage:int -> name:string -> (unit -> unit) -> int
(** Create a thread; returns its tid. Under [Affinity], [cpu] (default:
    round-robin over CPUs) is the thread's home for the whole run.
    [stack_vpage] names the thread's stack page, which system calls touch
    when the Unix-master model is active. Must be called before {!run}. *)

val run : t -> unit
(** Execute until every thread finishes. Raises {!Deadlock} or
    {!Event_budget_exceeded} on pathological workloads.

    A {!Op.Span} is worked through page batch by page batch, and each
    page boundary inside it is handled exactly like an operation
    boundary: it counts one event, the next batch runs inline if and only
    if no queued event is due before the boundary instant, and otherwise
    the thread is scheduled at that instant (clamped to its tightest
    deadline). A span therefore produces the same reports, event count
    and event stream as one [Read]/[Write] per page batch, without
    resuming the thread body between pages. *)

val now : t -> float
(** Current virtual time; callable during [run] (e.g. from policies). *)

val clock_ns : t -> cpu:int -> float
(** A CPU's local clock — the conservation target for the profiler. *)

val run_wall_s : t -> float
(** Real seconds spent inside {!run} ([Unix.gettimeofday] around the
    event loop). Non-deterministic by nature: kept out of every report,
    consumed only by the bench observatory. *)

val events_per_sec : t -> float
(** Engine throughput, [n_events / run_wall_s]; [0.] before {!run}. *)

val user_ns : t -> cpu:int -> float
val system_ns : t -> cpu:int -> float
val total_user_ns : t -> float
val total_system_ns : t -> float
val elapsed_ns : t -> float
(** Wall-clock analogue: the largest CPU clock. *)

val n_events : t -> int
val n_threads : t -> int
val thread_cpu : t -> tid:int -> int
(** CPU the thread last ran on, or will next run on after {!rehome}.
    O(1) array read once {!run} has started. Raises [Invalid_argument]
    naming the tid if no thread has it. *)

val rehome : t -> tid:int -> cpu:int -> bool
(** Externally re-home a live thread onto [cpu]: its next scheduling
    turn runs there (the home CPU is only read at turn start, so this is
    deterministic), at the same 50 us dispatch cost as a self-migration
    ({!Api.migrate}), charged to the target CPU. Returns [false] — and
    does nothing — if the thread is unknown, already finished, or
    already homed on [cpu]. Under the [Single_queue] scheduler the home
    CPU is advisory and the next idle processor still wins. *)
