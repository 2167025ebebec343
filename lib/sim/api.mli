(** The programming interface of simulated threads.

    These functions may only be called from inside a thread body running
    under {!Engine.run}; elsewhere they raise [Effect.Unhandled]. Pages are
    named by virtual page number within the workload's task; applications
    get them from the system layer's region allocator. *)

val read : ?count:int -> int -> unit
(** [read ~count vpage]: [count] (default 1) fetches from the page. *)

val read_value : int -> int
(** One fetch, returning the page cell's current content (used by
    coherence tests and by workloads that consume produced data). *)

val write : ?count:int -> ?value:int -> int -> unit
(** [write ~count ~value vpage]: [count] (default 1) stores; the page's
    content cell becomes [value] (default 0). *)

val span :
  ?value:int ->
  Numa_machine.Access.t ->
  base_vpage:int ->
  words_per_page:int ->
  lo:int ->
  n:int ->
  stride:int ->
  unit
(** [span access ~base_vpage ~words_per_page ~lo ~n ~stride]: [n]
    references of kind [access] to the words [lo], [lo+stride], ... of an
    array laid out from [base_vpage] with [words_per_page] words per page
    (stores write [value], default 0). The walk is batched per page and
    behaves exactly as one {!read}/{!write} per page batch in order (see
    {!Op.Span} for the equivalence rule), but costs one effect round trip
    in all: a walk inside one page is a single [Op.Read]/[Op.Write], a
    longer one a single [Op.Span] that the engine walks page by page. No
    code of the caller runs between the pages. [n <= 0] does nothing;
    bounds are the caller's to check. Raises [Invalid_argument] if
    [stride] is not positive. *)

val compute : float -> unit
(** Pure computation for the given number of nanoseconds. *)

val lock : Sync.lock -> unit
(** Spin until the lock is acquired. Every poll references the lock's
    page. *)

val unlock : Sync.lock -> unit
(** Release; raises (at engine level) if the caller is not the holder. *)

val with_lock : Sync.lock -> (unit -> 'a) -> 'a
(** Acquire, run, release (also on exception). *)

val barrier : Sync.barrier -> unit
(** Arrive and spin until all parties have arrived. *)

val syscall : ?touch_stack:bool -> service_ns:float -> unit -> unit
(** Perform a Unix system call of the given service time. [touch_stack]
    (default false) makes the kernel reference the caller's user stack, the
    behaviour that shares stack pages with the Unix master (section 4.6). *)

val sleep_until : ns:float -> unit
(** Park the calling thread until the given instant of virtual time; a
    deadline already past returns immediately. The thread consumes no CPU
    while parked (the gap is idle, like a blocked system call), which is
    what makes open-loop arrival processes possible: a serving thread
    sleeps to the next request's arrival instant instead of spinning. *)

exception Deadline_exceeded of int
(** Raised inside a thread body when an armed {!with_deadline} timer
    fires; the payload is the timer id the engine handed out when the
    timer was pushed. [with_deadline] catches its own timer's exception,
    so user code only sees this while unwinding through cleanup handlers
    (e.g. the release half of {!with_lock}). *)

val with_deadline : until_ns:float -> (unit -> 'a) -> 'a option
(** [with_deadline ~until_ns f] runs [f] under a cancellable virtual-time
    timer: [Some (f ())] if it finishes before the instant [until_ns],
    [None] if the timer fires first — in which case the thread's current
    operation is abandoned at a chunk boundary no later than the deadline
    and the thread resumes (after the timer scope) at the deadline
    instant. Timers nest; an inner [with_deadline] can only tighten the
    effective deadline, and each scope observes only its own timer.
    Cancellation unwinds [f] with {!Deadline_exceeded}, so [with_lock]
    and [Fun.protect] cleanups run — but beware that a lock held at
    cancellation is released only as the unwind reaches its [with_lock].
    A deadline already past fires on the very next operation. *)

val migrate : cpu:int -> unit
(** Move the calling thread to another processor (costs a reschedule).
    Under the affinity scheduler this is the thread's new permanent home.
    Local pages do not follow automatically — pair with the pmap layer's
    page-migration call, or watch them bounce over one by one (and count
    against the move threshold) as they fault. *)

(**/**)

type _ Effect.t += Sim_op : Op.t -> int Effect.t
(** Exposed for the engine's handler only. *)
