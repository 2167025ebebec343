(** The operations a simulated thread can perform.

    Thread bodies are ordinary OCaml functions; each operation is delivered
    to the engine as an effect (see {!Api}), the engine charges virtual
    time for it, and the thread resumes. Memory operations are batched
    ([count] back-to-back references to one page): the engine slices large
    batches into bounded chunks so that consistency-protocol activity from
    other processors interleaves realistically. *)

type t =
  | Read of { vpage : int; count : int }
      (** [count] 32-bit fetches from one virtual page *)
  | Write of { vpage : int; count : int; value : int }
      (** [count] 32-bit stores; the page's content cell ends up holding
          [value] *)
  | Span of {
      access : Numa_machine.Access.t;
      base_vpage : int;
      words_per_page : int;
      lo : int;
      n : int;
      stride : int;
      value : int;
    }
      (** [n] references of one kind to the words [lo], [lo+stride], ...
          of an array laid out from [base_vpage], [words_per_page] words
          per page: one operation for a whole array walk. The engine
          splits it into one batch per page ({!stride_batches}) and works
          through the batches itself; each batch is exactly the [Read] or
          [Write] of that page's [count] references (stores write
          [value]).

          {b Equivalence rule.} At each page boundary inside a span the
          engine does what it does at an operation boundary: it counts one
          event against the budget, runs the next batch inline if and only
          if no queued event is due before the boundary instant, and
          otherwise schedules the thread at that instant (clamped to its
          tightest deadline). Deadlines fire at the same chunk boundaries
          and unwind from the span's single [perform]. Reports, event
          counts and the event stream are therefore those of the same walk
          issued as one [Read]/[Write] per page — which is what the span
          saves: one effect round trip per page. *)
  | Compute of { ns : float }
      (** pure computation (no data references) *)
  | Lock_acquire of Sync.lock
  | Lock_release of Sync.lock
  | Barrier_wait of Sync.barrier
  | Syscall of { service_ns : float; touch_stack : bool }
      (** a Unix system call; with the Unix-master model enabled it
          serialises on CPU 0, and with [touch_stack] it references the
          calling thread's stack page from the master CPU (section 4.6) *)
  | Migrate of { cpu : int }
      (** rebind the thread to another processor (the section 4.7 load
          balancing hook); its pages stay behind unless the kernel moves
          them too *)
  | Sleep_until of { until_ns : float }
      (** park until the given instant of virtual time (immediately if it
          is already past); consumes no CPU while parked — the open-loop
          waiting primitive of the serving workloads *)
  | Deadline_push of { until_ns : float }
      (** arm a cancellable virtual-time timer on the calling thread; the
          engine returns a fresh timer id, and if the thread is still
          inside the timer's scope when virtual time reaches [until_ns]
          its current operation is cancelled and
          {!Api.Deadline_exceeded} is raised carrying that id. Timers
          nest: the engine always fires on the tightest armed deadline. *)
  | Deadline_pop
      (** disarm the most recently pushed timer (normal in-time exit from
          an {!Api.with_deadline} scope) *)

val batch_len : words_per_page:int -> stride:int -> i:int -> left:int -> int
(** References of a span's batch starting at element index [i] with
    [left] (> 0) references still to go: the elements [i], [i+stride],
    ... that share [i]'s page, at most [left]. Computed from the page end,
    not by walking the elements. *)

val stride_batches :
  words_per_page:int -> lo:int -> n:int -> stride:int -> (int -> int -> unit) -> unit
(** The page batches of a span, in order: [f page count] for each maximal
    run of the [n] elements [lo], [lo+stride], ... on one page (page
    [i / words_per_page] relative to the array's base). [stride] must be
    positive and [lo], [n] non-negative. *)

val pp : Format.formatter -> t -> unit
