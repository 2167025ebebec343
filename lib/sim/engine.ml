open Numa_machine

type scheduler_mode = Affinity | Single_queue

(* [Float.max] with the NaN handling stripped: virtual times are never
   NaN, and this runs several times per event. Stays local so it inlines. *)
let fmax (a : float) b = if a < b then b else a

(* Int-typed, so it compiles to a compare and not [caml_lessequal]. *)
let imin (a : int) b = if a < b then a else b

type config = {
  n_cpus : int;
  chunk_refs : int;
  compute_slice_ns : float;
  spin_poll_ns : float;
  unix_master : bool;
  max_events : int;
}

let default_config ~n_cpus =
  {
    n_cpus;
    chunk_refs = 2048;
    compute_slice_ns = 2_000_000. (* 2 ms *);
    spin_poll_ns = 10_000. (* 10 us *);
    unix_master = false;
    max_events = 200_000_000;
  }

exception Deadlock of string
exception Event_budget_exceeded of int

type thread_error =
  | Unlock_not_held of { lock_id : int }
  | No_such_cpu of { cpu : int }
  | Deadline_not_pushed

exception Thread_error of { tid : int; name : string; error : thread_error }

let thread_error_to_string = function
  | Unlock_not_held { lock_id } -> Printf.sprintf "released lock %d it does not hold" lock_id
  | No_such_cpu { cpu } -> Printf.sprintf "migrated to nonexistent cpu %d" cpu
  | Deadline_not_pushed -> "popped a deadline it never pushed"

let () =
  Printexc.register_printer (function
    | Thread_error { tid; name; error } ->
        Some
          (Printf.sprintf "Engine.Thread_error: thread %d (%s) %s" tid name
             (thread_error_to_string error))
    | _ -> None)

(* What a thread body's handler returns: the body has returned, or it is
   suspended at the op the handler stored in [t.op]. A thread keeps its
   last step as its continuation, so no option is built around it. *)
type step = Finished | Blocked of (int, step) Effect.Deep.continuation

(* The one [Some] every perform returns from the handler's [effc]. *)
let block : ((int, step) Effect.Deep.continuation -> step) option = Some (fun k -> Blocked k)

(* A flat float record: writing [ns] stores the float in place. *)
type ns_cell = { mutable ns : float }

(* The op currently being worked through, chunk by chunk; [P_none]
   between ops and after the thread finishes. The frequent kinds are
   allocated once per thread and refilled by {!begin_pending}. *)
type pending =
  | P_none
  | P_refs of {
      mutable vpage : int;
      mutable access : Access.t;
      mutable remaining : int;
      mutable value : int;
    }
  | P_span of {
      mutable access : Access.t;
      mutable base_vpage : int;
      mutable words_per_page : int;
      mutable stride : int;
      mutable value : int;
      mutable vpage : int;  (** the current page batch's page *)
      mutable remaining : int;  (** references left in the current batch *)
      mutable next : int;  (** element index the next batch starts at *)
      mutable left : int;  (** references in the batches after this one *)
    }
  | P_compute of ns_cell  (** the computation still to run *)
  | P_lock of Sync.lock
  | P_unlock of Sync.lock
  | P_barrier of { b : Sync.barrier; mutable arrived : bool; mutable gen : int }
  | P_syscall of { service_ns : float; touch_stack : bool }
  | P_migrate of { target : int }
  | P_sleep of ns_cell  (** the wake-up instant *)
  | P_deadline_push of ns_cell  (** the deadline instant *)
  | P_deadline_pop

type thread = {
  tid : int;
  name : string;
  mutable cpu : int;
  stack_vpage : int option;
  mutable kont : step;
      (** [Blocked k] while the body waits on [pending]; [Finished] once
          it has returned *)
  mutable pending : pending;
  mutable finished : bool;
  mutable deadlines : (int * float) list;
      (** armed cancellable timers, newest first: (timer id, absolute
          virtual-time deadline) *)
  mutable deadline : float;
      (** cached tightest armed deadline ([infinity] when none) — read at
          every chunk boundary, so it must be O(1) *)
  p_refs : pending;
  p_span : pending;
  p_compute : pending;
  p_sleep : pending;
  p_deadline_push : pending;
      (** the thread's own op state for the frequent kinds *)
}

type t = {
  config : config;
  memory : Memory_iface.t;
  scheduler : scheduler_mode;
  obs : Numa_obs.Hub.t;
  clock : float array;
  user : float array;
  system : float array;
  vnow : float array;
      (* one cell: the monotone virtual clock, kept in a float array so
         advancing it per event boxes nothing *)
  chunk_at : float array;
      (** the current chunk's instants, [at_start] and [at_after]: where
          it begins and where its thread is next ready. [go], [boundary],
          [fire], [park], [process_chunk] and [schedule] read them here,
          since float arguments would be boxed. *)
  events : Event_queue.t;  (* (time, seq) -> tid *)
  mutable seq : int;
  threads : (int, thread) Hashtbl.t;
  mutable thread_by_tid : thread array;
      (** flat tid index, rebuilt when [run] starts; threads cannot spawn
          after that *)
  mutable next_tid : int;
  mutable live : int;
  mutable spawn_rr : int;  (* round-robin cursor for default CPU assignment *)
  mutable next_timer_id : int;  (* deadline timer ids, allocated in event order *)
  mutable n_events : int;
  out : float array;
      (** the last chunk's outcome, written by {!outcome}: its user and
          system durations ([out_user], [out_system]) and, for a chunk
          that parks its thread, the ready time ([out_ready], else
          [on_cpu]). Scratch, so a chunk allocates no record. *)
  mutable out_completed : bool;  (** the last chunk finished its op *)
  mutable out_result : int;  (** the finished op's result value *)
  mutable op : Op.t;  (** the op the last [perform] handed over *)
  handler : (unit, step) Effect.Deep.handler;
      (** every thread body runs under this one handler, whose [effc]
          stores the op in [op] and returns the constant {!block} *)
  mutable next_sync_id : int;
  mutable running : bool;
  mutable completed : bool;
  mutable turn_hook : (now:float -> unit) option;
      (** fault injection taps every scheduling turn; [now] is the
          monotone virtual clock *)
  mutable profile : Numa_obs.Profile.t option;
      (** when set, every nanosecond a clock advances is attributed *)
  mutable run_wall_s : float;
      (** real seconds spent inside {!run} — the observatory's
          events/sec denominator; the only non-deterministic number the
          engine keeps, and it stays out of all reports *)
}

let at_start = 0
let at_after = 1

let create ?obs config ~memory ~scheduler =
  if config.n_cpus <= 0 then invalid_arg "Engine.create: n_cpus must be positive";
  if config.chunk_refs <= 0 then invalid_arg "Engine.create: chunk_refs must be positive";
  let obs = match obs with Some h -> h | None -> Numa_obs.Hub.create () in
  let rec t =
  {
    config;
    memory;
    scheduler;
    obs;
    clock = Array.make config.n_cpus 0.;
    user = Array.make config.n_cpus 0.;
    system = Array.make config.n_cpus 0.;
    vnow = [| 0. |];
    chunk_at = [| 0.; 0. |];
    events = Event_queue.create ();
    seq = 0;
    threads = Hashtbl.create 32;
    thread_by_tid = [||];
    next_tid = 0;
    live = 0;
    spawn_rr = 0;
    next_timer_id = 0;
    n_events = 0;
    out = Array.make 3 0.;
    out_completed = false;
    out_result = 0;
    op = Op.Deadline_pop;
    handler =
      {
        retc = (fun () -> Finished);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) :
               ((a, step) Effect.Deep.continuation -> step) option ->
            match eff with
            | Api.Sim_op op ->
                t.op <- op;
                block
            | _ -> None);
      };
    next_sync_id = 0;
    running = false;
    completed = false;
    turn_hook = None;
    profile = None;
    run_wall_s = 0.;
  }
  in
  (* Events carry the engine's virtual clock, so a sink attached anywhere in
     the stack timestamps in simulated nanoseconds. *)
  Numa_obs.Hub.set_clock obs (fun () -> t.vnow.(0));
  t

let obs t = t.obs
let set_turn_hook t hook = t.turn_hook <- Some hook

let set_profile t p =
  t.profile <- Some p;
  Numa_obs.Profile.set_clock p (fun () -> t.vnow.(0))

let profile t = t.profile

let make_lock t ~vpage =
  let id = t.next_sync_id in
  t.next_sync_id <- id + 1;
  Sync.make_lock ~id ~vpage

let make_barrier t ~vpage ~parties =
  let id = t.next_sync_id in
  t.next_sync_id <- id + 1;
  Sync.make_barrier ~id ~vpage ~parties

(* Queue [th] at [chunk_at.(at_after)]. *)
let schedule t th =
  Event_queue.add t.events ~time:t.chunk_at.(at_after) ~seq:t.seq ~tid:th.tid;
  t.seq <- t.seq + 1

(* Refill one of a thread's own pending values. *)
let refs p ~vpage ~access ~count ~value =
  match p with
  | P_refs r ->
      r.vpage <- vpage;
      r.access <- access;
      r.remaining <- count;
      r.value <- value;
      p
  | _ -> assert false

(* Inlined, so [ns] is stored without a box. *)
let[@inline] with_ns p ns =
  match p with
  | P_compute c | P_sleep c | P_deadline_push c ->
      c.ns <- ns;
      p
  | _ -> assert false

(* Make [op] the thread's pending op. The frequent kinds refill the
   thread's own state, every field of it, so nothing of an op a deadline
   abandoned survives into the next. *)
let begin_pending th op =
  th.pending <-
    (match op with
    | Op.Read { vpage; count } -> refs th.p_refs ~vpage ~access:Access.Load ~count ~value:0
    | Op.Write { vpage; count; value } ->
        refs th.p_refs ~vpage ~access:Access.Store ~count ~value
    | Op.Span { access; base_vpage; words_per_page; lo; n; stride; value } -> (
        match th.p_span with
        | P_span r as p ->
            let count = Op.batch_len ~words_per_page ~stride ~i:lo ~left:n in
            r.access <- access;
            r.base_vpage <- base_vpage;
            r.words_per_page <- words_per_page;
            r.stride <- stride;
            r.value <- value;
            r.vpage <- base_vpage + (lo / words_per_page);
            r.remaining <- count;
            r.next <- lo + (count * stride);
            r.left <- n - count;
            p
        | _ -> assert false)
    | Op.Compute { ns } -> with_ns th.p_compute ns
    | Op.Sleep_until { until_ns } -> with_ns th.p_sleep until_ns
    | Op.Deadline_push { until_ns } -> with_ns th.p_deadline_push until_ns
    | Op.Lock_acquire l -> P_lock l
    | Op.Lock_release l -> P_unlock l
    | Op.Barrier_wait b -> P_barrier { b; arrived = false; gen = b.Sync.generation }
    | Op.Syscall { service_ns; touch_stack } -> P_syscall { service_ns; touch_stack }
    | Op.Migrate { cpu } -> P_migrate { target = cpu }
    | Op.Deadline_pop -> P_deadline_pop)

let spawn t ?cpu ?stack_vpage ~name body =
  if t.running || t.completed then invalid_arg "Engine.spawn: engine already running";
  let cpu =
    match cpu with
    | Some c ->
        if c < 0 || c >= t.config.n_cpus then invalid_arg "Engine.spawn: bad cpu";
        c
    | None ->
        let c = t.spawn_rr mod t.config.n_cpus in
        t.spawn_rr <- t.spawn_rr + 1;
        c
  in
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th =
    {
      tid;
      name;
      cpu;
      stack_vpage;
      kont = Finished;
      pending = P_none;
      finished = false;
      deadlines = [];
      deadline = infinity;
      p_refs = P_refs { vpage = 0; access = Access.Load; remaining = 0; value = 0 };
      p_span =
        P_span
          {
            access = Access.Load;
            base_vpage = 0;
            words_per_page = 1;
            stride = 1;
            value = 0;
            vpage = 0;
            remaining = 0;
            next = 0;
            left = 0;
          };
      p_compute = P_compute { ns = 0. };
      p_sleep = P_sleep { ns = 0. };
      p_deadline_push = P_deadline_push { ns = 0. };
    }
  in
  Hashtbl.replace t.threads tid th;
  t.live <- t.live + 1;
  (* Launch the body up to its first operation right away; the first chunk
     is processed when the run loop pops the thread's initial event. *)
  th.kont <- Effect.Deep.match_with body () t.handler;
  (match th.kont with
  | Finished ->
      th.finished <- true;
      t.live <- t.live - 1
  | Blocked _ ->
      begin_pending th t.op;
      t.chunk_at.(at_after) <- 0.;
      schedule t th);
  tid

(* The [ready] of a chunk that leaves its thread on the CPU, whose next
   ready time then follows the CPU clock. Virtual times are never
   negative. *)
let on_cpu = -1.

let out_user = 0
let out_system = 1
let out_ready = 2

(* Record one chunk's outcome in the engine's scratch: the user and
   system durations it consumed on the CPU, whether the whole op is now
   complete (with its result value), and — for operations that park the
   thread elsewhere (system calls) or that poll — an explicit next-ready
   time instead of cpu-clock progression. Inlined, so the floats go
   straight into the array unboxed. *)
let[@inline] outcome t ~d_user ~d_system ~completed ~result ~ready =
  t.out.(out_user) <- d_user;
  t.out.(out_system) <- d_system;
  t.out.(out_ready) <- ready;
  t.out_completed <- completed;
  t.out_result <- result

(* One access by [th]; its costs land in [t.memory.costs], which the next
   access overwrites. *)
let access t th ~cpu ~vpage ~access:a ~count ~value =
  t.memory.Memory_iface.access ~cpu ~tid:th.tid ~vpage ~access:a ~count ~value

let thread_error th error = raise (Thread_error { tid = th.tid; name = th.name; error })

let process_chunk t th ~cpu pending =
  let costs = t.memory.Memory_iface.costs in
  match pending with
  | P_none -> assert false
  | P_refs r ->
      let n = imin r.remaining t.config.chunk_refs in
      let v = access t th ~cpu ~vpage:r.vpage ~access:r.access ~count:n ~value:r.value in
      r.remaining <- r.remaining - n;
      outcome t ~d_user:costs.user_ns ~d_system:costs.system_ns
        ~completed:(r.remaining = 0) ~result:v ~ready:on_cpu
  | P_span r ->
      (* [completed] means the current page batch is done; [go] moves on
         to the next batch, or resumes the thread after the last one. *)
      let n = imin r.remaining t.config.chunk_refs in
      let v = access t th ~cpu ~vpage:r.vpage ~access:r.access ~count:n ~value:r.value in
      r.remaining <- r.remaining - n;
      outcome t ~d_user:costs.user_ns ~d_system:costs.system_ns
        ~completed:(r.remaining = 0) ~result:v ~ready:on_cpu
  | P_compute c ->
      let slice = Float.min c.ns t.config.compute_slice_ns in
      c.ns <- c.ns -. slice;
      (match t.profile with
      | Some p -> Numa_obs.Profile.charge_compute p ~cpu ~tid:th.tid slice
      | None -> ());
      outcome t ~d_user:slice ~d_system:0. ~completed:(c.ns <= 0.) ~result:0
        ~ready:on_cpu
  | P_lock l -> (
      match l.Sync.holder with
      | None ->
          (* Successful test-and-set: a fetch and a store on the lock page. *)
          ignore (access t th ~cpu ~vpage:l.Sync.lock_vpage ~access:Access.Load ~count:1 ~value:0);
          let rd_user = costs.user_ns and rd_system = costs.system_ns in
          ignore (access t th ~cpu ~vpage:l.Sync.lock_vpage ~access:Access.Store ~count:1 ~value:1);
          Sync.acquire ~obs:t.obs ?profile:t.profile l ~tid:th.tid ~cpu;
          outcome t ~d_user:(rd_user +. costs.user_ns) ~d_system:(rd_system +. costs.system_ns)
            ~completed:true ~result:0 ~ready:on_cpu
      | Some _ ->
          (* Busy: burn one poll interval in user state and try again. *)
          ignore (access t th ~cpu ~vpage:l.Sync.lock_vpage ~access:Access.Load ~count:1 ~value:0);
          let rd_user = costs.user_ns and rd_system = costs.system_ns in
          Sync.contend ~obs:t.obs l ~tid:th.tid ~cpu;
          let d_user = fmax rd_user t.config.spin_poll_ns in
          (match t.profile with
          | Some p ->
              (* The poll reference itself was charged as a ref by the
                 memory layer; only the poll padding is spin. *)
              Numa_obs.Profile.charge_lock_spin p ~cpu ~tid:th.tid
                ~lock_id:l.Sync.lock_id
                (d_user -. rd_user)
          | None -> ());
          outcome t ~d_user ~d_system:rd_system ~completed:false ~result:0 ~ready:on_cpu)
  | P_unlock l ->
      (match l.Sync.holder with
      | Some tid when tid = th.tid -> ()
      | Some _ | None -> thread_error th (Unlock_not_held { lock_id = l.Sync.lock_id }));
      (* The releasing store happens while the thread still holds the lock;
         only then does the holder flip. Anything the store triggers (fault
         handling, bus traffic, its Refs event) is thereby accounted inside
         the hold interval, and no other thread can observe the lock free
         before the memory traffic that freed it exists. *)
      ignore (access t th ~cpu ~vpage:l.Sync.lock_vpage ~access:Access.Store ~count:1 ~value:0);
      let wr_user = costs.user_ns and wr_system = costs.system_ns in
      Sync.release ~obs:t.obs ?profile:t.profile l ~tid:th.tid ~cpu;
      outcome t ~d_user:wr_user ~d_system:wr_system ~completed:true ~result:0 ~ready:on_cpu
  | P_barrier pb ->
      let b = pb.b in
      if not pb.arrived then begin
        (* Arrival: read-modify-write of the counter. *)
        ignore
          (access t th ~cpu ~vpage:b.Sync.barrier_vpage ~access:Access.Load ~count:1 ~value:0);
        let rd_user = costs.user_ns and rd_system = costs.system_ns in
        ignore
          (access t th ~cpu ~vpage:b.Sync.barrier_vpage ~access:Access.Store ~count:1
             ~value:(b.Sync.arrived + 1));
        pb.arrived <- true;
        pb.gen <- b.Sync.generation;
        b.Sync.arrived <- b.Sync.arrived + 1;
        let released = b.Sync.arrived = b.Sync.parties in
        if released then begin
          b.Sync.generation <- b.Sync.generation + 1;
          b.Sync.arrived <- 0
        end;
        outcome t ~d_user:(rd_user +. costs.user_ns) ~d_system:(rd_system +. costs.system_ns)
          ~completed:released ~result:0 ~ready:on_cpu
      end
      else if b.Sync.generation > pb.gen then begin
        (* Release observed on this poll. *)
        ignore
          (access t th ~cpu ~vpage:b.Sync.barrier_vpage ~access:Access.Load ~count:1 ~value:0);
        outcome t ~d_user:costs.user_ns ~d_system:costs.system_ns ~completed:true ~result:0
          ~ready:on_cpu
      end
      else begin
        ignore
          (access t th ~cpu ~vpage:b.Sync.barrier_vpage ~access:Access.Load ~count:1 ~value:0);
        let rd_user = costs.user_ns and rd_system = costs.system_ns in
        let d_user = fmax rd_user t.config.spin_poll_ns in
        (match t.profile with
        | Some p ->
            Numa_obs.Profile.charge_barrier_spin p ~cpu ~tid:th.tid (d_user -. rd_user)
        | None -> ());
        outcome t ~d_user ~d_system:rd_system ~completed:false ~result:0 ~ready:on_cpu
      end
  | P_migrate { target } ->
      if target < 0 || target >= t.config.n_cpus then
        thread_error th (No_such_cpu { cpu = target });
      th.cpu <- target;
      let start = t.chunk_at.(at_start) in
      (* A reschedule: the thread resumes on the target once it is past
         both its own time and the target's clock; the dispatch work is
         system time there. *)
      let resume = fmax start t.clock.(target) +. 50_000. in
      (match t.profile with
      | Some p ->
          (* The target clock jumps to [fmax start clock] (an idle gap if
             the event time is ahead) and then serves the dispatch. *)
          Numa_obs.Profile.charge_idle p ~cpu:target
            (fmax start t.clock.(target) -. t.clock.(target));
          Numa_obs.Profile.charge_dispatch p ~cpu:target 50_000.
      | None -> ());
      t.system.(target) <- t.system.(target) +. 50_000.;
      t.clock.(target) <- resume;
      outcome t ~d_user:0. ~d_system:0. ~completed:true ~result:0 ~ready:resume
  | P_syscall { service_ns; touch_stack } ->
      let master = if t.config.unix_master then 0 else cpu in
      let start_service = fmax t.chunk_at.(at_start) t.clock.(master) in
      let stack_ns =
        if touch_stack then
          match th.stack_vpage with
          | None -> 0.
          | Some vpage ->
              (* The kernel reads arguments from and writes results to the
                 caller's stack while running on the (master) CPU. *)
              ignore (access t th ~cpu:master ~vpage ~access:Access.Load ~count:4 ~value:0);
              let rd_user = costs.user_ns and rd_system = costs.system_ns in
              ignore (access t th ~cpu:master ~vpage ~access:Access.Store ~count:4 ~value:0);
              rd_user +. costs.user_ns +. rd_system +. costs.system_ns
        else 0.
      in
      let finish = start_service +. service_ns +. stack_ns in
      t.system.(master) <- t.system.(master) +. service_ns +. stack_ns;
      if Numa_obs.Hub.enabled t.obs then
        Numa_obs.Hub.emit t.obs
          (Numa_obs.Event.Syscall { tid = th.tid; cpu = master; service_ns });
      (match t.profile with
      | Some p ->
          (* Stack references charged themselves through the memory layer;
             the master's remaining clock advance is the wait for the
             master to come free plus the service itself. *)
          Numa_obs.Profile.charge_idle p ~cpu:master
            (start_service -. t.clock.(master));
          Numa_obs.Profile.charge_syscall p ~cpu:master service_ns
      | None -> ());
      t.clock.(master) <- fmax t.clock.(master) finish;
      (* The calling thread was blocked, not computing: its own CPU accrues
         neither user nor system time; it resumes when the call returns. *)
      outcome t ~d_user:0. ~d_system:0. ~completed:true ~result:0 ~ready:finish
  | P_sleep until ->
      (* An open-loop timer: park until the virtual deadline without
         touching any CPU clock. A deadline already past resumes at [start]
         (the sleeper was behind, e.g. a serving thread draining a queue
         backlog). The gap, if any, is charged as idle when the thread's
         next chunk finds its event time ahead of the CPU clock. *)
      outcome t ~d_user:0. ~d_system:0. ~completed:true ~result:0
        ~ready:(fmax t.chunk_at.(at_start) until.ns)
  | P_deadline_push until ->
      (* Arm a cancellable timer. Free of simulated time: the deadline
         machinery models a kernel timer wheel whose cost is negligible
         next to a single remote reference. Ids are allocated in event
         order, so they are deterministic. *)
      let until_ns = until.ns in
      let id = t.next_timer_id in
      t.next_timer_id <- id + 1;
      th.deadlines <- (id, until_ns) :: th.deadlines;
      if until_ns < th.deadline then th.deadline <- until_ns;
      outcome t ~d_user:0. ~d_system:0. ~completed:true ~result:id ~ready:on_cpu
  | P_deadline_pop ->
      (match th.deadlines with
      | [] -> thread_error th Deadline_not_pushed
      | _ :: rest ->
          th.deadlines <- rest;
          th.deadline <- List.fold_left (fun a (_, u) -> Float.min a u) infinity rest);
      outcome t ~d_user:0. ~d_system:0. ~completed:true ~result:0 ~ready:on_cpu

let pick_cpu t th =
  match t.scheduler with
  | Affinity -> th.cpu
  | Single_queue ->
      (* Original Mach: the next available processor takes the thread. *)
      let best = ref 0 in
      for c = 1 to t.config.n_cpus - 1 do
        if t.clock.(c) < t.clock.(!best) then best := c
      done;
      th.cpu <- !best;
      !best

(* Every event — a popped queue entry or a boundary run inline — counts
   against the budget. *)
let count_event t =
  t.n_events <- t.n_events + 1;
  if t.n_events > t.config.max_events then
    raise (Event_budget_exceeded t.config.max_events)

let finish_thread t th =
  th.finished <- true;
  th.pending <- P_none;
  t.live <- t.live - 1

(* Whether no queued event is due before [at]: [Event_queue.min_time q >=
   at], read in place so no float is boxed. *)
let[@inline] nothing_due_before (q : Event_queue.t) at = q.size = 0 || q.time.(0) >= at

(* A parked thread (sleep, syscall return) must still observe its
   tightest deadline: wake at the deadline instant instead of sleeping
   through it, so the timer fires exactly on time. *)
let park t th =
  let at = t.chunk_at in
  if at.(at_after) > th.deadline then at.(at_after) <- fmax at.(at_start) th.deadline;
  schedule t th

(* Work through [th]'s pending operation on [cpu] from [chunk_at.(at_start)],
   chunk by chunk, for one scheduling turn. Top-level, not local to
   [turn], so a turn allocates no closures. *)
let rec go t th cpu =
  let at = t.chunk_at in
  match th.pending with
  | P_none -> ()
  | _ when at.(at_start) >= th.deadline -> fire t th cpu
  | pending ->
      process_chunk t th ~cpu pending;
      let start = at.(at_start) in
      let d_user = t.out.(out_user) and d_system = t.out.(out_system) in
      let ready = t.out.(out_ready) in
      let parked = ready >= 0. in
      t.user.(cpu) <- t.user.(cpu) +. d_user;
      t.system.(cpu) <- t.system.(cpu) +. d_system;
      if parked then at.(at_after) <- ready
      else begin
        (match t.profile with
        | Some p when start > t.clock.(cpu) ->
            (* The thread's event time was ahead of its CPU's clock:
               the CPU sat idle for the difference. *)
            Numa_obs.Profile.charge_idle p ~cpu (start -. t.clock.(cpu))
        | Some _ | None -> ());
        t.clock.(cpu) <- start +. d_user +. d_system;
        at.(at_after) <- t.clock.(cpu)
      end;
      t.vnow.(0) <- fmax t.vnow.(0) at.(at_after);
      if not t.out_completed then schedule t th
      else
        match pending with
        | P_span r when r.left > 0 ->
            (* A page boundary inside a span: the next page's batch
               starts exactly where a separately performed op would. *)
            let count =
              Op.batch_len ~words_per_page:r.words_per_page ~stride:r.stride ~i:r.next
                ~left:r.left
            in
            r.vpage <- r.base_vpage + (r.next / r.words_per_page);
            r.remaining <- count;
            r.next <- r.next + (count * r.stride);
            r.left <- r.left - count;
            boundary t th cpu
        | _ -> (
            (* Resume the body. Its next step overwrites [kont], and the
               op it performs (or [finish_thread]) overwrites [pending]. *)
            match th.kont with
            | Finished -> assert false
            | Blocked k -> (
                th.kont <- Effect.Deep.continue k t.out_result;
                match th.kont with
                | Finished -> finish_thread t th
                | Blocked _ ->
                    begin_pending th t.op;
                    if parked then park t th else boundary t th cpu))
(* An operation boundary at [chunk_at.(at_after)]: keep running inline
   while no other event is due first (avoids heap churn for
   single-threaded phases). *)
and boundary t th cpu =
  let at = t.chunk_at in
  if nothing_due_before t.events at.(at_after) then begin
    count_event t;
    at.(at_start) <- at.(at_after);
    go t th cpu
  end
  else park t th
and fire t th cpu =
  (* The tightest armed timer has expired: abandon the current operation
     at this chunk boundary and unwind the thread with
     {!Api.Deadline_exceeded}. Scopes armed after the firing timer can
     no longer pop themselves (the unwind bypasses their pop), so they
     are disarmed here as well; outer scopes stay armed. *)
  let fired = th.deadline in
  let rec split = function
    | [] -> assert false
    | (id, u) :: rest -> if u <= fired then (id, rest) else split rest
  in
  let id, rest = split th.deadlines in
  th.deadlines <- rest;
  th.deadline <- List.fold_left (fun a (_, u) -> Float.min a u) infinity rest;
  th.pending <- P_none;
  match th.kont with
  | Finished -> assert false
  | Blocked k -> (
      (* Unwinding may itself perform operations (with_lock releases its
         lock on the way out); they surface here as a fresh blocked op
         and run at the chunk's start — at or after the deadline instant,
         never before. *)
      th.kont <- Effect.Deep.discontinue k (Api.Deadline_exceeded id);
      match th.kont with
      | Finished -> finish_thread t th
      | Blocked _ ->
          begin_pending th t.op;
          let at = t.chunk_at in
          if nothing_due_before t.events at.(at_start) then begin
            count_event t;
            go t th cpu
          end
          else begin
            at.(at_after) <- at.(at_start);
            schedule t th
          end)

(* Process one scheduling turn for [th], whose queue entry was due at
   [chunk_at.(at_start)]: one chunk; on op completion, resume the thread
   body (possibly through several ops) while no other event is due
   earlier. *)
let turn t th =
  let cpu = pick_cpu t th in
  let start = fmax t.chunk_at.(at_start) t.clock.(cpu) in
  t.chunk_at.(at_start) <- start;
  (* The virtual clock is monotone: a turn that starts on a CPU whose
     local clock lags another CPU's must not drag [vnow] (and with it
     every observability timestamp) backwards. *)
  t.vnow.(0) <- fmax t.vnow.(0) start;
  (match t.turn_hook with None -> () | Some hook -> hook ~now:t.vnow.(0));
  if Numa_obs.Hub.enabled t.obs then
    Numa_obs.Hub.emit t.obs
      (Numa_obs.Event.Dispatch { tid = th.tid; cpu; name = th.name });
  go t th cpu

let run t =
  if t.running || t.completed then invalid_arg "Engine.run: already running";
  t.running <- true;
  t.thread_by_tid <-
    Array.init t.next_tid (fun tid -> Hashtbl.find t.threads tid);
  let rec loop () =
    let q = t.events in
    if q.size = 0 then begin
      if t.live > 0 then
        raise
          (Deadlock
             (Printf.sprintf "%d thread(s) blocked with no runnable events" t.live))
    end
    else begin
      (* The entry's time is the thread's ready time. *)
      t.chunk_at.(at_start) <- q.time.(0);
      let tid = Event_queue.pop_min q in
      count_event t;
      let th = t.thread_by_tid.(tid) in
      if not th.finished then turn t th;
      loop ()
    end
  in
  let wall_start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      t.run_wall_s <- t.run_wall_s +. (Unix.gettimeofday () -. wall_start))
    loop;
  t.running <- false;
  t.completed <- true

let now t = t.vnow.(0)
let clock_ns t ~cpu = t.clock.(cpu)
let run_wall_s t = t.run_wall_s

let events_per_sec t =
  if t.run_wall_s > 0. then float_of_int t.n_events /. t.run_wall_s else 0.

let user_ns t ~cpu = t.user.(cpu)
let system_ns t ~cpu = t.system.(cpu)
let total_user_ns t = Array.fold_left ( +. ) 0. t.user
let total_system_ns t = Array.fold_left ( +. ) 0. t.system
let elapsed_ns t = Array.fold_left Float.max 0. t.clock
let n_events t = t.n_events
let n_threads t = Hashtbl.length t.threads
let thread_cpu t ~tid =
  if tid >= 0 && tid < Array.length t.thread_by_tid then t.thread_by_tid.(tid).cpu
  else
    match Hashtbl.find_opt t.threads tid with
    | Some th -> th.cpu
    | None -> invalid_arg (Printf.sprintf "Engine.thread_cpu: unknown tid %d" tid)

let rehome t ~tid ~cpu =
  if cpu < 0 || cpu >= t.config.n_cpus then invalid_arg "Engine.rehome: bad cpu";
  match Hashtbl.find_opt t.threads tid with
  | None -> false
  | Some th ->
      if th.finished || th.cpu = cpu then false
      else begin
        (* th.cpu is only read at the start of a scheduling turn
           (pick_cpu), so flipping it between chunks is a clean
           reschedule: the thread's next chunk runs on the target. The
           dispatch costs the same 50 us of system time as a
           self-migration (P_migrate), charged to the target CPU. *)
        th.cpu <- cpu;
        (match t.profile with
        | Some p -> Numa_obs.Profile.charge_dispatch p ~cpu 50_000.
        | None -> ());
        t.system.(cpu) <- t.system.(cpu) +. 50_000.;
        t.clock.(cpu) <- t.clock.(cpu) +. 50_000.;
        true
      end
