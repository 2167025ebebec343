(* Unit tests for the discrete-event engine, over the flat (UMA) reference
   memory so costs are exactly predictable. *)

open Numa_machine
module Engine = Numa_sim.Engine
module Api = Numa_sim.Api
module Memory_iface = Numa_sim.Memory_iface

let config ?(n_cpus = 4) () = Config.ace ~n_cpus ()

let make ?(n_cpus = 4) ?(engine_tweak = Fun.id) ?(scheduler = Engine.Affinity) () =
  let machine = config ~n_cpus () in
  let memory = Memory_iface.flat machine in
  Engine.create (engine_tweak (Engine.default_config ~n_cpus)) ~memory ~scheduler

let test_compute_accounting () =
  let e = make () in
  ignore (Engine.spawn e ~cpu:1 ~name:"t" (fun () -> Api.compute 5e6));
  Engine.run e;
  Alcotest.(check (float 1.)) "5 ms of user time on cpu 1" 5e6 (Engine.user_ns e ~cpu:1);
  Alcotest.(check (float 0.)) "nothing on cpu 0" 0. (Engine.user_ns e ~cpu:0);
  Alcotest.(check (float 1.)) "elapsed = the compute" 5e6 (Engine.elapsed_ns e)

let test_reference_accounting () =
  let e = make () in
  ignore
    (Engine.spawn e ~cpu:0 ~name:"t" (fun () ->
         Api.read ~count:100 7;
         Api.write ~count:50 7));
  Engine.run e;
  (* flat memory: local speeds. *)
  Alcotest.(check (float 1.)) "user = 100 fetches + 50 stores"
    ((100. *. 650.) +. (50. *. 840.))
    (Engine.user_ns e ~cpu:0)

let test_parallel_clocks_independent () =
  let e = make () in
  ignore (Engine.spawn e ~cpu:0 ~name:"a" (fun () -> Api.compute 10e6));
  ignore (Engine.spawn e ~cpu:1 ~name:"b" (fun () -> Api.compute 4e6));
  Engine.run e;
  Alcotest.(check (float 1.)) "total user is sum" 14e6 (Engine.total_user_ns e);
  Alcotest.(check (float 1.)) "elapsed is max" 10e6 (Engine.elapsed_ns e)

let test_two_threads_share_a_cpu () =
  let e = make () in
  ignore (Engine.spawn e ~cpu:2 ~name:"a" (fun () -> Api.compute 10e6));
  ignore (Engine.spawn e ~cpu:2 ~name:"b" (fun () -> Api.compute 10e6));
  Engine.run e;
  (* Serialised on one clock: elapsed = 20 ms, user = 20 ms on cpu 2. *)
  Alcotest.(check (float 1.)) "user" 20e6 (Engine.user_ns e ~cpu:2);
  Alcotest.(check (float 1.)) "elapsed serialised" 20e6 (Engine.elapsed_ns e)

let test_read_value_roundtrip () =
  let e = make () in
  let seen = ref (-1) in
  ignore
    (Engine.spawn e ~cpu:0 ~name:"t" (fun () ->
         Api.write ~value:33 4;
         seen := Api.read_value 4));
  Engine.run e;
  Alcotest.(check int) "read back" 33 !seen

let test_lock_mutual_exclusion () =
  let e = make () in
  let lock = Engine.make_lock e ~vpage:0 in
  let in_section = ref 0 and max_seen = ref 0 and entries = ref 0 in
  for cpu = 0 to 3 do
    ignore
      (Engine.spawn e ~cpu ~name:(Printf.sprintf "t%d" cpu) (fun () ->
           for _ = 1 to 10 do
             Api.lock lock;
             incr in_section;
             incr entries;
             if !in_section > !max_seen then max_seen := !in_section;
             Api.compute 100_000.;
             decr in_section;
             Api.unlock lock
           done))
  done;
  Engine.run e;
  Alcotest.(check int) "never two holders" 1 !max_seen;
  Alcotest.(check int) "all entries" 40 !entries;
  Alcotest.(check int) "acquisitions counted" 40 lock.Numa_sim.Sync.acquisitions

let test_unlock_by_non_holder_fails () =
  let e = make () in
  let lock = Engine.make_lock e ~vpage:0 in
  ignore (Engine.spawn e ~cpu:0 ~name:"holder" (fun () ->
      Api.lock lock;
      Api.compute 1e6));
  ignore (Engine.spawn e ~cpu:1 ~name:"thief" (fun () -> Api.unlock lock));
  Alcotest.check_raises "raises"
    (Engine.Thread_error
       { tid = 1; name = "thief"; error = Engine.Unlock_not_held { lock_id = 0 } })
    (fun () -> Engine.run e)

let test_barrier_synchronises () =
  let e = make () in
  let barrier = Engine.make_barrier e ~vpage:0 ~parties:3 in
  let order = ref [] in
  for i = 0 to 2 do
    ignore
      (Engine.spawn e ~cpu:i ~name:(Printf.sprintf "t%d" i) (fun () ->
           (* Unequal pre-barrier work. *)
           Api.compute (float_of_int (i + 1) *. 1e6);
           order := (`Before i) :: !order;
           Api.barrier barrier;
           order := (`After i) :: !order))
  done;
  Engine.run e;
  let events = List.rev !order in
  let all_befores_first =
    let rec split = function
      | `Before _ :: rest -> split rest
      | rest -> List.for_all (function `After _ -> true | `Before _ -> false) rest
    in
    split events
  in
  Alcotest.(check bool) "no thread passes early" true all_befores_first;
  Alcotest.(check int) "barrier cycled once" 1 barrier.Numa_sim.Sync.generation

let test_barrier_reusable () =
  let e = make () in
  let barrier = Engine.make_barrier e ~vpage:0 ~parties:2 in
  let rounds = ref 0 in
  for i = 0 to 1 do
    ignore
      (Engine.spawn e ~cpu:i ~name:(Printf.sprintf "t%d" i) (fun () ->
           for _ = 1 to 5 do
             Api.compute 1e5;
             Api.barrier barrier;
             if i = 0 then incr rounds
           done))
  done;
  Engine.run e;
  Alcotest.(check int) "five rounds" 5 !rounds;
  Alcotest.(check int) "five generations" 5 barrier.Numa_sim.Sync.generation

let test_spin_wait_burns_user_time () =
  let e = make () in
  let lock = Engine.make_lock e ~vpage:0 in
  ignore
    (Engine.spawn e ~cpu:0 ~name:"holder" (fun () ->
         Api.lock lock;
         Api.compute 5e6;
         Api.unlock lock));
  ignore
    (Engine.spawn e ~cpu:1 ~name:"waiter" (fun () ->
         Api.compute 1e5 (* let the holder get there first *);
         Api.lock lock;
         Api.unlock lock));
  Engine.run e;
  (* The waiter spun for ~4.9 ms of user time on its own CPU. *)
  Alcotest.(check bool) "waiter burned user time spinning" true
    (Engine.user_ns e ~cpu:1 > 3e6);
  Alcotest.(check bool) "polls were counted" true (lock.Numa_sim.Sync.contended_polls > 100)

let test_syscall_plain () =
  let e = make () in
  ignore
    (Engine.spawn e ~cpu:2 ~name:"t" (fun () ->
         Api.syscall ~service_ns:2e6 ();
         Api.compute 1e6));
  Engine.run e;
  Alcotest.(check (float 1.)) "service is system time" 2e6 (Engine.system_ns e ~cpu:2);
  Alcotest.(check (float 1.)) "user unaffected by the call" 1e6 (Engine.user_ns e ~cpu:2)

let test_syscall_unix_master_serialises () =
  let e =
    make
      ~engine_tweak:(fun c -> { c with Engine.unix_master = true })
      ()
  in
  for cpu = 1 to 3 do
    ignore
      (Engine.spawn e ~cpu ~name:(Printf.sprintf "t%d" cpu) (fun () ->
           Api.syscall ~service_ns:3e6 ()))
  done;
  Engine.run e;
  (* All service time lands on cpu 0 and the calls serialise there. *)
  Alcotest.(check (float 1.)) "master does all the work" 9e6 (Engine.system_ns e ~cpu:0);
  Alcotest.(check (float 1.)) "callers accrue nothing" 0.
    (Engine.system_ns e ~cpu:1 +. Engine.user_ns e ~cpu:1);
  Alcotest.(check bool) "master clock reflects the queue" true
    (Engine.elapsed_ns e >= 9e6)

(* Chunks that make two accesses (test-and-set, barrier arrival, a
   syscall's stack touch) must charge both. The memory hands each
   access's cost back in one scratch record that the next access
   overwrites, so a chunk that read it only once would charge the store
   twice; flat memory prices a fetch (650 ns) and a store (840 ns)
   differently, which makes that visible in the exact totals. *)
let test_two_access_chunks_charge_both () =
  let e = make () in
  let lock = Engine.make_lock e ~vpage:3 in
  let barrier = Engine.make_barrier e ~vpage:5 ~parties:1 in
  ignore
    (Engine.spawn e ~cpu:0 ~name:"locker" (fun () ->
         Api.lock lock;
         Api.unlock lock));
  ignore (Engine.spawn e ~cpu:1 ~name:"arriver" (fun () -> Api.barrier barrier));
  ignore
    (Engine.spawn e ~cpu:2 ~stack_vpage:9 ~name:"caller" (fun () ->
         Api.syscall ~touch_stack:true ~service_ns:1e6 ()));
  Engine.run e;
  let fetch = 650. and store = 840. in
  Alcotest.(check (float 1e-6)) "acquire (fetch + store) + release (store)"
    (fetch +. store +. store) (Engine.user_ns e ~cpu:0);
  Alcotest.(check (float 1e-6)) "lock chunks charge no system time" 0.
    (Engine.system_ns e ~cpu:0);
  Alcotest.(check (float 1e-6)) "barrier arrival (fetch + store)" (fetch +. store)
    (Engine.user_ns e ~cpu:1);
  Alcotest.(check (float 1e-6)) "barrier charges no system time" 0.
    (Engine.system_ns e ~cpu:1);
  Alcotest.(check (float 1e-6)) "syscall: service + 4 stack fetches + 4 stack stores"
    (1e6 +. (4. *. fetch) +. (4. *. store))
    (Engine.system_ns e ~cpu:2);
  Alcotest.(check (float 1e-6)) "the caller accrues no user time" 0.
    (Engine.user_ns e ~cpu:2)

let test_single_queue_migrates () =
  let e = make ~scheduler:Engine.Single_queue () in
  (* More threads than CPUs; under a single queue they spread onto idle
     CPUs rather than stacking on their spawn CPU. *)
  let tids = ref [] in
  for i = 0 to 5 do
    tids :=
      Engine.spawn e ~cpu:0 ~name:(Printf.sprintf "t%d" i) (fun () ->
          for _ = 1 to 10 do
            Api.compute 1e6
          done)
      :: !tids
  done;
  Engine.run e;
  let cpus_used =
    List.sort_uniq compare (List.map (fun tid -> Engine.thread_cpu e ~tid) !tids)
  in
  Alcotest.(check bool) "threads spread over CPUs" true (List.length cpus_used > 1);
  (* Work conservation: total user time is exactly the computation. *)
  Alcotest.(check (float 10.)) "total user conserved" 60e6 (Engine.total_user_ns e)

let test_deadlock_detection () =
  (* A barrier that can never fill: the lone waiter spins forever; the
     event budget must stop the run. *)
  let e = make ~engine_tweak:(fun c -> { c with Engine.max_events = 10_000 }) () in
  let barrier = Engine.make_barrier e ~vpage:1 ~parties:2 in
  ignore (Engine.spawn e ~cpu:0 ~name:"lonely" (fun () -> Api.barrier barrier));
  Alcotest.check_raises "event budget catches the livelock"
    (Engine.Event_budget_exceeded 10_000) (fun () -> Engine.run e)

let test_migrate_rebinds_thread () =
  let e = make () in
  let tid =
    Engine.spawn e ~cpu:0 ~name:"hopper" (fun () ->
        Api.compute 1e6;
        Api.migrate ~cpu:3;
        Api.compute 2e6)
  in
  Engine.run e;
  Alcotest.(check int) "ends on target cpu" 3 (Engine.thread_cpu e ~tid);
  Alcotest.(check (float 1.)) "pre-hop work on cpu 0" 1e6 (Engine.user_ns e ~cpu:0);
  Alcotest.(check (float 1.)) "post-hop work on cpu 3" 2e6 (Engine.user_ns e ~cpu:3);
  Alcotest.(check bool) "reschedule charged as system time" true
    (Engine.system_ns e ~cpu:3 > 0.)

(* [thread_cpu] answers from the tid table before [run] and from the flat
   index during and after it; both must report the CPU the thread really
   runs on (its compute lands there), and an unknown tid is a typed error. *)
let test_thread_cpu_lookup () =
  let e = make () in
  let unknown tid =
    Alcotest.check_raises
      (Printf.sprintf "unknown tid %d" tid)
      (Invalid_argument (Printf.sprintf "Engine.thread_cpu: unknown tid %d" tid))
      (fun () -> ignore (Engine.thread_cpu e ~tid))
  in
  let b_tid = ref (-1) in
  let seen = ref [] in
  let note () = seen := Engine.thread_cpu e ~tid:!b_tid :: !seen in
  let b =
    Engine.spawn e ~cpu:1 ~name:"b" (fun () ->
        Api.compute 1e6;
        note ();
        Api.migrate ~cpu:3;
        Api.compute 1e6;
        note ();
        Api.sleep_until ~ns:10e6;
        Api.compute 1e6;
        note ())
  in
  b_tid := b;
  ignore
    (Engine.spawn e ~cpu:0 ~name:"a" (fun () ->
         Api.compute 5e6;
         unknown 99;
         Alcotest.(check bool) "rehomed" true (Engine.rehome e ~tid:b ~cpu:2)));
  Alcotest.(check int) "before run" 1 (Engine.thread_cpu e ~tid:b);
  unknown 2;
  unknown (-1);
  Engine.run e;
  Alcotest.(check (list int)) "inside the body: spawn cpu, migrated, rehomed" [ 1; 3; 2 ]
    (List.rev !seen);
  Alcotest.(check (float 1.)) "post-rehome compute ran on cpu 2" 1e6 (Engine.user_ns e ~cpu:2);
  Alcotest.(check int) "after run" 2 (Engine.thread_cpu e ~tid:b);
  unknown 2

let test_migrate_bad_cpu_fails () =
  let e = make () in
  ignore (Engine.spawn e ~cpu:0 ~name:"bad" (fun () -> Api.migrate ~cpu:99));
  Alcotest.check_raises "rejected"
    (Engine.Thread_error { tid = 0; name = "bad"; error = Engine.No_such_cpu { cpu = 99 } })
    (fun () -> Engine.run e)

(* [Api.with_deadline] always pairs its pop with a push; a bare pop is a
   thread error, and the registered printer names the thread. *)
let test_deadline_pop_unpushed_fails () =
  let e = make () in
  ignore (Engine.spawn e ~cpu:2 ~name:"popper" (fun () ->
      Api.compute 1e3;
      ignore (Effect.perform (Api.Sim_op Numa_sim.Op.Deadline_pop))));
  match Engine.run e with
  | () -> Alcotest.fail "a pop without a push ran to completion"
  | exception (Engine.Thread_error { tid; name; error } as exn) ->
      Alcotest.(check (pair int string)) "thread" (0, "popper") (tid, name);
      Alcotest.(check bool) "cause" true (error = Engine.Deadline_not_pushed);
      Alcotest.(check string) "printer"
        "Engine.Thread_error: thread 0 (popper) popped a deadline it never pushed"
        (Printexc.to_string exn)

let test_determinism () =
  let run () =
    let e = make () in
    let lock = Engine.make_lock e ~vpage:0 in
    for cpu = 0 to 3 do
      ignore
        (Engine.spawn e ~cpu ~name:(Printf.sprintf "t%d" cpu) (fun () ->
             for _ = 1 to 20 do
               Api.with_lock lock (fun () -> Api.write ~count:3 5);
               Api.compute 1e5;
               Api.read ~count:10 6
             done))
    done;
    Engine.run e;
    (Engine.total_user_ns e, Engine.total_system_ns e, Engine.n_events e)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical reruns" true (a = b)

let test_spawn_after_run_rejected () =
  let e = make () in
  ignore (Engine.spawn e ~name:"t" (fun () -> Api.compute 1e3));
  Engine.run e;
  Alcotest.check_raises "late spawn" (Invalid_argument "Engine.spawn: engine already running")
    (fun () -> ignore (Engine.spawn e ~name:"late" (fun () -> ())))

let test_empty_run () =
  let e = make () in
  Engine.run e;
  Alcotest.(check (float 0.)) "no time passes" 0. (Engine.elapsed_ns e)

(* A deadline fires in the middle of a span, and the unwind performs
   another span and a sleep. Both reuse the thread's op state, which the
   abandoned span and an earlier sleep left filled in, so a field the
   engine forgot to refill would show here. A page of 64 fetches takes
   41.6 us: the deadline at 100 us fires at the fourth page boundary,
   after 3 of span A's 50 pages, then span B's 10 pages run in full. *)
let test_deadline_unwind_reuses_op_state () =
  let e = make () in
  let span pages =
    Api.span Access.Load ~base_vpage:0 ~words_per_page:64 ~lo:0 ~n:(pages * 64) ~stride:1
  in
  let outcome = ref (Some ()) in
  ignore
    (Engine.spawn e ~cpu:0 ~name:"unwinder" (fun () ->
         Api.sleep_until ~ns:1.;
         outcome :=
           Api.with_deadline ~until_ns:100_000. (fun () ->
               Fun.protect
                 ~finally:(fun () ->
                   span 10;
                   Api.sleep_until ~ns:5e6;
                   Api.compute 1e3)
                 (fun () -> span 50))));
  Engine.run e;
  Alcotest.(check bool) "the deadline fired" true (!outcome = None);
  Alcotest.(check (float 1e-6)) "user: 3 pages of A, 10 of B, the compute"
    ((float_of_int ((3 + 10) * 64) *. 650.) +. 1e3)
    (Engine.user_ns e ~cpu:0);
  Alcotest.(check (float 1e-6)) "elapsed: the second sleep, then the compute" 5_001_000.
    (Engine.elapsed_ns e)

(* --- allocation gates ------------------------------------------------------ *)

(* Minor words [Engine.run] allocates per event, over the flat memory.
   Its loads of never-written pages allocate nothing but the 2-word float
   [Cost.references_ns] returns across modules, so the figure is the
   engine's hand-off, the thread side of [Api] (an [Op.t] and its
   [Sim_op]), the runtime's continuation and those 2 words per access.
   The gates below failed before the engine had one handler, reused
   per-thread op state and its chunk clock in scratch; each comment gives
   the figure before and after that change. *)
let words_per_event e =
  let before = Gc.minor_words () in
  Engine.run e;
  (Gc.minor_words () -. before) /. float_of_int (Engine.n_events e)

let gate name ~bound e =
  let w = words_per_event e in
  if w > bound then Alcotest.failf "%s: %.2f words per event (gate: %g)" name w bound

let span_50 () =
  Api.span Access.Load ~base_vpage:0 ~words_per_page:64 ~lo:0 ~n:(50 * 64) ~stride:1

(* One thread doing single-reference [Read] ops: each is one event, run
   inline after the last. 28.0 words per event before, 12.0 after. *)
let test_read_op_allocation () =
  let e = make ~n_cpus:1 () in
  ignore
    (Engine.spawn e ~cpu:0 ~name:"reader" (fun () ->
         for _ = 1 to 20_000 do
           Api.read 7
         done));
  gate "inline Read ops" ~bound:14. e

(* One thread doing 50-page spans: 49 of every 50 events are page
   boundaries handled inside the engine. 4.68 words per event before,
   2.30 after (2 of them the flat memory's). *)
let test_span_boundary_allocation () =
  let e = make ~n_cpus:1 () in
  ignore
    (Engine.spawn e ~cpu:0 ~name:"walker" (fun () ->
         for _ = 1 to 400 do
           span_50 ()
         done));
  gate "span page boundaries" ~bound:3. e

(* Seven threads on seven CPUs walking in lockstep: at every page boundary
   another thread is due first, so each boundary parks its thread and the
   next batch is a fresh turn. 6.38 words per event before, 4.01 after:
   the flat memory's 2, and the float [Event_queue.add] boxes. *)
let test_parked_turn_allocation () =
  let e = make ~n_cpus:7 () in
  for cpu = 0 to 6 do
    ignore
      (Engine.spawn e ~cpu ~name:(Printf.sprintf "w%d" cpu) (fun () ->
           for _ = 1 to 60 do
             span_50 ()
           done))
  done;
  gate "parked span turns" ~bound:5. e

(* --- event queue ---------------------------------------------------------- *)

(* Direct tests of the engine's ready queue (the structure that replaced
   the generic Numa_util pairing heap on the hot path). *)

module Event_queue = Numa_sim.Event_queue

let test_event_queue_basic () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check (float 0.)) "min_time of empty is infinity" infinity
    (Event_queue.min_time q);
  Alcotest.(check int) "pop of empty is -1" (-1) (Event_queue.pop_min q);
  Event_queue.add q ~time:3. ~seq:0 ~tid:30;
  Event_queue.add q ~time:1. ~seq:1 ~tid:10;
  Event_queue.add q ~time:2. ~seq:2 ~tid:20;
  Alcotest.(check int) "length" 3 (Event_queue.length q);
  Alcotest.(check (float 0.)) "min time" 1. (Event_queue.min_time q);
  Alcotest.(check int) "pop 1" 10 (Event_queue.pop_min q);
  Alcotest.(check int) "pop 2" 20 (Event_queue.pop_min q);
  Alcotest.(check int) "pop 3" 30 (Event_queue.pop_min q);
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q)

let test_event_queue_fifo_ties () =
  (* Equal times must pop in insertion (sequence) order — the property the
     engine's deterministic scheduling relies on. *)
  let q = Event_queue.create () in
  Event_queue.add q ~time:5. ~seq:0 ~tid:1;
  Event_queue.add q ~time:5. ~seq:1 ~tid:2;
  Event_queue.add q ~time:5. ~seq:2 ~tid:3;
  Alcotest.(check (list int)) "fifo on ties" [ 1; 2; 3 ]
    (List.init 3 (fun _ -> Event_queue.pop_min q))

let test_event_queue_clear () =
  let q = Event_queue.create () in
  for i = 1 to 10 do
    Event_queue.add q ~time:(float_of_int i) ~seq:i ~tid:i
  done;
  Event_queue.clear q;
  Alcotest.(check bool) "cleared" true (Event_queue.is_empty q);
  Alcotest.(check int) "length 0" 0 (Event_queue.length q)

let test_event_queue_grows () =
  (* Push past the initial capacity (64) and check nothing is lost. *)
  let q = Event_queue.create () in
  for i = 0 to 199 do
    Event_queue.add q ~time:(float_of_int (199 - i)) ~seq:i ~tid:(199 - i)
  done;
  Alcotest.(check int) "all queued" 200 (Event_queue.length q);
  for expect = 0 to 199 do
    Alcotest.(check int) "sorted drain" expect (Event_queue.pop_min q)
  done

let prop_event_queue_sorts =
  QCheck.Test.make ~name:"event queue drains in (time, seq) order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.) small_int))
    (fun entries ->
      let q = Event_queue.create () in
      List.iteri
        (fun seq (time, tid) -> Event_queue.add q ~time ~seq ~tid)
        entries;
      let rec drain acc =
        if Event_queue.is_empty q then List.rev acc
        else
          let time = Event_queue.min_time q in
          drain ((time, Event_queue.pop_min q) :: acc)
      in
      let expect =
        List.mapi (fun seq (time, tid) -> (time, seq, tid)) entries
        |> List.stable_sort (fun (t1, s1, _) (t2, s2, _) ->
               match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c)
        |> List.map (fun (time, _, tid) -> (time, tid))
      in
      drain [] = expect)

(* The per-page batch count is computed from the page end; the reference
   walks every element and groups consecutive ones on the same page. *)
let prop_stride_batches_walk =
  QCheck.Test.make ~name:"stride batches match the element walk" ~count:500
    QCheck.(
      make
        ~print:Print.(pair (pair int int) (triple int int int))
        Gen.(
          int_range 1 64 >>= fun words_per_page ->
          int_range 1 2_000 >>= fun words ->
          int_range 0 (words - 1) >>= fun lo ->
          int_range 1 (words + 1) >>= fun stride ->
          int_range 0 ((words - 1 - lo) / stride + 1) >>= fun n ->
          return ((words, words_per_page), (lo, n, stride))))
    (fun ((_, words_per_page), (lo, n, stride)) ->
      let got = ref [] in
      Numa_sim.Op.stride_batches ~words_per_page ~lo ~n ~stride (fun p c ->
          got := (p, c) :: !got);
      let want =
        List.fold_left
          (fun acc k ->
            let page = (lo + (k * stride)) / words_per_page in
            match acc with
            | (p, c) :: rest when p = page -> (p, c + 1) :: rest
            | _ -> (page, 1) :: acc)
          [] (List.init n Fun.id)
      in
      !got = want)

let suite =
  [
    Alcotest.test_case "compute accounting" `Quick test_compute_accounting;
    Alcotest.test_case "reference accounting" `Quick test_reference_accounting;
    Alcotest.test_case "parallel clocks" `Quick test_parallel_clocks_independent;
    Alcotest.test_case "threads share a cpu" `Quick test_two_threads_share_a_cpu;
    Alcotest.test_case "read value round trip" `Quick test_read_value_roundtrip;
    Alcotest.test_case "lock mutual exclusion" `Quick test_lock_mutual_exclusion;
    Alcotest.test_case "unlock by non-holder" `Quick test_unlock_by_non_holder_fails;
    Alcotest.test_case "barrier synchronises" `Quick test_barrier_synchronises;
    Alcotest.test_case "barrier reusable" `Quick test_barrier_reusable;
    Alcotest.test_case "spin burns user time" `Quick test_spin_wait_burns_user_time;
    Alcotest.test_case "syscall plain" `Quick test_syscall_plain;
    Alcotest.test_case "syscall unix master" `Quick test_syscall_unix_master_serialises;
    Alcotest.test_case "two-access chunks charge both" `Quick
      test_two_access_chunks_charge_both;
    Alcotest.test_case "single queue migrates" `Quick test_single_queue_migrates;
    Alcotest.test_case "stuck barrier detected" `Quick test_deadlock_detection;
    Alcotest.test_case "migrate rebinds thread" `Quick test_migrate_rebinds_thread;
    Alcotest.test_case "migrate to bad cpu fails" `Quick test_migrate_bad_cpu_fails;
    Alcotest.test_case "deadline pop without push fails" `Quick
      test_deadline_pop_unpushed_fails;
    Alcotest.test_case "thread_cpu lookup and unknown tid" `Quick test_thread_cpu_lookup;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "spawn after run rejected" `Quick test_spawn_after_run_rejected;
    Alcotest.test_case "empty run" `Quick test_empty_run;
    Alcotest.test_case "deadline unwind reuses op state" `Quick
      test_deadline_unwind_reuses_op_state;
    Alcotest.test_case "inline Read op allocation gate" `Quick test_read_op_allocation;
    Alcotest.test_case "span boundary allocation gate" `Quick test_span_boundary_allocation;
    Alcotest.test_case "parked turn allocation gate" `Quick test_parked_turn_allocation;
    Alcotest.test_case "event queue basic" `Quick test_event_queue_basic;
    Alcotest.test_case "event queue FIFO ties" `Quick test_event_queue_fifo_ties;
    Alcotest.test_case "event queue clear" `Quick test_event_queue_clear;
    Alcotest.test_case "event queue grows" `Quick test_event_queue_grows;
    QCheck_alcotest.to_alcotest prop_event_queue_sorts;
    QCheck_alcotest.to_alcotest prop_stride_batches_walk;
  ]
