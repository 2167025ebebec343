(* The traced pass: boundary hooks around [System.run], the streams they
   see, and replay micro-timings of single entry points fed with those
   streams. *)

module System = Numa_system.System
module Event = Numa_obs.Event

(* Event kinds counted by name; everything else is [other_kind]. *)
let kind_names =
  [|
    "refs"; "dispatch"; "fault_resolved"; "policy_decision"; "page_move"; "page_pin";
    "replica_create"; "replica_flush"; "sync_to_global"; "zero_fill"; "tlb_shootdown";
    "bus_queued"; "lock"; "syscall"; "pt_walk"; "pt_shootdown"; "pt_replica";
    "request_arrived"; "request_served"; "request_timeout"; "request_retry";
    "request_shed"; "breaker_transition"; "other";
  |]

let other_kind = Array.length kind_names - 1

(* Which layer owns the code that ends at an event, and the event's kind.
   Fault, policy and page events are core; page tables, TLB and bus are
   machine; requests and breakers are apps; dispatch is pure hub cost. *)
let classify : Event.t -> int * int = function
  | Event.Refs _ -> (Tracer.system, 0)
  | Event.Dispatch _ -> (Tracer.obs, 1)
  | Event.Fault_resolved _ -> (Tracer.core, 2)
  | Event.Policy_decision _ -> (Tracer.core, 3)
  | Event.Page_move _ -> (Tracer.core, 4)
  | Event.Page_pin _ | Event.Page_unpin _ -> (Tracer.core, 5)
  | Event.Replica_create _ -> (Tracer.core, 6)
  | Event.Replica_flush _ -> (Tracer.core, 7)
  | Event.Sync_to_global _ -> (Tracer.core, 8)
  | Event.Zero_fill _ -> (Tracer.core, 9)
  | Event.Local_fallback _ | Event.Page_freed _ | Event.Reconsider_scan _
  | Event.Invariant_checked _ ->
      (Tracer.core, other_kind)
  | Event.Tlb_shootdown _ -> (Tracer.machine, 10)
  | Event.Bus_queued _ -> (Tracer.machine, 11)
  | Event.Lock_acquired _ | Event.Lock_contended _ | Event.Lock_released _ ->
      (Tracer.sim, 12)
  | Event.Syscall _ -> (Tracer.sim, 13)
  | Event.Pt_walk _ -> (Tracer.pt, 14)
  | Event.Pt_shootdown _ -> (Tracer.pt, 15)
  | Event.Pt_replica_create _ | Event.Pt_replica_drop _ -> (Tracer.pt, 16)
  | Event.Request_arrived _ -> (Tracer.apps, 17)
  | Event.Request_served _ -> (Tracer.apps, 18)
  | Event.Request_timeout _ -> (Tracer.apps, 19)
  | Event.Request_retry _ | Event.Request_hedged _ -> (Tracer.apps, 20)
  | Event.Request_shed _ -> (Tracer.apps, 21)
  | Event.Breaker_transition _ | Event.Shard_failover _ -> (Tracer.apps, 22)
  | _ -> (Tracer.other, other_kind)

(* Bounded per-op captures of what the hooks saw. *)
type capture = {
  access : int array;  (** [(cpu lsl 40) lor vpage] per reference batch *)
  mutable n_access : int;
  turns : float array;  (** virtual time of each scheduling turn *)
  mutable n_turns : int;
  events : Event.t array;
  mutable n_events : int;
  n_cpus : int;
}

type t = {
  tracer : Tracer.t;
  kinds : int array;  (** events seen, by [kind_names] index *)
  mutable batches : int;
  mutable captures : capture list;  (** newest first *)
  per_op : int;  (** capture capacity per op and stream *)
}

let create ~ops =
  {
    tracer = Tracer.create ();
    kinds = Array.make (Array.length kind_names) 0;
    batches = 0;
    captures = [];
    per_op = max 1024 ((1 lsl 20) / max 1 ops);
  }

(* [around_run] for {!Workload.run_op}: install the three hooks, run. The
   engine's turn hook is single-slot; the system takes it only when a
   fault plan is armed, which no workload does. *)
let around_run p sys run =
  let n_cpus = (System.config sys).Numa_machine.Config.n_cpus in
  let cap = p.per_op in
  let c =
    {
      access = Array.make cap 0;
      n_access = 0;
      turns = Array.make cap 0.;
      n_turns = 0;
      events = Array.make (cap / 4) (Event.Page_unpin { lpage = 0 });
      n_events = 0;
      n_cpus;
    }
  in
  p.captures <- c :: p.captures;
  let tr = p.tracer in
  Numa_sim.Engine.set_turn_hook (System.engine sys) (fun ~now ->
      Tracer.mark tr Tracer.sim;
      if c.n_turns < cap then begin
        c.turns.(c.n_turns) <- now;
        c.n_turns <- c.n_turns + 1
      end);
  System.set_access_hook sys
    (Some
       (fun (ev : System.access_event) ->
         Tracer.mark tr Tracer.system;
         p.batches <- p.batches + 1;
         if c.n_access < cap then begin
           c.access.(c.n_access) <- (ev.System.cpu lsl 40) lor ev.System.vpage;
           c.n_access <- c.n_access + 1
         end));
  Numa_obs.Hub.attach (System.obs sys) ~name:"perfbench" (fun ~ts:_ ev ->
      let layer, kind = classify ev in
      Tracer.mark tr layer;
      p.kinds.(kind) <- p.kinds.(kind) + 1;
      if c.n_events < Array.length c.events then begin
        c.events.(c.n_events) <- ev;
        c.n_events <- c.n_events + 1
      end);
  let started = Tracer.start_run tr in
  let report = run () in
  Tracer.finish_run tr ~started;
  report

let kind_count p name =
  let rec find i = if kind_names.(i) = name then p.kinds.(i) else find (i + 1) in
  find 0

let total_events p = Array.fold_left ( + ) 0 p.kinds

(* --- replay micro-timings ---------------------------------------------- *)

(* Median over [reps] timed passes of [f], in ns per item; 0 when there is
   nothing to replay. *)
let ns_per ~items ?(reps = 5) f =
  if items = 0 then 0.
  else begin
    let times =
      Array.init reps (fun _ ->
          let t0 = Tracer.now () in
          f ();
          float_of_int (Tracer.now () - t0) /. float_of_int items)
    in
    Array.sort compare times;
    times.(reps / 2)
  end

let captures p = List.rev p.captures
let sum f p = List.fold_left (fun a c -> a + f c) 0 (captures p)

(* Tlb.lookup, plus Tlb.insert on a miss, over each op's (cpu, vpage)
   stream, one direct-mapped TLB per CPU as the MMU keeps them. *)
let tlb_lookup_ns p =
  ns_per ~items:(sum (fun c -> c.n_access) p) (fun () ->
      List.iter
        (fun c ->
          let tlbs = Array.init c.n_cpus (fun _ -> Numa_machine.Tlb.create ()) in
          for i = 0 to c.n_access - 1 do
            let w = c.access.(i) in
            let tlb = tlbs.(w lsr 40) and vpage = w land ((1 lsl 40) - 1) in
            match Numa_machine.Tlb.lookup tlb ~pmap:0 ~vpage with
            | Some () -> ()
            | None -> Numa_machine.Tlb.insert tlb ~pmap:0 ~vpage ()
          done)
        (captures p))

(* Event_queue.pop_min then add, at each captured turn time, on a queue
   kept at one entry per CPU. *)
let event_queue_ns p =
  ns_per ~items:(sum (fun c -> c.n_turns) p) (fun () ->
      List.iter
        (fun c ->
          let q = Numa_sim.Event_queue.create () in
          for i = 0 to min c.n_cpus c.n_turns - 1 do
            Numa_sim.Event_queue.add q ~time:c.turns.(i) ~seq:i ~tid:i
          done;
          for i = c.n_cpus to c.n_turns - 1 do
            let tid = Numa_sim.Event_queue.pop_min q in
            Numa_sim.Event_queue.add q ~time:c.turns.(i) ~seq:i ~tid
          done)
        (captures p))

(* Hub.emit of every captured event to one no-op sink. *)
let hub_emit_ns p =
  let hub = Numa_obs.Hub.create () in
  Numa_obs.Hub.attach hub ~name:"noop" (fun ~ts:_ _ -> ());
  ns_per ~items:(sum (fun c -> c.n_events) p) (fun () ->
      List.iter
        (fun c ->
          for i = 0 to c.n_events - 1 do
            Numa_obs.Hub.emit hub c.events.(i)
          done)
        (captures p))

(* Protocol.transition on each captured fault: its access kind, the
   policy's decision, and the page's state as the previous fault on it
   left it, seen from the faulting CPU. *)
let protocol_stream p =
  let module P = Numa_core.Protocol in
  let out = ref [] in
  List.iter
    (fun c ->
      let state = Hashtbl.create 1024 in
      let decision = Hashtbl.create 1024 in
      for i = 0 to c.n_events - 1 do
        match c.events.(i) with
        | Event.Policy_decision { lpage; global; _ } ->
            Hashtbl.replace decision lpage
              (if global then P.Place_global else P.Place_local)
        | Event.Fault_resolved { cpu; lpage; write; state = after; _ } ->
            let view =
              match Hashtbl.find_opt state lpage with
              | Some "read-only" -> Some P.Sv_read_only
              | Some "global-writable" -> Some P.Sv_global_writable
              | Some s -> (
                  match Scanf.sscanf_opt s "local-writable(%d)" Fun.id with
                  | Some owner when owner = cpu -> Some P.Sv_local_writable_own
                  | Some _ -> Some P.Sv_local_writable_other
                  | None -> None)
              | None -> None
            in
            let d = Option.value (Hashtbl.find_opt decision lpage) ~default:P.Place_local in
            let access = Numa_machine.Access.(if write then Store else Load) in
            Option.iter (fun v -> out := (access, v, d) :: !out) view;
            Hashtbl.replace state lpage after
        | _ -> ()
      done)
    (captures p);
  Array.of_list (List.rev !out)

let protocol_transition_ns p =
  let stream = protocol_stream p in
  ns_per ~items:(Array.length stream) (fun () ->
      Array.iter
        (fun (access, state, decision) ->
          let outcome = Numa_core.Protocol.transition ~access ~state ~decision in
          ignore (Sys.opaque_identity outcome))
        stream)

(* The serve app's set-up draws: its zipfian keys over 2048 objects and its
   arrival instants, from the run seed, as many as it has requests. *)
let dist_sample_ns ~requests ~arrival ~theta ~seed =
  let z = Numa_util.Dist.zipf ~n:2048 ~theta in
  ns_per ~items:(2 * requests) (fun () ->
      let prng = Numa_util.Prng.create ~seed in
      for _ = 1 to requests do
        ignore (Sys.opaque_identity (Numa_util.Dist.zipf_draw z prng))
      done;
      ignore (Sys.opaque_identity (Numa_util.Dist.arrival_times arrival prng ~n:requests)))
