(* The three workloads, one op (create -> app set-up -> run -> report JSON)
   at a time, through the simulator's public API only. *)

module System = Numa_system.System
module Report = Numa_system.Report
module Runner = Numa_metrics.Runner
module App_sig = Numa_apps.App_sig
module Json = Numa_obs.Json

type op = { label : string; app : App_sig.t; spec : Runner.run_spec }
type t = { name : string; ops : op list }

let ok = function Ok v -> v | Error e -> failwith e
let base = Runner.default_spec

(* The paper's three-run protocol (Runner.measure) for the eight Table 3
   programs on the 7-CPU ACE, unprofiled: the reproduction users run. *)
let table3 =
  let ops =
    List.concat_map
      (fun (app : App_sig.t) ->
        [
          { label = app.App_sig.name ^ "/numa"; app; spec = base };
          {
            label = app.App_sig.name ^ "/global";
            app;
            spec = { base with Runner.policy = System.All_global };
          };
          {
            label = app.App_sig.name ^ "/local";
            app;
            spec = { base with Runner.n_cpus = 1; nthreads = 1 };
          };
        ])
      Numa_apps.Registry.table3
  in
  { name = "table3"; ops }

(* Open-loop serving below saturation with every resilience mechanism but
   hedging armed: many short events, parked threads, deadline timers. *)
let serve_arrival = ok (Numa_util.Dist.arrival_of_string "40000:2")
let serve_theta = 0.9

let serve_resilient =
  let resilience =
    Numa_apps.Resilience.make ~deadline_us:1500
      ~retry:(ok (Numa_apps.Resilience.retry_of_string "3:0.2:2:0.5"))
      ~breaker:(ok (Numa_apps.Resilience.breaker_of_string "5:5"))
      ()
  in
  let app =
    Numa_apps.Serve.make
      ~arrival:serve_arrival ~theta:serve_theta ~rw_mix:0.1 ~resilience ()
  in
  {
    name = "serve-resilient";
    ops = [ { label = "serve"; app; spec = { base with Runner.scale = 20. } } ];
  }

(* Writes through the fault/protocol/policy path with replicated page
   tables on the multi-socket machine, profiler on. *)
let fault_storm =
  let multi_socket (c : Numa_machine.Config.t) =
    match
      Numa_machine.Config.of_topology_name ~n_cpus:c.Numa_machine.Config.n_cpus
        "multi-socket"
    with
    | Some c -> c
    | None -> failwith "multi-socket topology missing"
  in
  let spec =
    {
      base with
      Runner.policy = System.Never_pin;
      scale = 0.5;
      profiling = true;
      pt_mode = ok (Numa_machine.Pt.mode_of_string "replicated");
      config_tweak = multi_socket;
    }
  in
  {
    name = "fault-storm";
    ops = [ { label = "primes3"; app = Numa_apps.Primes3.app; spec } ];
  }

let all = [ table3; serve_resilient; fault_storm ]
let find name = List.find_opt (fun w -> w.name = name) all

type result = {
  op : op;
  report : Report.t option;  (** [None] when the op raised *)
  errors : string list;  (** raised, audit or conservation failures *)
  t_create : int;  (** host ns, like the three below *)
  t_setup : int;
  t_run : int;
  t_json : int;
  minor_words : float;  (** whole op *)
  promoted_words : float;
  run_minor_words : float;  (** inside [System.run] only *)
  run_promoted_words : float;
  minor_collections : int;
  major_collections : int;
  mutable digest : string;
}

let now = Tracer.now

(* The repository's own end-of-run checks: a fresh invariant sweep, the
   report's robustness and request-conservation counters and, when
   profiled, the profiler's time conservation. *)
let audit sys (r : Report.t) =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let inv = System.audit sys in
  if inv.Numa_core.Invariant.violations <> [] then
    add "invariant sweep: %s" (List.hd inv.Numa_core.Invariant.violations);
  (match r.Report.robustness with
  | Some rb when rb.Report.invariant_violations > 0 ->
      add "%d invariant violations during the run" rb.Report.invariant_violations
  | Some _ | None -> ());
  (match r.Report.resilience with
  | Some rs when rs.Report.conservation_violations > 0 ->
      add "%d request-conservation violations" rs.Report.conservation_violations
  | Some _ | None -> ());
  (match System.profile sys with
  | None -> ()
  | Some p -> (
      let engine = System.engine sys in
      let clocks =
        Array.init r.Report.n_cpus (fun cpu -> Numa_sim.Engine.clock_ns engine ~cpu)
      in
      match
        Numa_obs.Profile.check_conservation p ~clocks
          ~elapsed_ns:(Numa_sim.Engine.elapsed_ns engine)
      with
      | Ok () -> ()
      | Error e -> add "profile conservation: %s" e));
  List.rev !errs

(* One op. [around_run] wraps [System.run] (the tracer installs its hooks
   there); the op's own timing brackets it either way. *)
let run_op ?(around_run = fun _sys run -> run ()) ?profiling op ~seed =
  let spec =
    match profiling with
    | None -> op.spec
    | Some profiling -> { op.spec with Runner.profiling }
  in
  (* Gc.minor_words is exact; quick_stat's minor count only moves at
     minor collections. *)
  let g0 = Gc.quick_stat () and m0 = Gc.minor_words () in
  let t0 = now () in
  let t1 = ref t0 and t2 = ref t0 and t3 = ref t0 in
  let g1 = ref g0 and g2 = ref g0 and m1 = ref m0 and m2 = ref m0 in
  let outcome =
    match
      let config = Runner.config_for spec ~n_cpus:spec.Runner.n_cpus in
      let sys =
        System.create ~policy:spec.Runner.policy ~scheduler:spec.Runner.scheduler
          ~unix_master:spec.Runner.unix_master ~faults:spec.Runner.faults
          ~paranoid:spec.Runner.paranoid ~profiling:spec.Runner.profiling
          ~victim:spec.Runner.victim ~pt_mode:spec.Runner.pt_mode ~config ()
      in
      t1 := now ();
      op.app.App_sig.setup sys
        { App_sig.nthreads = spec.Runner.nthreads; scale = spec.Runner.scale; seed };
      t2 := now ();
      g1 := Gc.quick_stat ();
      m1 := Gc.minor_words ();
      let report = around_run sys (fun () -> System.run sys) in
      m2 := Gc.minor_words ();
      g2 := Gc.quick_stat ();
      t3 := now ();
      ignore (Sys.opaque_identity (Json.to_string (Report.to_json report)));
      (sys, report)
    with
    | v -> Ok v
    | exception e -> Error (Printexc.to_string e)
  in
  let t4 = now () in
  let g3 = Gc.quick_stat () and m3 = Gc.minor_words () in
  let report, errors =
    match outcome with
    | Ok (sys, report) -> (Some report, audit sys report)
    | Error e -> (None, [ "raised " ^ e ])
  in
  {
    op;
    report;
    errors;
    t_create = !t1 - t0;
    t_setup = !t2 - !t1;
    t_run = !t3 - !t2;
    t_json = t4 - !t3;
    minor_words = m3 -. m0;
    promoted_words = g3.Gc.promoted_words -. g0.Gc.promoted_words;
    run_minor_words = !m2 -. !m1;
    run_promoted_words = !g2.Gc.promoted_words -. !g1.Gc.promoted_words;
    minor_collections = g3.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g3.Gc.major_collections - g0.Gc.major_collections;
    digest = "";
  }

(* The simulated results an op must reproduce exactly: events, per-CPU
   user/system time, every reference count, the NUMA and TLB counters, the
   serving and resilience sections, and for the numa run of a Table 3
   program its gamma and T_numa. *)
let digest ?gamma (r : Report.t) =
  let b = Buffer.create 1024 in
  let i v = Printf.bprintf b "%d;" v and f v = Printf.bprintf b "%h;" v in
  i r.Report.n_events;
  Array.iter f r.Report.user_ns_per_cpu;
  Array.iter f r.Report.system_ns_per_cpu;
  let c = r.Report.refs_all in
  List.iter i
    [
      c.Report.local_reads; c.Report.local_writes; c.Report.global_reads;
      c.Report.global_writes; c.Report.remote_reads; c.Report.remote_writes;
      r.Report.numa_enters; r.Report.numa_moves; r.Report.numa_copies_to_local;
      r.Report.numa_syncs_to_global; r.Report.numa_replicas_flushed; r.Report.pins;
      r.Report.tlb_hits; r.Report.tlb_misses; r.Report.tlb_shootdowns;
    ];
  let json = Report.to_json r in
  List.iter
    (fun key ->
      match Json.member json key with
      | Some v -> Buffer.add_string b (Json.to_string v)
      | None -> Buffer.add_string b "-")
    [ "serving"; "resilience" ];
  Option.iter
    (fun g ->
      f g;
      f (Report.total_user_s r))
    gamma;
  Digest.to_hex (Digest.string (Buffer.contents b))

let gamma_of ~numa ~global ~local =
  Numa_metrics.Model.gamma
    {
      Numa_metrics.Model.t_numa = Report.total_user_s numa;
      t_global = Report.total_user_s global;
      t_local = Report.total_user_s local;
    }

(* Table 3 ops come in (numa, global, local) triples per program; the
   numa op's digest also covers the triple's gamma. Returns each program's
   gamma. *)
let fill_digests results =
  let rec go acc = function
    | ({ report = Some numa; _ } as n) :: ({ report = Some global; _ } as g)
      :: ({ report = Some local; _ } as l) :: rest
      when String.ends_with ~suffix:"/numa" n.op.label ->
        let gamma = gamma_of ~numa ~global ~local in
        n.digest <- digest ~gamma numa;
        g.digest <- digest global;
        l.digest <- digest local;
        go ((n.op.app.App_sig.name, gamma) :: acc) rest
    | r :: rest ->
        (match r.report with Some rep -> r.digest <- digest rep | None -> ());
        go acc rest
    | [] -> List.rev acc
  in
  go [] results

let run_pass ?around_run ?profiling ?(before_op = ignore) w ~seed =
  let results =
    List.map
      (fun op ->
        before_op ();
        run_op ?around_run ?profiling op ~seed)
      w.ops
  in
  let gammas = fill_digests results in
  (results, gammas)
