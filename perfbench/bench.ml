(* The repository benchmark. See README.md in this directory.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
   bench.exe --workload NAME --record     (print the default-seed digests)

   Every run first replays the workload once at the default seed and
   checks each op's digest against expected.txt; it then measures passes
   at --seed for S seconds (--trace 0) or makes one untraced and one
   traced pass (--trace 1). The last stdout line is the JSON result. *)

module Report = Numa_system.Report
module Paper = Numa_metrics.Paper_values
module W = Workload

let default_seed = 42

let usage () =
  Printf.eprintf
    "usage: bench.exe --workload (%s) [--seed N] [--seconds S] [--trace 0|1] [--record] \
     [--expected FILE]\n"
    (String.concat "|" (List.map (fun w -> w.W.name) W.all));
  exit 2

type args = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  record : bool;
  expected_file : string;
}

let parse_args () =
  let workload = ref None and seed = ref default_seed and seconds = ref 10. in
  let trace = ref false and record = ref false in
  let expected_file = ref "perfbench/expected.txt" in
  let rec go = function
    | "--workload" :: v :: rest ->
        (match W.find v with
        | Some w -> workload := Some w
        | None ->
            Printf.eprintf "unknown workload %S\n" v;
            usage ());
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> usage ());
        go rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        go rest
    | "--record" :: rest ->
        record := true;
        go rest
    | "--expected" :: v :: rest ->
        expected_file := v;
        go rest
    | [] -> ()
    | a :: _ ->
        Printf.eprintf "unexpected argument %S\n" a;
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some workload ->
      {
        workload;
        seed = !seed;
        seconds = !seconds;
        trace = !trace;
        record = !record;
        expected_file = !expected_file;
      }

(* --- output check --------------------------------------------------------- *)

(* expected.txt: one "WORKLOAD OP DIGEST" line per op at the default
   seed; lines starting with '#' are comments. *)
let load_expected file ~workload =
  let tbl = Hashtbl.create 32 in
  let ic = open_in file in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if not (String.starts_with ~prefix:"#" line) then
         match String.split_on_char ' ' line with
         | [ w; label; digest ] when w = workload -> Hashtbl.replace tbl label digest
         | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

(* Why each op failed, if it did: raised or failed an audit, or its
   digest differs from [reference label] (when there is one). *)
let op_failures ~reference (results : W.result list) =
  List.filter_map
    (fun (r : W.result) ->
      if r.W.errors <> [] then Some (r.W.op.W.label, String.concat "; " r.W.errors)
      else
        match reference r.W.op.W.label with
        | None -> None
        | Some d when d = r.W.digest -> None
        | Some d ->
            Some
              (r.W.op.W.label, Printf.sprintf "digest %s, expected %s" r.W.digest d))
    results

let report_failures ~what fails =
  List.iter (fun (label, why) -> Printf.eprintf "FAIL %s %s: %s\n%!" what label why) fails

(* The checker must fire on a planted wrong digest: the first op that
   passes is given one, and exactly that op must then fail as well. *)
let self_test ~expected results =
  let clean = op_failures ~reference:(Hashtbl.find_opt expected) results in
  match
    List.find_opt (fun (r : W.result) -> not (List.mem_assoc r.W.op.W.label clean)) results
  with
  | None -> true
  | Some victim ->
      let planted = Hashtbl.copy expected in
      Hashtbl.replace planted victim.W.op.W.label "0123456789abcdef0123456789abcdef";
      let dirty = op_failures ~reference:(Hashtbl.find_opt planted) results in
      List.length dirty = List.length clean + 1 && List.mem_assoc victim.W.op.W.label dirty

(* --- statistics ----------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let s_of_ns n = float_of_int n *. 1e-9
let sum_i f l = List.fold_left (fun a x -> a + f x) 0 l
let sum_f f l = List.fold_left (fun a x -> a +. f x) 0. l

let reports (rs : W.result list) = List.filter_map (fun (r : W.result) -> r.W.report) rs
let pass_s f (rs : W.result list) = s_of_ns (sum_i f rs)

let pass_wall_s =
  pass_s (fun (r : W.result) -> r.W.t_create + r.W.t_setup + r.W.t_run + r.W.t_json)

let pass_setup_s = pass_s (fun (r : W.result) -> r.W.t_create + r.W.t_setup)
let pass_run_s = pass_s (fun (r : W.result) -> r.W.t_run)
let pass_refs rs = sum_i (fun r -> Report.total_refs r.Report.refs_all) (reports rs)
let pass_events rs = sum_i (fun r -> r.Report.n_events) (reports rs)

(* Mean |gamma_sim - gamma_paper| / gamma_paper over the Table 3 programs. *)
let gamma_err gammas =
  let errs =
    List.filter_map
      (fun (app, g) ->
        Option.map
          (fun (p : Paper.table3_row) -> Float.abs (g -. p.Paper.gamma) /. p.Paper.gamma)
          (Paper.find_table3 app))
      gammas
  in
  if errs = [] then 0. else sum_f Fun.id errs /. float_of_int (List.length errs)

(* --- result line ---------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "%-36s %20.6f %s\n" name v unit) metrics;
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " m)

(* --- the run -------------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable broken : bool }

let verify tally ~what ~reference results =
  let fails = op_failures ~reference results in
  report_failures ~what fails;
  tally.attempted <- tally.attempted + List.length results;
  tally.failed <- tally.failed + List.length fails

let seed64 = Int64.of_int

(* Default-seed pass, checked against the recorded digests; doubles as the
   warm-up that fills caches and lazy tables before anything is timed. *)
(* An op with no recorded digest fails too. *)
let recorded expected label =
  Some (Option.value (Hashtbl.find_opt expected label) ~default:"(none recorded)")

let warmup tally args =
  let expected = load_expected args.expected_file ~workload:args.workload.W.name in
  let results, _ = W.run_pass args.workload ~seed:(seed64 default_seed) in
  verify tally ~what:"default-seed" ~reference:(recorded expected) results;
  if not (self_test ~expected results) then begin
    prerr_endline "FAIL planted-digest self-test: the output check did not fire";
    tally.broken <- true
  end;
  expected

(* Reference digests for passes at [args.seed]: the recorded ones at the
   default seed; otherwise (a held-out seed) the first pass's, so every
   later pass must repeat it exactly, on top of the audits every op gets. *)
let digests_of (results : W.result list) =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (r : W.result) -> Hashtbl.replace tbl r.W.op.W.label r.W.digest) results;
  Hashtbl.find_opt tbl

let reference_for args expected first =
  if args.seed = default_seed then recorded expected else digests_of first

(* What a measured pass leaves behind once checked; the reports go, so
   the heap does not grow with the number of passes. *)
type pass = {
  wall : float;
  setup : float;
  refs_per_s : float;
  alloc : float;
  promoted : float;
}

let summarise rs =
  {
    wall = pass_wall_s rs;
    setup = pass_setup_s rs;
    refs_per_s = float_of_int (pass_refs rs) /. pass_run_s rs;
    alloc = sum_f (fun (r : W.result) -> r.W.minor_words /. 1e6) rs;
    promoted = sum_f (fun (r : W.result) -> r.W.promoted_words /. 1e6) rs;
  }

let measure args =
  let tally = { attempted = 0; failed = 0; broken = false } in
  let expected = warmup tally args in
  (* The peak heap of the default-seed pass alone: the heap keeps growing
     slowly with every further pass, how many passes fit depends on the
     host, and the reference kernel's first sample nudges the GC. *)
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let samples = ref [] in
  let before_op () = samples := Refkernel.sample () :: !samples in
  let seed = seed64 args.seed in
  let deadline = Tracer.now () + int_of_float (args.seconds *. 1e9) in
  let rec loop acc reference =
    if List.length acc >= 3 && Tracer.now () >= deadline then acc
    else
      let results, _ = W.run_pass ~before_op args.workload ~seed in
      let reference =
        match reference with
        | Some r -> r
        | None -> reference_for args expected results
      in
      verify tally ~what:"measured" ~reference results;
      loop (summarise results :: acc) (Some reference)
  in
  let passes = loop [] None in
  let med f = median (List.map f passes) in
  (* Host times at the reference speed: the run's median host time times
     the nominal reference sample over the run's median one. *)
  let speed = Refkernel.nominal_s /. median !samples in
  Printf.printf "reference sample: median %.6f s over %d, nominal %.6f s\n"
    (median !samples) (List.length !samples) Refkernel.nominal_s;
  Printf.printf "host medians before scaling: wall %.6f s, setup %.6f s, refs %.6g/s\n"
    (med (fun p -> p.wall)) (med (fun p -> p.setup)) (med (fun p -> p.refs_per_s));
  let metrics =
    [
      ("wall_s", "s", med (fun p -> p.wall) *. speed);
      ("setup_s", "s", med (fun p -> p.setup) *. speed);
      ("sim_refs_per_s", "1/s", med (fun p -> p.refs_per_s) /. speed);
      ("alloc_mwords", "Mword", med (fun p -> p.alloc));
      ("promoted_mwords", "Mword", med (fun p -> p.promoted));
      ( "peak_heap_mb",
        "MiB",
        float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1048576. );
      ( "ok_rate",
        "ratio",
        float_of_int (tally.attempted - tally.failed) /. float_of_int tally.attempted );
    ]
  in
  Printf.printf "workload %s, seed %d: %d measured passes of %d ops\n" args.workload.W.name
    args.seed (List.length passes) (List.length args.workload.W.ops);
  print_result ~correct:(tally.failed = 0 && not tally.broken) ~attempted:tally.attempted
    ~failed:tally.failed metrics

(* --- the traced run ------------------------------------------------------- *)

let out_dir () =
  let d = ".perfbench_out" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

(* Phase spans of every traced op (setup.create, setup.app, run,
   report.json under one root per op) and the layer split, as JSON. *)
let write_trace args (traced : W.result list) (p : Probe.t) =
  let module J = Numa_obs.Json in
  let t = ref 0 in
  let span name d =
    let s = !t in
    t := !t + d;
    J.Obj [ ("name", J.String name); ("start_ns", J.Int s); ("dur_ns", J.Int d) ]
  in
  let ops =
    List.map
      (fun (r : W.result) ->
        let root = !t in
        let children =
          [
            span "setup.create" r.W.t_create;
            span "setup.app" r.W.t_setup;
            span "run" r.W.t_run;
            span "report.json" r.W.t_json;
          ]
        in
        J.Obj
          [
            ("name", J.String r.W.op.W.label);
            ("start_ns", J.Int root);
            ("dur_ns", J.Int (!t - root));
            ("children", J.List children);
          ])
      traced
  in
  let tr = p.Probe.tracer in
  let layers =
    Array.to_list
      (Array.mapi (fun i name -> (name, J.Float (Tracer.self_s tr i))) Tracer.layer_names)
  in
  let kinds =
    Array.to_list
      (Array.mapi (fun i name -> (name, J.Int p.Probe.kinds.(i))) Probe.kind_names)
  in
  let file =
    Filename.concat (out_dir ())
      (Printf.sprintf "%s-seed%d.trace.json" args.workload.W.name args.seed)
  in
  J.save
    (J.Obj
       [
         ("workload", J.String args.workload.W.name);
         ("seed", J.Int args.seed);
         ("run_s", J.Float (Tracer.run_s tr));
         ("unattributed_s", J.Float (Tracer.unattributed_s tr));
         ("layer_self_s", J.Obj layers);
         ("events_by_kind", J.Obj kinds);
         ("gc_events_lost", J.Int (Tracer.lost_events tr));
         ("ops", J.List ops);
       ])
    file;
  Printf.printf "trace written to %s\n" file

let traced_run args =
  let tally = { attempted = 0; failed = 0; broken = false } in
  let expected = warmup tally args in
  let w = args.workload in
  let seed = seed64 args.seed in
  let plain, gammas = W.run_pass w ~seed in
  (* Only profiled workloads pay for the profiler; they get a second,
     unprofiled pass to price it. *)
  let profiled =
    List.exists (fun (o : W.op) -> o.W.spec.Numa_metrics.Runner.profiling) w.W.ops
  in
  let unprofiled =
    if profiled then Some (fst (W.run_pass ~profiling:false w ~seed)) else None
  in
  let p = Probe.create ~ops:(List.length w.W.ops) in
  let traced, _ = W.run_pass ~around_run:(Probe.around_run p) w ~seed in
  (* Observers change nothing: the traced and unprofiled passes must
     repeat the plain pass's digests exactly. *)
  let reference = reference_for args expected plain in
  verify tally ~what:"plain" ~reference plain;
  let same = digests_of plain in
  verify tally ~what:"traced" ~reference:same traced;
  Option.iter (verify tally ~what:"unprofiled" ~reference:same) unprofiled;
  write_trace args traced p;
  let tr = p.Probe.tracer in
  let reps = reports plain in
  let sumr f = sum_i f reps in
  let fi = float_of_int in
  let ratio a b = if b = 0. then 0. else a /. b in
  let events = sumr (fun r -> r.Report.n_events) in
  let faults = sumr (fun r -> r.Report.numa_enters) in
  let copies = sumr (fun r -> r.Report.numa_copies_to_local) in
  let flushes = sumr (fun r -> r.Report.numa_replicas_flushed) in
  let tlb_hits = sumr (fun r -> r.Report.tlb_hits) in
  let tlb_misses = sumr (fun r -> r.Report.tlb_misses) in
  let pt f = sumr (fun r -> match r.Report.pt with Some x -> f x | None -> 0) in
  let res f = sumr (fun r -> match r.Report.resilience with Some x -> f x | None -> 0) in
  let resf f =
    sum_f (fun r -> match r.Report.resilience with Some x -> f x | None -> 0.) reps
  in
  let p99 =
    sumr (fun r -> match r.Report.serving with Some s -> s.Report.p99_us | None -> 0)
  in
  let attempts = res (fun x -> Array.fold_left ( + ) 0 x.Report.attempts_started) in
  let self l = Tracer.self_s tr l in
  let traced_events = pass_events traced in
  let app_name (o : W.op) = o.W.app.Numa_apps.App_sig.name in
  let setup_of app =
    pass_s (fun (r : W.result) -> if app_name r.W.op = app then r.W.t_setup else 0) plain
  in
  let serve_requests =
    sum_i
      (fun (o : W.op) ->
        if app_name o = "serve" then
          Numa_apps.Serve.requests_for o.W.spec.Numa_metrics.Runner.scale
        else 0)
      w.W.ops
  in
  let app_names =
    List.sort_uniq compare
      (List.concat_map (fun w -> List.map app_name w.W.ops) W.all)
  in
  let metrics =
    [
      ("sim.events", "count", fi events);
      ("sim.self_s", "s", self Tracer.sim);
      ("sim.ns_per_event", "ns", ratio (self Tracer.sim *. 1e9) (fi traced_events));
      ("sim.event_queue_ns", "ns", Probe.event_queue_ns p);
      ( "run.alloc_words_per_event",
        "word",
        ratio (sum_f (fun (r : W.result) -> r.W.run_minor_words) plain) (fi events) );
      ( "run.promoted_words_per_event",
        "word",
        ratio (sum_f (fun (r : W.result) -> r.W.run_promoted_words) plain) (fi events) );
      ("gc.minor_collections", "count", fi (sum_i (fun r -> r.W.minor_collections) plain));
      ("gc.major_collections", "count", fi (sum_i (fun r -> r.W.major_collections) plain));
      ("gc.self_s", "s", self Tracer.gc);
      ("system.batches", "count", fi p.Probe.batches);
      ( "system.refs_per_batch",
        "count",
        ratio (fi (pass_refs traced)) (fi p.Probe.batches) );
      ("system.self_s", "s", self Tracer.system);
      ("system.ns_per_batch", "ns", ratio (self Tracer.system *. 1e9) (fi p.Probe.batches));
      ("system.create_s", "s", s_of_ns (sum_i (fun (r : W.result) -> r.W.t_create) plain));
      ("machine.tlb_hit_rate", "ratio", ratio (fi tlb_hits) (fi (tlb_hits + tlb_misses)));
      ("machine.tlb_misses", "count", fi tlb_misses);
      ("machine.tlb_shootdowns", "count", fi (sumr (fun r -> r.Report.tlb_shootdowns)));
      ("machine.tlb_lookup_ns", "ns", Probe.tlb_lookup_ns p);
      ("machine.self_s", "s", self Tracer.machine +. self Tracer.pt);
      ("machine.pt_walks", "count", fi (pt (fun x -> x.Report.walks)));
      ("machine.pt_shootdowns", "count", fi (pt (fun x -> x.Report.pte_shootdowns)));
      ("machine.pt_self_s", "s", self Tracer.pt);
      ("core.faults", "count", fi faults);
      ("core.moves", "count", fi (sumr (fun r -> r.Report.numa_moves)));
      ("core.copies", "count", fi copies);
      ("core.flushes", "count", fi flushes);
      ("core.pins", "count", fi (sumr (fun r -> r.Report.pins)));
      ("core.replica_waste", "ratio", ratio (fi flushes) (fi copies));
      ("core.self_s", "s", self Tracer.core);
      ("core.ns_per_fault", "ns", ratio (self Tracer.core *. 1e9) (fi faults));
      ("core.protocol_transition_ns", "ns", Probe.protocol_transition_ns p);
      ("obs.events", "count", fi (Probe.total_events p));
    ]
    @ List.map
        (fun k -> ("obs.events." ^ k, "count", fi (Probe.kind_count p k)))
        [
          "refs"; "dispatch"; "fault_resolved"; "policy_decision"; "tlb_shootdown";
          "pt_walk"; "pt_shootdown"; "request_served";
        ]
    @ [
        ("obs.self_s", "s", self Tracer.obs);
        ("obs.hub_emit_ns", "ns", Probe.hub_emit_ns p);
        ( "obs.profile_overhead",
          "ratio",
          match unprofiled with
          | Some u -> ratio (pass_run_s plain) (pass_run_s u)
          | None -> 1. );
        ( "obs.profile_s",
          "s",
          match unprofiled with Some u -> pass_run_s plain -. pass_run_s u | None -> 0. );
        ("apps.setup_s", "s", s_of_ns (sum_i (fun (r : W.result) -> r.W.t_setup) plain));
      ]
    @ List.map (fun a -> ("apps.setup_s." ^ a, "s", setup_of a)) app_names
    @ [
        ("apps.self_s", "s", self Tracer.apps);
        ( "apps.serve.useful_ratio",
          "ratio",
          ratio (fi (res (fun x -> x.Report.served_in_deadline))) (fi attempts) );
        ("apps.serve.shed", "count", fi (res (fun x -> x.Report.shed)));
        ("apps.serve.timeouts", "count", fi (res (fun x -> x.Report.timeouts)));
        ("apps.serve.p99_us", "us", fi p99);
        ("apps.serve.goodput_rps", "1/s", resf (fun x -> x.Report.goodput_rps));
        ("model.gamma_err_vs_paper", "ratio", gamma_err gammas);
        ( "util.dist_sample_ns",
          "ns",
          if serve_requests = 0 then 0.
          else
            Probe.dist_sample_ns ~requests:serve_requests ~arrival:W.serve_arrival
              ~theta:W.serve_theta ~seed );
        ("report.to_json_s", "s", s_of_ns (sum_i (fun (r : W.result) -> r.W.t_json) plain));
        ("trace.overhead", "ratio", ratio (pass_run_s traced) (pass_run_s plain));
        ( "trace.unattributed_frac",
          "ratio",
          ratio (Tracer.unattributed_s tr) (Tracer.run_s tr) );
      ]
  in
  print_result ~correct:(tally.failed = 0 && not tally.broken) ~attempted:tally.attempted
    ~failed:tally.failed metrics

let record args =
  let results, _ = W.run_pass args.workload ~seed:(seed64 default_seed) in
  List.iter
    (fun (r : W.result) ->
      if r.W.errors <> [] then begin
        Printf.eprintf "%s: %s\n" r.W.op.W.label (String.concat "; " r.W.errors);
        exit 1
      end;
      Printf.printf "%s %s %s\n" args.workload.W.name r.W.op.W.label r.W.digest)
    results

let () =
  let args = parse_args () in
  if args.record then record args else if args.trace then traced_run args else measure args
