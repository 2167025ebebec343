(* Simulation-quality properties: determinism across reruns, and the
   robustness of results to the engine's discretisation knobs. *)

module System = Numa_system.System
module Report = Numa_system.Report
module Runner = Numa_metrics.Runner
module App_sig = Numa_apps.App_sig

let fingerprint (r : Report.t) =
  ( r.Report.total_user_ns,
    r.Report.total_system_ns,
    Report.total_refs r.Report.refs_all,
    r.Report.numa_moves,
    r.Report.pins,
    r.Report.n_events )

let audited sys r =
  (* Every run in this suite ends with a full protocol-invariant sweep; the
     audit runs after the report is built, so the goldens stay frozen. *)
  (match Numa_core.Invariant.result (System.audit sys) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "post-run invariant violation: %s" msg);
  r

let run_app ?(chunk_refs = 2048) name ~scale =
  let app = Option.get (Numa_apps.Registry.find name) in
  let config = Numa_machine.Config.ace ~n_cpus:4 () in
  let sys = System.create ~chunk_refs ~config () in
  app.App_sig.setup sys { App_sig.nthreads = 4; scale; seed = 42L };
  audited sys (System.run sys)

let test_reruns_identical () =
  List.iter
    (fun name ->
      let a = fingerprint (run_app name ~scale:0.03) in
      let b = fingerprint (run_app name ~scale:0.03) in
      if a <> b then Alcotest.failf "%s: two identical runs disagreed" name)
    [ "imatmult"; "primes3"; "plytrace"; "gfetch" ]

let test_seed_changes_plytrace () =
  (* plytrace's scene layout is seeded; different seeds must change the
     image access pattern (and generally the timings). *)
  let app = Option.get (Numa_apps.Registry.find "plytrace") in
  let run seed =
    let config = Numa_machine.Config.ace ~n_cpus:4 () in
    let sys = System.create ~config () in
    app.App_sig.setup sys { App_sig.nthreads = 4; scale = 0.05; seed };
    fingerprint (System.run sys)
  in
  Alcotest.(check bool) "seed matters" true (run 1L <> run 2L)

let test_single_thread_chunk_invariance () =
  (* A single-threaded run has no interleaving, so the chunk size must not
     change any reference count or placement outcome, and user time must
     agree to rounding. *)
  let get chunk_refs =
    let app = Option.get (Numa_apps.Registry.find "imatmult") in
    let config = Numa_machine.Config.ace ~n_cpus:1 () in
    let sys = System.create ~chunk_refs ~config () in
    app.App_sig.setup sys { App_sig.nthreads = 1; scale = 0.02; seed = 42L };
    let r = System.run sys in
    ( Report.total_refs r.Report.refs_all,
      r.Report.numa_moves,
      r.Report.pins,
      r.Report.total_user_ns )
  in
  let r64, m64, p64, u64 = get 64 in
  let r4096, m4096, p4096, u4096 = get 4096 in
  Alcotest.(check int) "refs invariant" r64 r4096;
  Alcotest.(check int) "moves invariant" m64 m4096;
  Alcotest.(check int) "pins invariant" p64 p4096;
  Alcotest.(check (float 1.)) "user time invariant" u64 u4096

let test_multithread_chunk_robustness () =
  (* Across threads, chunking changes interleaving details but not the
     placement story: the sieve still pins and alpha stays in its band. *)
  let get chunk_refs =
    let r = run_app ~chunk_refs "primes3" ~scale:0.03 in
    (r.Report.pins, r.Report.alpha_counted)
  in
  let pins_small, alpha_small = get 256 in
  let pins_large, alpha_large = get 8192 in
  Alcotest.(check bool) "pins under both" true (pins_small > 3 && pins_large > 3);
  Alcotest.(check bool) "alpha band stable" true
    (Float.abs (alpha_small -. alpha_large) < 0.25)

let test_scale_monotonicity () =
  (* More work means more simulated time — a sanity check on scaling. *)
  let user scale = (run_app "primes1" ~scale).Report.total_user_ns in
  Alcotest.(check bool) "monotone in scale" true (user 0.02 < user 0.06)

(* --- byte-identical reports and the parallel runner ---------------------- *)

let report_bytes r = Numa_obs.Json.to_string (Report.to_json r)

let test_rerun_reports_byte_identical () =
  (* Stronger than the fingerprint check: the entire serialized report —
     every counter, every float, the TLB block — must match byte for byte
     across two runs of the same (app, policy, seed). *)
  List.iter
    (fun name ->
      let a = report_bytes (run_app name ~scale:0.03) in
      let b = report_bytes (run_app name ~scale:0.03) in
      Alcotest.(check string) (name ^ " report bytes") a b)
    [ "imatmult"; "primes3" ]

let test_parallel_map_matches_sequential () =
  let items = List.init 37 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "order and values preserved" (List.map f items)
    (Numa_metrics.Parallel.map ~jobs:4 f items);
  Alcotest.(check (list int)) "more jobs than items" (List.map f items)
    (Numa_metrics.Parallel.map ~jobs:64 f items);
  Alcotest.(check (list int)) "empty input" []
    (Numa_metrics.Parallel.map ~jobs:4 f [])

let test_parallel_map_propagates_exceptions () =
  match
    Numa_metrics.Parallel.map ~jobs:3
      (fun x -> if x = 5 then failwith "boom" else x)
      (List.init 8 Fun.id)
  with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg

let test_parallel_runner_bit_identical () =
  (* The tentpole contract: distributing the measurement matrix over
     domains changes wall-clock only. Every byte of every report — numa,
     global and local runs alike — matches the sequential runner. *)
  let apps = List.filter_map Numa_apps.Registry.find [ "imatmult"; "primes3"; "gfetch" ] in
  let spec = { Runner.default_spec with Runner.scale = 0.05 } in
  let seq = Runner.measure_many apps spec in
  let par = Runner.measure_many ~jobs:2 apps spec in
  Alcotest.(check int) "same number of measurements" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Runner.measurement) (b : Runner.measurement) ->
      Alcotest.(check string) (a.Runner.app_name ^ " full measurement bytes")
        (Numa_obs.Json.to_string (Runner.measurement_to_json a))
        (Numa_obs.Json.to_string (Runner.measurement_to_json b)))
    seq par

(* --- golden files: the default ACE is frozen ----------------------------- *)

(* The files under test/golden/ were generated (by test/gen_golden) from the
   machine model BEFORE the N-node topology refactor. These checks pin the
   default-ACE configuration to those bytes: generalising the model must not
   change a single float of the classic two-level reports. Regenerate the
   goldens only for an intentional behaviour change, and review the diff. *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let golden name =
  (* cwd is test/ under `dune runtest`, the project root under `dune exec`. *)
  let candidates = [ Filename.concat "golden" name; Filename.concat "test/golden" name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> read_file path
  | None -> Alcotest.failf "golden file %s not found (cwd %s)" name (Sys.getcwd ())

let golden_report =
  (* Same run as test/gen_golden/gen_golden.ml. *)
  lazy
    (let app = Option.get (Numa_apps.Registry.find "imatmult") in
     let config = Numa_machine.Config.ace ~n_cpus:4 () in
     let sys = System.create ~config () in
     app.App_sig.setup sys { App_sig.nthreads = 4; scale = 0.03; seed = 42L };
     audited sys (System.run sys))

let test_golden_report_json () =
  Alcotest.(check string) "imatmult ACE report JSON is byte-identical"
    (golden "report_imatmult_ace.json")
    (report_bytes (Lazy.force golden_report))

let test_golden_report_text () =
  Alcotest.(check string) "imatmult ACE report text is byte-identical"
    (golden "report_imatmult_ace.txt")
    (Format.asprintf "%a@." Report.pp (Lazy.force golden_report))

let test_golden_table3 () =
  let spec = { Runner.default_spec with Runner.scale = 0.05; n_cpus = 4; nthreads = 4 } in
  let apps = List.filter_map Numa_apps.Registry.find [ "imatmult"; "primes3" ] in
  let rows = Numa_metrics.Table3.run ~apps ~spec () in
  Alcotest.(check string) "small Table 3 is byte-identical"
    (golden "table3_small_ace.txt")
    (Numa_metrics.Table3.render rows ^ "\n" ^ Numa_metrics.Table3.render_comparison rows)

(* Engine paths perfbench does not drive; same runs as [engine_runs] in
   test/gen_golden/gen_golden.ml. Each golden is the report JSON and the
   event count, so a change in how the engine interleaves turns shows up
   even where it moves no reported time. *)
let engine_golden ?(scheduler = Numa_sim.Engine.Affinity) ?(unix_master = false) file name
    ~scale () =
  let app = Option.get (Numa_apps.Registry.find name) in
  let config = Numa_machine.Config.ace ~n_cpus:4 () in
  let sys = System.create ~scheduler ~unix_master ~config () in
  app.App_sig.setup sys { App_sig.nthreads = 4; scale; seed = 42L };
  let r = audited sys (System.run sys) in
  Alcotest.(check string) (file ^ " is byte-identical") (golden file)
    (Printf.sprintf "%s\nn_events %d\n" (report_bytes r) r.Report.n_events)

let suite =
  [
    Alcotest.test_case "reruns are bit-identical" `Quick test_reruns_identical;
    Alcotest.test_case "seed changes plytrace" `Quick test_seed_changes_plytrace;
    Alcotest.test_case "single-thread chunk invariance" `Quick
      test_single_thread_chunk_invariance;
    Alcotest.test_case "multi-thread chunk robustness" `Quick
      test_multithread_chunk_robustness;
    Alcotest.test_case "scale monotonicity" `Quick test_scale_monotonicity;
    Alcotest.test_case "rerun reports byte-identical" `Quick
      test_rerun_reports_byte_identical;
    Alcotest.test_case "parallel map = sequential map" `Quick
      test_parallel_map_matches_sequential;
    Alcotest.test_case "parallel map propagates exceptions" `Quick
      test_parallel_map_propagates_exceptions;
    Alcotest.test_case "parallel runner bit-identical" `Quick
      test_parallel_runner_bit_identical;
    Alcotest.test_case "golden: ACE report JSON frozen" `Quick test_golden_report_json;
    Alcotest.test_case "golden: ACE report text frozen" `Quick test_golden_report_text;
    Alcotest.test_case "golden: ACE Table 3 frozen" `Quick test_golden_table3;
    Alcotest.test_case "golden: syscall-mix on the Unix master" `Quick
      (engine_golden ~unix_master:true "engine_syscall_mix_master.txt" "syscall-mix"
         ~scale:0.1);
    Alcotest.test_case "golden: rebalance migrations" `Quick
      (engine_golden "engine_rebalance.txt" "rebalance" ~scale:0.1);
    Alcotest.test_case "golden: primes1 under a single queue" `Quick
      (engine_golden ~scheduler:Numa_sim.Engine.Single_queue
         "engine_primes1_single_queue.txt" "primes1" ~scale:0.05);
  ]
