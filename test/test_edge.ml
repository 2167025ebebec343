(* Edge cases and semantic details across the stack. *)

open Numa_machine
module System = Numa_system.System
module Report = Numa_system.Report
module Api = Numa_sim.Api
module Region_attr = Numa_vm.Region_attr

let small_config ?(n_cpus = 4) () =
  Config.ace ~n_cpus ~local_pages_per_cpu:64 ~global_pages:256 ()

let test_zero_fill_read_semantics () =
  (* The first read of never-written memory observes zeros, on every CPU,
     both before and after another CPU writes a different page. *)
  let sys = System.create ~config:(small_config ()) () in
  let r =
    System.alloc_region sys ~name:"fresh" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_write_shared ~pages:2 ()
  in
  let seen = ref [] in
  let barrier = System.make_barrier sys ~name:"b" ~parties:2 in
  ignore
    (System.spawn sys ~cpu:0 ~name:"a" (fun ~stack_vpage:_ ->
         seen := Api.read_value r.System.base_vpage :: !seen;
         Api.write ~value:9 (r.System.base_vpage + 1);
         Api.barrier barrier));
  ignore
    (System.spawn sys ~cpu:1 ~name:"b" (fun ~stack_vpage:_ ->
         Api.barrier barrier;
         seen := Api.read_value r.System.base_vpage :: !seen));
  ignore (System.run sys);
  Alcotest.(check (list int)) "zero-filled everywhere" [ 0; 0 ] !seen

let test_lpage_mapping_lifecycle () =
  let sys = System.create ~config:(small_config ()) () in
  let r =
    System.alloc_region sys ~name:"d" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_private ~pages:2 ()
  in
  Alcotest.(check (option int)) "not materialised before touch" None
    (System.lpage_of sys ~vpage:r.System.base_vpage ());
  Alcotest.(check bool) "region lookup works" true
    (System.region_at sys ~vpage:(r.System.base_vpage + 1) () <> None);
  Alcotest.(check bool) "unmapped address has no region" true
    (System.region_at sys ~vpage:9999 () = None);
  ignore
    (System.spawn sys ~name:"t" (fun ~stack_vpage:_ -> Api.write r.System.base_vpage));
  ignore (System.run sys);
  Alcotest.(check bool) "materialised after touch" true
    (System.lpage_of sys ~vpage:r.System.base_vpage () <> None);
  Alcotest.(check (option int)) "untouched page still empty" None
    (System.lpage_of sys ~vpage:(r.System.base_vpage + 1) ())

let test_spawn_round_robin_default () =
  let sys = System.create ~config:(small_config ~n_cpus:3 ()) () in
  let cpus = ref [] in
  for i = 0 to 5 do
    ignore
      (System.spawn sys ~name:(Printf.sprintf "t%d" i) (fun ~stack_vpage ->
           Api.read stack_vpage))
  done;
  ignore (System.run sys);
  let engine = System.engine sys in
  for tid = 0 to 5 do
    cpus := Numa_sim.Engine.thread_cpu engine ~tid :: !cpus
  done;
  Alcotest.(check (list int)) "round robin over 3 cpus" [ 0; 1; 2; 0; 1; 2 ]
    (List.rev !cpus)

let test_region_attr_predicates () =
  let code =
    Region_attr.v ~name:"c" ~kind:Region_attr.Code ~sharing:Region_attr.Declared_read_shared
      ()
  in
  let stack =
    Region_attr.v ~name:"s" ~kind:(Region_attr.Stack 3)
      ~sharing:Region_attr.Declared_private ()
  in
  Alcotest.(check bool) "code is not writable data" false
    (Region_attr.is_writable_data code);
  Alcotest.(check bool) "stack is writable data" true (Region_attr.is_writable_data stack)

let test_app_parameter_floors () =
  Alcotest.(check bool) "primes1 floor" true (Numa_apps.Primes1.limit 0.0000001 >= 1_000);
  Alcotest.(check bool) "primes3 floor" true (Numa_apps.Primes3.limit 0.0000001 >= 20_000);
  Alcotest.(check bool) "imatmult floor" true (Numa_apps.Imatmult.dimension 1e-9 >= 8);
  (* fft dimension is a power of two at any scale. *)
  List.iter
    (fun scale ->
      let n = Numa_apps.Fft.dimension scale in
      Alcotest.(check bool) "power of two" true (n land (n - 1) = 0))
    [ 0.001; 0.01; 0.1; 0.5; 1.0; 2.0 ];
  (* dimensions grow with scale *)
  Alcotest.(check bool) "imatmult monotone" true
    (Numa_apps.Imatmult.dimension 0.1 <= Numa_apps.Imatmult.dimension 1.0)

let test_runner_gl_flags () =
  let config = Config.ace () in
  List.iter
    (fun (name, fetchy) ->
      let app = Option.get (Numa_apps.Registry.find name) in
      let gl = Numa_metrics.Runner.app_gl app config in
      if fetchy then
        Alcotest.(check (float 0.05)) (name ^ " uses 2.3") 2.31 gl
      else Alcotest.(check (float 0.05)) (name ^ " uses ~2") 1.98 gl)
    [ ("gfetch", true); ("imatmult", true); ("fft", false); ("plytrace", false) ]

let test_trace_totals_match_report () =
  let sys = System.create ~config:(small_config ()) () in
  let buffer = Numa_trace.Trace_buffer.create () in
  Numa_trace.Trace_buffer.attach buffer sys;
  let r =
    System.alloc_region sys ~name:"d" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_private ~pages:1 ()
  in
  ignore
    (System.spawn sys ~name:"t" (fun ~stack_vpage ->
         Api.write ~count:123 r.System.base_vpage;
         Api.read ~count:77 stack_vpage));
  let report = System.run sys in
  Alcotest.(check int) "trace references = report references"
    (Report.total_refs report.Report.refs_all)
    (Numa_trace.Trace_buffer.total_references buffer)

let test_code_region_rejects_writes () =
  let sys = System.create ~config:(small_config ()) () in
  let code =
    System.alloc_region sys ~name:"text" ~kind:Region_attr.Code
      ~sharing:Region_attr.Declared_read_shared ~pages:1 ()
  in
  ignore
    (System.spawn sys ~name:"t" (fun ~stack_vpage:_ -> Api.write code.System.base_vpage));
  Alcotest.(check bool) "write to code faults fatally" true
    (match System.run sys with
    | _ -> false
    | exception
        System.Access_failed
          { error = System.Fault_failed Numa_vm.Fault.Protection_violation; _ } ->
        true)

let test_unallocated_vpage_raises_typed () =
  let sys = System.create ~config:(small_config ()) () in
  let stray = 1_000_000 in
  let tid = System.spawn sys ~name:"t" (fun ~stack_vpage:_ -> Api.read stray) in
  match System.run sys with
  | _ -> Alcotest.fail "a read of an unallocated page completed"
  | exception System.Access_failed { error = System.Unmapped; vpage; tid = by; task = _ } ->
      Alcotest.(check int) "names the page" stray vpage;
      Alcotest.(check int) "names the thread" tid by

let test_report_placement_totals () =
  let config = small_config () in
  let sys = System.create ~config () in
  let r =
    System.alloc_region sys ~name:"d" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_private ~pages:3 ()
  in
  ignore
    (System.spawn sys ~name:"t" (fun ~stack_vpage:_ ->
         for p = 0 to 2 do
           Api.write (r.System.base_vpage + p)
         done));
  let report = System.run sys in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 report.Report.placement in
  Alcotest.(check int) "placement partitions the pool" config.Config.global_pages total

let suite =
  [
    Alcotest.test_case "zero-fill read semantics" `Quick test_zero_fill_read_semantics;
    Alcotest.test_case "lpage mapping lifecycle" `Quick test_lpage_mapping_lifecycle;
    Alcotest.test_case "spawn round robin" `Quick test_spawn_round_robin_default;
    Alcotest.test_case "region attr predicates" `Quick test_region_attr_predicates;
    Alcotest.test_case "app parameter floors" `Quick test_app_parameter_floors;
    Alcotest.test_case "runner G/L flags" `Quick test_runner_gl_flags;
    Alcotest.test_case "trace totals match report" `Quick test_trace_totals_match_report;
    Alcotest.test_case "code region rejects writes" `Quick test_code_region_rejects_writes;
    Alcotest.test_case "unallocated page raises Access_failed" `Quick
      test_unallocated_vpage_raises_typed;
    Alcotest.test_case "report placement totals" `Quick test_report_placement_totals;
  ]
