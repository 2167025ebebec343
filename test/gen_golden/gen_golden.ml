(* Regenerates the golden reference outputs under test/golden/.

   The determinism suite asserts that the default-ACE configuration keeps
   producing byte-identical reports across refactors of the machine model
   (the PR-2/PR-3 regression guard). Run this tool ONLY when an
   intentional behaviour change invalidates the goldens, and review the
   diff of the regenerated files like any other code change:

     dune exec test/gen_golden/gen_golden.exe -- test/golden

   CI runs it into an empty directory and diffs the result against
   test/golden, so every committed golden is exactly this tool's output.
*)

module System = Numa_system.System
module Report = Numa_system.Report
module Runner = Numa_metrics.Runner
module Table3 = Numa_metrics.Table3
module App_sig = Numa_apps.App_sig

let run_app ?(scheduler = Numa_sim.Engine.Affinity) ?(unix_master = false) name ~scale =
  let app = Option.get (Numa_apps.Registry.find name) in
  let config = Numa_machine.Config.ace ~n_cpus:4 () in
  let sys = System.create ~scheduler ~unix_master ~config () in
  app.App_sig.setup sys { App_sig.nthreads = 4; scale; seed = 42L };
  System.run sys

(* Engine paths the perfbench workloads do not drive, one small run each:
   system calls parked on the Unix master CPU (with stack touches there),
   self-migration, and lock contention with re-dispatch under the
   single-queue scheduler. Each golden is the report JSON followed by a
   line with the run's event count. *)
let engine_runs =
  [
    ("engine_syscall_mix_master.txt", fun () ->
        run_app ~unix_master:true "syscall-mix" ~scale:0.1);
    ("engine_rebalance.txt", fun () -> run_app "rebalance" ~scale:0.1);
    ("engine_primes1_single_queue.txt", fun () ->
        run_app ~scheduler:Numa_sim.Engine.Single_queue "primes1" ~scale:0.05);
  ]

let engine_golden (r : Report.t) =
  Printf.sprintf "%s\nn_events %d\n" (Numa_obs.Json.to_string (Report.to_json r)) r.Report.n_events

let write path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length contents)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let report = run_app "imatmult" ~scale:0.03 in
  write
    (Filename.concat dir "report_imatmult_ace.json")
    (Numa_obs.Json.to_string (Report.to_json report));
  write
    (Filename.concat dir "report_imatmult_ace.txt")
    (Format.asprintf "%a@." Report.pp report);
  let spec = { Runner.default_spec with Runner.scale = 0.05; n_cpus = 4; nthreads = 4 } in
  let apps = List.filter_map Numa_apps.Registry.find [ "imatmult"; "primes3" ] in
  let rows = Table3.run ~apps ~spec () in
  write
    (Filename.concat dir "table3_small_ace.txt")
    (Table3.render rows ^ "\n" ^ Table3.render_comparison rows);
  List.iter (fun (file, run) -> write (Filename.concat dir file) (engine_golden (run ()))) engine_runs
