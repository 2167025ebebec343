let () =
  Alcotest.run "numa_mem"
    [
      ("util", Test_util.suite);
      ("machine", Test_machine.suite);
      ("topo", Test_topo.suite);
      ("vm", Test_vm.suite);
      ("core", Test_core.suite);
      ("engine", Test_engine.suite);
      ("protocol", Test_protocol.suite);
      ("system", Test_system.suite);
      ("workload", Test_workload.suite);
      ("apps", Test_apps.suite);
      ("pageout", Test_pageout.suite);
      ("determinism", Test_determinism.suite);
      ("coverage", Test_coverage.suite);
      ("edge", Test_edge.suite);
      ("multitask", Test_multitask.suite);
      ("metrics", Test_metrics.suite);
      ("trace", Test_trace.suite);
      ("obs", Test_obs.suite);
      ("lang", Test_lang.suite);
      ("properties", Test_properties.suite);
      ("fault-path", Test_fault_path.suite);
      ("faults", Test_faults.suite);
      ("profile", Test_profile.suite);
      ("pt", Test_pt.suite);
      ("serve", Test_serve.suite);
      ("resilience", Test_resilience.suite);
    ]
