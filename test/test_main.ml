let () =
  Alcotest.run "mfd"
    [
      ("bdd", Test_bdd.suite);
      ("logic", Test_logic.suite);
      ("graph", Test_graph.suite);
      ("network", Test_network.suite);
      ("symmetry", Test_symmetry.suite);
      ("decomp", Test_decomp.suite);
      ("bvec", Test_bvec.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("driver", Test_driver.suite);
      ("paper-props", Test_paper_props.suite);
      ("reorder", Test_reorder.suite);
      ("extra", Test_extra.suite);
      ("budget", Test_budget.suite);
      ("batch", Test_batch.suite);
      ("sat", Test_sat.suite);
      ("check", Test_check.suite);
      ("dataflow", Test_dataflow.suite);
      ("semantics", Test_semantics.suite);
      ("optimize", Test_optimize.suite);
      ("objective", Test_objective.suite);
      ("bench-report", Test_bench_report.suite);
    ]
