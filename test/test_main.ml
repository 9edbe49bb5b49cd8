let () =
  Alcotest.run "rapwam"
    [
      ("prolog", Test_prolog.suite);
      ("annotate", Test_annotate.suite);
      ("trace", Test_trace.suite);
      ("wam-compile", Test_compile.suite);
      ("wam-machine", Test_machine.suite);
      ("wam-seq", Test_wam_seq.suite);
      ("rapwam", Test_rapwam.suite);
      ("cachesim", Test_cachesim.suite);
      ("stats-queueing", Test_stats_queueing.suite);
      ("analysis", Test_analysis.suite);
      ("wamlint", Test_wamlint.suite);
      ("benchlib", Test_benchlib.suite);
      ("engine", Test_engine.suite);
      ("tracecheck", Test_tracecheck.suite);
      ("resilience", Test_resilience.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("costan", Test_costan.suite);
      ("memo", Test_memo.suite);
      ("server", Test_server.suite);
      ("refmap", Test_refmap.suite);
      ("detan", Test_detan.suite);
      ("bindan", Test_bindan.suite);
      ("footprint", Test_footprint.suite);
      ("certify", Test_certify.suite);
      ("obs", Test_obs.suite);
      ("cli-parity", Test_cli_parity.suite);
      ("properties", Test_properties.suite);
      ("trace-pin", Test_trace_pin.suite);
      ("sim-pin", Test_sim_pin.suite);
      ("listing-pin", Test_listing_pin.suite);
    ]
