let () =
  Alcotest.run "laplacian_bcc"
    (Test_util.suites @ Test_linalg.suites @ Test_graph.suites
   @ Test_net.suites @ Test_fault.suites @ Test_byzantine.suites
   @ Test_spanner.suites @ Test_sparsifier.suites
   @ Test_laplacian.suites @ Test_lp.suites @ Test_ipm.suites
   @ Test_flow.suites @ Test_dist.suites @ Test_io.suites @ Test_core.suites
   @ Test_obs.suites @ Test_service.suites @ Test_update.suites
   @ Test_serve.suites
   @ Test_lint.suites @ Test_lint_typed.suites
   @ Test_determinism.suites @ Test_plan.suites
   @ Test_fingerprints.suites @ Test_conformance.suites)
