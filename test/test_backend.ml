(* Separate entry point for the process-backend suite: the runtime
   forbids Unix.fork in any process that has ever spawned a domain, and
   the main test binary's suites do.  This binary therefore runs every
   domains-backend baseline at jobs = 1 (which is strictly sequential —
   no domain is ever created) so Procpool's forks stay legal. *)

let () =
  Alcotest.run "funcytuner-backend"
    [
      Suite_backend.suite;
      Suite_selfcheck.suite_processes;
      Suite_selfcheck.suite_sharded;
      Suite_serve.suite_e2e;
    ]
