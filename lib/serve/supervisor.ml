module Rng = Ft_util.Rng

type config = {
  respawn_budget : int;
  backoff_base_s : float;
  backoff_cap_s : float;
  seed : int;
}

let default_config =
  { respawn_budget = 16; backoff_base_s = 0.05; backoff_cap_s = 2.0; seed = 0 }

type exit_status = Exited of int | Signalled of int

let exit_status_to_string = function
  | Exited code -> Printf.sprintf "exit %d" code
  | Signalled s -> Printf.sprintf "signal %d" s

type outcome = { generations : int; last : exit_status; clean : bool }

(* Respawn [k] waits the jittered {!Rng.backoff} delay, drawn from a
   generator seeded by [config.seed] — the same schedule every run, but
   spread so a fleet of supervisors sharing a seed base does not
   thunder. *)
let delay config rng k =
  Rng.backoff ~rng ~base:config.backoff_base_s ~cap:config.backoff_cap_s k

let delays config n =
  let rng = Rng.create config.seed in
  List.init n (fun k -> delay config rng k)

let wait_child pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED code -> Exited code
    | _, Unix.WSIGNALED s -> Signalled s
    | _, Unix.WSTOPPED _ -> go ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
  in
  go ()

let run ?(on_exit = fun ~generation:_ _ -> ()) config daemon =
  if config.respawn_budget < 0 then
    invalid_arg "Supervisor.run: respawn_budget must be >= 0";
  let rng = Rng.create config.seed in
  let child = ref None in
  let forward signal _ =
    match !child with Some pid -> (try Unix.kill pid signal with Unix.Unix_error _ -> ()) | None -> ()
  in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle (forward Sys.sigterm)) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle (forward Sys.sigint)) in
  Fun.protect ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int)
  @@ fun () ->
  let rec spawn generation =
    match Unix.fork () with
    | 0 ->
        (* The child must never return into the supervisor loop. *)
        let code =
          try daemon ~generation
          with exn ->
            Printf.eprintf "serve[gen %d]: uncaught %s\n%!" generation
              (Printexc.to_string exn);
            125
        in
        Unix._exit code
    | pid ->
        child := Some pid;
        let status = wait_child pid in
        child := None;
        on_exit ~generation status;
        let generations = generation + 1 in
        if status = Exited 0 then { generations; last = status; clean = true }
        else if generation >= config.respawn_budget then
          { generations; last = status; clean = false }
        else begin
          ignore (Unix.select [] [] [] (delay config rng generation));
          spawn (generation + 1)
        end
  in
  spawn 0
