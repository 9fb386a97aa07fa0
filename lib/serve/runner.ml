module Engine = Ft_engine.Engine
module Pool = Ft_engine.Pool
module Telemetry = Ft_obs.Telemetry
module Checkpoint = Ft_engine.Checkpoint
module Result = Funcytuner.Result
module Tuner = Funcytuner.Tuner

exception Cancelled = Ft_engine.Pool.Abort

type t = {
  validate : Protocol.tune_spec -> (unit, string) result;
  run :
    Protocol.tune_spec ->
    fingerprint:string ->
    tick:(unit -> unit) ->
    (Scheduler.outcome, string) result;
}

let validate (spec : Protocol.tune_spec) =
  if Ft_suite.Suite.find spec.benchmark = None then
    Error (Printf.sprintf "unknown benchmark '%s'" spec.benchmark)
  else if Ft_prog.Platform.of_short_name spec.platform = None then
    Error (Printf.sprintf "unknown platform '%s'" spec.platform)
  else if not (List.mem spec.algorithm Tuner.searches) then
    Error (Printf.sprintf "unknown algorithm '%s'" spec.algorithm)
  else if spec.pool < 1 then
    Error (Printf.sprintf "pool must be positive, got %d" spec.pool)
  else
    match spec.top_x with
    | Some x when x < 1 -> Error (Printf.sprintf "top_x must be positive, got %d" x)
    | _ -> Ok ()

(* The solo [funcy tune] path: one session, then the search table. *)
let search ~engine (spec : Protocol.tune_spec) =
  let program = Option.get (Ft_suite.Suite.find spec.benchmark) in
  let platform = Option.get (Ft_prog.Platform.of_short_name spec.platform) in
  Tuner.search ?top_x:spec.top_x spec.algorithm
    (Tuner.make_session ~pool_size:spec.pool ~engine ~platform ~program
       ~input:(Ft_suite.Suite.tuning_input platform program)
       ~seed:spec.seed ())

(* One search on [engine], progress callback installed for its duration.
   Per-spec failures become [Error]; fatal exceptions — the runtime
   dying, or [Cancelled] raised by the server from inside [tick] —
   propagate, so the supervisor (and the journal's crash accounting)
   sees a real crash and a cancellation unwinds to its catcher. *)
let run_search ~engine spec ~tick =
  let telemetry = Engine.telemetry engine in
  Telemetry.set_progress telemetry (fun ~completed:_ -> tick ());
  Fun.protect ~finally:(fun () ->
      Telemetry.set_progress telemetry (fun ~completed:_ -> ()))
  @@ fun () ->
  match search ~engine spec with
  | result ->
      Ok
        {
          Scheduler.text = Result.render result;
          speedup = result.Result.speedup;
          evaluations = result.Result.evaluations;
        }
  | exception exn when not (Pool.fatal exn) -> Error (Printexc.to_string exn)

let make ~engine =
  let run spec ~fingerprint:_ ~tick = run_search ~engine spec ~tick in
  { validate; run }

let make_durable
    ~(make_engine :
        ?cache:Ft_engine.Cache.t ->
        ?quarantine:Ft_engine.Quarantine.t ->
        ?checkpoint:Ft_engine.Checkpoint.t ->
        unit ->
        Engine.t) ~state_dir ?(checkpoint_every = 32) () =
  let run spec ~fingerprint ~tick =
    let path = Filename.concat state_dir (fingerprint ^ ".snap") in
    let checkpoint = Checkpoint.create ~path ~every:checkpoint_every () in
    let engine =
      match Checkpoint.load checkpoint with
      | Some (cache, quarantine) ->
          Printf.eprintf "serve: resuming %s from checkpoint (%d entries)\n%!"
            fingerprint
            (Ft_engine.Cache.length cache);
          make_engine ~cache ~quarantine ~checkpoint ()
      | None -> make_engine ~checkpoint ()
    in
    let result = run_search ~engine spec ~tick in
    (* On success the outcome is durable in the journal's [completed]
       record, and the half-search log has served its purpose. *)
    (match result with
    | Ok _ ->
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ path; path ^ ".lock" ]
    | Error _ -> ());
    result
  in
  { validate; run }
