(* The serve-zipf workload: closed-loop zipfian load against a fresh
   daemon per repetition.

   Each repetition forks a daemon (jobs 1, a fresh engine per search),
   waits for its first ping and one warm-up search per program — that is
   the repetition's set-up — then plays the same seeded [Loadgen] stream
   at concurrency 1.  Nearly all requests hit the result memo, which
   exercises protocol, framing and scheduler per request (they set the
   median and p90); the one search per catalog entry runs the engine and
   allocator.  It is the only workload that runs the serve layers.

   Runs on different seeds are compared with each other, so the load is
   shaped for the seed to change the order of the work but not its
   amount (README.md has the measurements):
   - the stream draws enough requests that, but for odds of about 1 in
     200, it asks for every entry of its small catalog, so every seed
     runs the same searches;
   - one request at a time, so the wall time is the sum of the requests'
     costs however the seed orders memo hits and searches;
   - no state directory: on a disk, the journal's fsync per admitted
     request would time the disk and its other users, not the daemon.
     {!Micro} times [Journal.append] on its own. *)

module Engine = Ft_engine.Engine
module Telemetry = Ft_engine.Telemetry
module Trace = Ft_obs.Trace
module Loadgen = Ft_serve.Loadgen
module Client = Ft_serve.Client
module Protocol = Ft_serve.Protocol
module Runner = Ft_serve.Runner
module Server = Ft_serve.Server
module Clock = Ft_util.Clock

type size = { clients : int; seeds_per_benchmark : int; pool : int }

let full = { clients = 1200; seeds_per_benchmark = 5; pool = 120 }
let smoke = { clients = 200; seeds_per_benchmark = 2; pool = 60 }

(* A full-size repetition's usual wall time on the reference machine,
   daemon start to shutdown; it sets the repetition count ({!Proc.runs}). *)
let rep_s = 0.55

let algorithm = "adaptive-sh"
let platform = "bdw"
let hottest = 10

let loadgen_config ~size ~seed ~socket_path =
  {
    (Loadgen.default_config ~socket_path) with
    Loadgen.clients = size.clients;
    concurrency = 1;
    tenants = 4;
    zipf_s = 1.1;
    seed;
    seeds_per_benchmark = size.seeds_per_benchmark;
    algorithm;
    platform;
    pool = size.pool;
  }

(* The catalog's rank order is the suite's benchmark order, tune seeds
   0.. within each, so the hottest fingerprints are its first entries. *)
let hot_specs ~size =
  List.concat_map
    (fun (p : Ft_prog.Program.t) ->
      List.init size.seeds_per_benchmark (fun seed ->
          {
            Protocol.benchmark = p.Ft_prog.Program.name;
            platform;
            algorithm;
            seed;
            pool = size.pool;
            top_x = None;
          }))
    Ft_suite.Suite.all
  |> List.filteri (fun i _ -> i < hottest)

(* One search per program, with a tune seed outside the catalog's range so
   the warm-up never pre-answers a timed request. *)
let warmup_specs ~size ~seed =
  List.map
    (fun (p : Ft_prog.Program.t) ->
      {
        Protocol.benchmark = p.Ft_prog.Program.name;
        platform;
        algorithm;
        seed = 1_000_000 + seed;
        pool = size.pool;
        top_x = None;
      })
    Ft_suite.Suite.all

(* One search the daemon ran, as its runner saw it. *)
type search = { jobs : int; run_s : float }

type daemon_report = {
  rss_mb : float;
  searches : search list;  (** in run order, the warm-up first *)
  snap : Telemetry.snapshot;
  busy_s : float;
  wait_s : float;
  group_runs : float list;  (** [Group_finished] run seconds, traced only *)
}

(* Runs in the forked daemon: serve until shutdown, then report.  Each
   search gets a fresh engine, as under the durable runner, so a search's
   work does not depend on which searches ran before it. *)
let daemon ~socket_path ~traced =
  let telemetry = Telemetry.create () in
  let trace = if traced then Some (Trace.create ~clock:Trace.Wall ()) else None in
  let fresh () = Runner.make ~engine:(Engine.create ~jobs:1 ~telemetry ?trace ()) in
  let searches = ref [] in
  let runner =
    {
      (fresh ()) with
      Runner.run =
        (fun spec ~fingerprint ~tick ->
          let j0 = Telemetry.completed telemetry and t0 = Clock.now () in
          let r = (fresh ()).Runner.run spec ~fingerprint ~tick in
          searches :=
            { jobs = Telemetry.completed telemetry - j0; run_s = Clock.now () -. t0 }
            :: !searches;
          r);
    }
  in
  ignore (Server.serve ?trace ~telemetry (Server.default_config ~socket_path) runner);
  let snap = Telemetry.snapshot telemetry in
  let timer name = Option.value ~default:0.0 (List.assoc_opt name snap.Telemetry.timers) in
  let group_runs =
    match trace with
    | None -> []
    | Some t ->
        List.filter_map
          (fun (s : Trace.stamped) ->
            match s.Trace.event with
            | Ft_obs.Event.Group_finished { run_s; _ } -> Some run_s
            | _ -> None)
          (Trace.events t)
  in
  {
    rss_mb = Proc.peak_rss_mb ();
    searches = List.rev !searches;
    snap;
    busy_s = timer "serve.run";
    wait_s = timer "serve.wait";
    group_runs;
  }

type rep = {
  setup_s : float;
  outcome : Loadgen.outcome;
  load_jobs : int;  (** engine jobs of the searches the load caused *)
  served_hot : string list;  (** [Client.tune] texts for {!hot_specs} *)
  stats : (string * int) list;
  report : daemon_report;
}

let fail fmt = Printf.ksprintf failwith fmt

let client_text = function
  | Ok (p : Protocol.result_payload) -> p.Protocol.text
  | Error f -> "error: " ^ Client.failure_to_string f

let rep spans ~size ~seed ~traced n =
  Spans.record spans "rep" @@ fun () ->
  let dir = Printf.sprintf "rep%d" n in
  Proc.mkdir_p dir;
  (* Relative, so the socket path fits sun_path wherever the checkout is. *)
  let socket_path = Filename.concat dir "d.sock" in
  let t0 = Clock.now () in
  let child = Proc.spawn (fun () -> daemon ~socket_path ~traced) in
  let finish () =
    Spans.record spans "shutdown" @@ fun () ->
    ignore (Client.shutdown ~retry_for:5.0 socket_path);
    Proc.collect child
  in
  let tune id spec = Client.tune ~socket_path ~id ~tenant:"t0" spec in
  match
    Spans.record spans "daemon_setup" (fun () ->
        (match Client.ping ~retry_for:10.0 socket_path with
        | Ok () -> ()
        | Error f -> fail "daemon never answered: %s" (Client.failure_to_string f));
        List.iteri
          (fun i spec ->
            match tune (Printf.sprintf "warmup%d" i) spec with
            | Ok _ -> ()
            | Error f -> fail "warm-up request failed: %s" (Client.failure_to_string f))
          (warmup_specs ~size ~seed));
    let setup_s = Clock.now () -. t0 in
    let outcome =
      Spans.record spans "loadgen" (fun () ->
          Loadgen.run (loadgen_config ~size ~seed ~socket_path))
    in
    (* Taken before the hot checks, so a search those cause is not
       counted as the load's. *)
    let stats =
      match Client.stats socket_path with
      | Ok s -> s
      | Error f -> fail "stats failed: %s" (Client.failure_to_string f)
    in
    let served_hot =
      Spans.record spans "hot_checks" (fun () ->
          List.mapi
            (fun i spec -> client_text (tune (Printf.sprintf "hot%d" i) spec))
            (hot_specs ~size))
    in
    (setup_s, outcome, served_hot, stats)
  with
  | setup_s, outcome, served_hot, stats ->
      let report = finish () in
      Proc.remove_tree dir;
      let warm = List.length Ft_suite.Suite.all in
      let searched = Option.value ~default:0 (List.assoc_opt "groups_completed" stats) in
      let load_jobs =
        List.fold_left ( + ) 0
          (List.filteri
             (fun i _ -> i >= warm && i < searched)
             (List.map (fun s -> s.jobs) report.searches))
      in
      { setup_s; outcome; load_jobs; served_hot; stats; report }
  | exception e ->
      (try ignore (finish ()) with _ -> ());
      raise e

(* The solo in-process answer for a spec: what [funcy tune] prints. *)
let solo (spec : Protocol.tune_spec) =
  let program = Option.get (Ft_suite.Suite.find spec.Protocol.benchmark) in
  let platform = Option.get (Ft_prog.Platform.of_short_name spec.Protocol.platform) in
  let engine = Engine.create ~jobs:1 () in
  let session =
    Funcytuner.Tuner.make_session ~pool_size:spec.Protocol.pool ~engine ~platform
      ~program
      ~input:(Ft_suite.Suite.tuning_input platform program)
      ~seed:spec.Protocol.seed ()
  in
  let result =
    Funcytuner.Adaptive_sh.run session.Funcytuner.Tuner.ctx
      (Lazy.force session.Funcytuner.Tuner.collection)
  in
  (Funcytuner.Result.render result, Telemetry.completed (Engine.telemetry engine))

type measured = {
  timed : rep list;
  traced : rep list;
  calib : Calib.t;  (** sampled before every repetition *)
  spans : Spans.span list;
  mismatches : int;  (** hot answers differing from the solo runs *)
  solo_jobs : int;
  solo_minor_words : float;
}

(* The solo references run after every repetition, so no daemon inherits
   their warmed-up heap. *)
let measure ~size ~seed ~seconds ~trace =
  let spans = Spans.create ~on:trace in
  let calib = Calib.create () in
  let timed, traced =
    Proc.repeat ~times:(Proc.runs ~seconds ~run_s:rep_s) ~trace (fun ~traced n ->
        Calib.sample calib;
        rep spans ~size ~seed ~traced n)
  in
  let words0 = Gc.minor_words () in
  let solos = List.map solo (hot_specs ~size) in
  let solo_minor_words = Gc.minor_words () -. words0 in
  let expected = List.map fst solos in
  let wrong r =
    List.fold_left2 (fun n served solo -> if served = solo then n else n + 1) 0 r.served_hot expected
  in
  let mismatches = List.fold_left (fun acc r -> acc + wrong r) 0 (timed @ traced) in
  {
    timed;
    traced;
    calib;
    spans = Spans.spans spans;
    mismatches;
    solo_jobs = List.fold_left (fun acc (_, j) -> acc + j) 0 solos;
    solo_minor_words;
  }
