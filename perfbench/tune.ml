(* The three tune workloads.  A spec is one (program, platform) pair of the
   suite tuned as CFR at the paper's budget K = 1000; each spec's tune seed
   is drawn from the workload seed, so the program only ever receives
   generated specs.

   - tune-cold: every spec on a fresh in-memory engine at jobs 2, so every
     job is a cache miss and the compiler and machine models run on each.
   - tune-resume: set-up tunes each spec cold (CFR then adaptive-sh) into a
     binary checkpoint; each timed pass loads it, replays both searches on
     100% cache hits and flushes it back.  Key construction, cache reads,
     noise sampling, the allocator, pool dispatch and the codec dominate.
     Its jobs-1 reference is the same replay, so pool.speedup and minor
     words per job describe the replay path, not a cold run.
   - tune-forked: the tune-cold specs on the forked substrates, even spec
     indices on the processes backend at jobs 2, odd ones on the sharded
     backend with 2 nodes: fork, IPC frames, codec deltas and shipment
     merges on top of tune-cold's compute. *)

module Engine = Ft_engine.Engine
module Backend = Ft_engine.Backend
module Telemetry = Ft_engine.Telemetry
module Checkpoint = Ft_engine.Checkpoint
module Trace = Ft_obs.Trace
module Tuner = Funcytuner.Tuner
module Result = Funcytuner.Result
module Clock = Ft_util.Clock

type kind = Cold | Resume | Forked

type size = { specs : int; pool : int }

let full = { specs = 21; pool = 1000 }
let smoke = { specs = 2; pool = 60 }

(* Worker count of every evaluating engine: the box's two cores. *)
let workers = 2

(* A full-size timed pass's usual wall time on the reference machine,
   with its calibration sample; it sets the pass count ({!Proc.runs}). *)
let pass_s = function Cold -> 0.95 | Resume -> 0.75 | Forked -> 1.9

type spec = {
  index : int;
  program : Ft_prog.Program.t;
  platform : Ft_prog.Platform.t;
  seed : int;
}

let specs ~size ~seed =
  let rng = Ft_util.Rng.create seed in
  List.concat_map
    (fun program -> List.map (fun platform -> (program, platform)) Ft_prog.Platform.all)
    Ft_suite.Suite.all
  |> List.filteri (fun i _ -> i < size.specs)
  |> List.mapi (fun index (program, platform) ->
         { index; program; platform; seed = Ft_util.Rng.int rng 1_000_000 })

let backend_of kind spec =
  match kind with
  | Forked when spec.index mod 2 = 0 -> Backend.Processes
  | Forked -> Backend.Sharded
  | Cold | Resume -> Backend.Domains

let checkpoint_path spec = Printf.sprintf "ck%02d.snap" spec.index

(* One session's engine-side facts, read off its telemetry. *)
type session = {
  output : string;  (** [Result.render] of every search run, or the exception *)
  ok : bool;
  seconds : float;
  backend : Backend.t;
  snap : Telemetry.snapshot;
  jobs : int;
  added : int;
      (** summaries the session added to its cache: the distinct builds,
          where [snap.builds] also counts a key two workers raced on *)
  flush_words : float;  (** minor words of its checkpoint flush, 0 without one *)
}

type pass = { wall_s : float; sessions : session list }

(* CFR, and for tune-resume adaptive-sh after it on the same collection. *)
let search spans kind ~pool ~engine spec =
  let session =
    Spans.record spans "make_session" (fun () ->
        Tuner.make_session ~pool_size:pool ~engine ~platform:spec.platform
          ~program:spec.program
          ~input:(Ft_suite.Suite.tuning_input spec.platform spec.program)
          ~seed:spec.seed ())
  in
  let collection =
    Spans.record spans "collect" (fun () -> Lazy.force session.Tuner.collection)
  in
  let cfr = Spans.record spans "cfr" (fun () -> Tuner.run_cfr session) in
  match kind with
  | Cold | Forked -> Result.render cfr
  | Resume ->
      let sh =
        Spans.record spans "adaptive_sh" (fun () ->
            Funcytuner.Adaptive_sh.run session.Tuner.ctx collection)
      in
      Result.render cfr ^ Result.render sh

let create_engine kind spec ~jobs ?cache ?quarantine ?checkpoint ?trace () =
  match backend_of kind spec with
  | Backend.Sharded ->
      Engine.create ~backend:Backend.Sharded ~nodes:jobs ?cache ?quarantine
        ?checkpoint ?trace ()
  | backend ->
      Engine.create ~jobs ~backend ?cache ?quarantine ?checkpoint ?trace ()

(* [`Setup] runs tune-resume's spec cold into its checkpoint; [`Timed]
   loads that checkpoint first.  [`Oracle] is the untimed cold sequential
   domains run every output is compared against.  [`Reference] is the
   untimed run at jobs 1 that pool.speedup divides by: the oracle for
   tune-cold and tune-forked, the timed replay for tune-resume. *)
let session spans kind ~pool ?trace mode spec =
  Spans.record spans ~spec:spec.index "session" @@ fun () ->
  let t0 = Clock.now () in
  (* the session's engine, with its cache size on creation *)
  let engine = ref None in
  let started e = engine := Some (e, Ft_engine.Cache.length (Engine.cache e)) in
  let flush_words = ref 0.0 in
  let run () =
    match (kind, mode) with
    | _, `Oracle | (Cold | Forked), `Reference ->
        let e = Engine.create ~jobs:1 () in
        started e;
        search spans kind ~pool ~engine:e spec
    | (Cold | Forked), (`Setup | `Timed) ->
        let e = create_engine kind spec ~jobs:workers ?trace () in
        started e;
        search spans kind ~pool ~engine:e spec
    | Resume, (`Setup | `Timed | `Reference) ->
        (* Saved only by the explicit flush: one snapshot per session. *)
        let checkpoint =
          Checkpoint.create ~path:(checkpoint_path spec) ~every:max_int ()
        in
        let cache, quarantine =
          if mode = `Setup then (None, None)
          else
            match
              Spans.record spans "checkpoint_load" (fun () ->
                  Checkpoint.load checkpoint)
            with
            | Some (c, q) -> (Some c, Some q)
            | None -> failwith ("no checkpoint at " ^ checkpoint_path spec)
        in
        let jobs = if mode = `Reference then 1 else workers in
        let e =
          create_engine kind spec ~jobs ?cache ?quarantine ~checkpoint ?trace ()
        in
        started e;
        let out = search spans kind ~pool ~engine:e spec in
        let words0 = Gc.minor_words () in
        Spans.record spans "checkpoint_flush" (fun () -> Engine.flush_checkpoint e);
        flush_words := Gc.minor_words () -. words0;
        out
  in
  let output, ok =
    match run () with
    | out -> (out, true)
    | exception e -> ("raised " ^ Printexc.to_string e, false)
  in
  let seconds = Clock.now () -. t0 in
  let telemetry, added =
    match !engine with
    | Some (e, size) -> (Engine.telemetry e, Ft_engine.Cache.length (Engine.cache e) - size)
    | None -> (Telemetry.create (), 0)
  in
  {
    output;
    ok;
    seconds;
    backend = (if mode = `Oracle || mode = `Reference then Backend.Domains else backend_of kind spec);
    snap = Telemetry.snapshot telemetry;
    jobs = Telemetry.completed telemetry;
    added;
    flush_words = !flush_words;
  }

let pass spans kind ~pool ~traced mode specs =
  Spans.record spans "pass" @@ fun () ->
  let trace = if traced then Some (Trace.create ~clock:Trace.Wall ()) else None in
  let t0 = Clock.now () in
  let sessions = List.map (session spans kind ~pool ?trace mode) specs in
  let wall_s = Clock.now () -. t0 in
  { wall_s; sessions }

let pass_jobs p = List.fold_left (fun acc s -> acc + s.jobs) 0 p.sessions

(* What a tune run ships back to the harness process. *)
type measured = {
  setup_s : float;
  timed : pass list;
  traced : pass list;
  reference : pass;
  reference_minor_words : float;
  checked : int;  (** sessions compared against the oracle *)
  mismatches : int;
  peak_rss_mb : float;
  calib : Calib.t;  (** sampled before set-up and before every pass *)
  spans : Spans.span list;
}

let setup kind ~size specs =
  let mode = match kind with Resume -> `Setup | Cold | Forked -> `Timed in
  ignore (pass (Spans.create ~on:false) kind ~pool:size.pool ~traced:false mode specs)

(* Only the set-up, for the extra set-up samples taken in fresh children. *)
let setup_only kind ~size ~seed =
  let calib = Calib.create () in
  Calib.sample calib;
  let t0 = Clock.now () in
  setup kind ~size (specs ~size ~seed);
  let seconds = Clock.now () -. t0 in
  Calib.sample calib;
  (seconds, calib)

(* Set-up, then a fixed number of timed passes (see {!Proc.runs}); with
   [trace], untraced and traced passes alternate so the tracing overhead is
   measured on the same heap and the same specs.  Then the untimed
   reference pass, and for tune-resume the oracle, which every timed and
   reference output is compared against. *)
let measure kind ~size ~seed ~seconds ~trace =
  let calib = Calib.create () in
  Calib.sample calib;
  let t0 = Clock.now () in
  let spans = Spans.create ~on:trace in
  let specs = specs ~size ~seed in
  setup kind ~size specs;
  let setup_s = Clock.now () -. t0 in
  let timed, traced =
    Proc.repeat ~times:(Proc.runs ~seconds ~run_s:(pass_s kind)) ~trace (fun ~traced _ ->
        Calib.sample calib;
        pass spans kind ~pool:size.pool ~traced `Timed specs)
  in
  let peak_rss_mb = Proc.peak_rss_mb () in
  let untimed mode = pass (Spans.create ~on:false) kind ~pool:size.pool ~traced:false mode specs in
  let reference = untimed `Reference in
  (* Exact only once every lazy per-domain table the reference touches
     exists, so the traced run counts a second, identical reference pass.
     Checkpoint flushes are left out: they name a temporary file from the
     standard library's self-seeded generator, and Printf pads a short
     random name with one more allocation, two words one time in sixteen. *)
  let reference_minor_words =
    if trace then begin
      let words0 = Gc.minor_words () in
      let p = untimed `Reference in
      Gc.minor_words () -. words0
      -. List.fold_left (fun acc s -> acc +. s.flush_words) 0.0 p.sessions
    end
    else 0.0
  in
  let oracle, checked =
    match kind with
    | Resume -> (untimed `Oracle, reference :: timed @ traced)
    | Cold | Forked -> (reference, timed @ traced)
  in
  let wrong p =
    List.fold_left2
      (fun n s r -> if s.ok && r.ok && s.output = r.output then n else n + 1)
      0 p.sessions oracle.sessions
  in
  {
    setup_s;
    timed;
    traced;
    reference;
    reference_minor_words;
    checked = List.fold_left (fun acc p -> acc + List.length p.sessions) 0 checked;
    mismatches = List.fold_left (fun acc p -> acc + wrong p) 0 checked;
    peak_rss_mb;
    calib;
    spans = Spans.spans spans;
  }
