(* Per-layer micro-benchmarks: Bechamel OLS estimates of time (monotonic
   clock) and minor words per operation for each piece of an evaluation's
   path and of the serve path.  Inputs come from the workload generator: a
   real Cloverleaf outline on Broadwell tuned at K = 1000 with the workload
   seed, CVs from its pool, and the ~2000-entry cache that tune leaves.

   The procpool and shard cases fork, so they run first, before the pool
   case spawns this process's first domain.

   [quick] (smoke runs) tunes the fixture at K = 60 and gives every case a
   tenth of its time: it checks that each case runs and yields an
   estimate, not the estimate's value. *)

open Bechamel
module Engine = Ft_engine.Engine
module Cache = Ft_engine.Cache
module Codec = Ft_engine.Cache_codec
module Exec = Ft_machine.Exec
module Toolchain = Ft_machine.Toolchain
module Outline = Ft_outline.Outline
module Tuner = Funcytuner.Tuner
module Protocol = Ft_serve.Protocol
module Scheduler = Ft_serve.Scheduler
module Journal = Ft_serve.Journal
module Allocator = Funcytuner.Allocator
module Trace = Ft_obs.Trace
module Telemetry = Ft_engine.Telemetry
module Framing = Ft_framing.Framing

(* (ns per run, minor words per run) *)
let estimate ~quota fn =
  let elt = List.hd (Test.elements (Test.make ~name:"case" (Staged.stage fn))) in
  let cfg =
    Benchmark.cfg ~limit:400 ~quota:(Time.second quota) ~kde:None ~stabilize:false ()
  in
  let clock = Toolkit.Instance.monotonic_clock
  and words = Toolkit.Instance.minor_allocated in
  let raw = Benchmark.run cfg [ clock; words ] elt in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let est instance =
    match Analyze.OLS.estimates (Analyze.one ols instance raw) with
    | Some [ e ] when Float.is_finite e -> e
    | _ -> failwith "micro: no OLS estimate"
  in
  (est clock, est words)

(* Cycles through [a], one element per call. *)
let cycle a =
  let i = ref 0 in
  fun () ->
    let x = a.(!i) in
    i := (!i + 1) mod Array.length a;
    x

let run ~seed ~quick =
  let metrics = ref [] in
  (* [per] operations per call; the estimate is reported in units of
     [ns_per_unit] nanoseconds, and [words] names a minor-words metric. *)
  let case ?(quota = 0.12) ?(per = 1.0) ?words name ~ns_per_unit fn =
    let ns, w = estimate ~quota:(if quick then quota /. 10.0 else quota) fn in
    metrics := (name, ns /. per /. ns_per_unit) :: !metrics;
    Option.iter (fun wname -> metrics := (wname, w /. per) :: !metrics) words
  in
  let ints = Array.init 64 Fun.id in
  case "procpool.us_per_job" ~quota:0.3 ~per:64.0 ~ns_per_unit:1e3 (fun () ->
      ignore (Ft_engine.Procpool.map ~workers:2 succ ints));
  case "shard.us_per_job" ~quota:0.3 ~per:64.0 ~ns_per_unit:1e3 (fun () ->
      ignore (Ft_shard.Shard.map ~nodes:2 succ ints));
  (* The fixture: one real tune, sequential, no domains. *)
  let platform = Ft_prog.Platform.Broadwell in
  let program = Option.get (Ft_suite.Suite.find "Cloverleaf") in
  let input = Ft_suite.Suite.tuning_input platform program in
  let engine = Engine.create ~jobs:1 () in
  let session =
    Tuner.make_session ~pool_size:(if quick then 60 else 1000) ~engine ~platform ~program ~input
      ~seed ()
  in
  ignore (Tuner.run_cfr session);
  let toolchain = session.Tuner.ctx.Funcytuner.Context.toolchain in
  let arch = toolchain.Toolchain.arch in
  let pool = session.Tuner.ctx.Funcytuner.Context.pool in
  let outline = session.Tuner.outline in
  let modules = Outline.module_names outline in
  let assignments =
    Array.init 64 (fun i ->
        List.mapi (fun j m -> (m, pool.((i + (j * 7)) mod Array.length pool))) modules)
  in
  let bindings = Array.of_list (Cache.bindings (Engine.cache engine)) in
  let next_binding = cycle bindings in
  let cache = Engine.cache engine in
  let next_assignment = cycle assignments in
  case "key.ns" ~words:"key.words" ~ns_per_unit:1.0 (fun () ->
      ignore
        (Engine.key ~toolchain ~program ~input
           (Engine.Assigned { assignment = next_assignment (); instrumented = true })));
  case "cache.find_ns" ~ns_per_unit:1.0 (fun () -> ignore (Cache.find cache (fst (next_binding ()))));
  let scratch_cache = Cache.create () in
  case "cache.add_ns" ~ns_per_unit:1.0 (fun () ->
      let k, s = next_binding () in
      Cache.add scratch_cache k s);
  let buf = Buffer.create 4096 in
  case "codec.encode_ns" ~ns_per_unit:1.0 (fun () ->
      Buffer.clear buf;
      let k, s = next_binding () in
      Codec.encode_record buf k s);
  let file = Codec.encode_file (Array.to_list bindings) in
  let records = float_of_int (Array.length bindings) in
  case "codec.decode_ns" ~quota:0.3 ~per:records ~ns_per_unit:1.0 (fun () ->
      ignore (Codec.decode ~pos:(String.length Codec.header) file));
  case "cache.save_ms" ~quota:0.3 ~ns_per_unit:1e6 (fun () -> Cache.save cache ~path:"micro.cache");
  case "cache.load_ms" ~quota:0.3 ~ns_per_unit:1e6 (fun () -> ignore (Cache.load "micro.cache"));
  let next_cv = cycle pool in
  case "compiler.uniform_us" ~words:"compiler.uniform_words" ~ns_per_unit:1e3 (fun () ->
      ignore (Toolchain.compile_uniform toolchain ~cv:(next_cv ()) program));
  case "compiler.assigned_us" ~words:"compiler.assigned_words" ~ns_per_unit:1e3 (fun () ->
      let a = next_assignment () in
      ignore (Outline.compile ~toolchain outline ~assignment:(fun m -> List.assoc m a) ()));
  let binaries =
    Array.init 16 (fun _ ->
        let a = next_assignment () in
        Outline.compile ~toolchain outline ~assignment:(fun m -> List.assoc m a) ())
  in
  let next_binary = cycle binaries in
  case "machine.evaluate_us" ~words:"machine.evaluate_words" ~ns_per_unit:1e3 (fun () ->
      ignore (Exec.evaluate ~arch ~input (next_binary ())));
  let regions =
    Array.of_list (List.map (fun (l : Ft_prog.Loop.t) -> l.Ft_prog.Loop.name) program.Ft_prog.Program.loops)
  in
  let next_region = cycle regions in
  case "machine.quirk_ns" ~ns_per_unit:1.0 (fun () ->
      ignore
        (Ft_machine.Quirk.factor ~platform ~program:program.Ft_prog.Program.name
           ~region:(next_region ()) (next_cv ())));
  let rng = Ft_util.Rng.create seed in
  case "machine.sample_ns" ~ns_per_unit:1.0 (fun () ->
      ignore (Exec.sample ~rng ~instrumented:true (snd (next_binding ()))));
  (* Wire layers, over one socketpair written then read in-process. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let shipment = Array.sub bindings 0 (min 16 (Array.length bindings)) in
  case "ipc.roundtrip_us" ~ns_per_unit:1e3 (fun () ->
      Ft_engine.Ipc.write a shipment;
      match (Ft_engine.Ipc.read b : ((string * Exec.summary) array, _) result) with
      | Ok _ -> ()
      | Error e -> failwith (Ft_engine.Ipc.error_to_string e));
  let kib = Bytes.make 1024 'x' in
  case "framing.roundtrip_us" ~ns_per_unit:1e3 (fun () ->
      Framing.write_bytes a kib;
      match Framing.read_bytes b with
      | Ok _ -> ()
      | Error e -> failwith (Framing.error_to_string e));
  Unix.close a;
  Unix.close b;
  let spec i =
    {
      Protocol.benchmark = "Cloverleaf";
      platform = "bdw";
      algorithm = "adaptive-sh";
      seed = i;
      pool = 120;
      top_x = None;
    }
  in
  case "protocol.codec_ns" ~ns_per_unit:1.0 (fun () ->
      let req =
        Protocol.Tune { id = "r00001"; tenant = "t1"; spec = spec 7; deadline_ms = None }
      in
      match
        Ft_obs.Json.of_string (Ft_obs.Json.to_string (Protocol.request_to_json req))
      with
      | Ok j -> ignore (Protocol.request_of_json j)
      | Error e -> failwith e);
  let specs = Array.init 1000 (fun i -> (spec i, Protocol.fingerprint (spec i))) in
  let member = { Scheduler.id = "m"; tenant = "t1"; deadline = None; payload = () } in
  let outcome = { Scheduler.text = "result"; speedup = 1.1; evaluations = 120 } in
  case "scheduler.op_ns" ~per:1000.0 ~ns_per_unit:1.0 (fun () ->
      let s = Scheduler.create ~max_queue:4 in
      Array.iter
        (fun (spec, fingerprint) ->
          ignore (Scheduler.submit s ~spec ~fingerprint member);
          ignore (Scheduler.next s);
          ignore (Scheduler.complete s ~fingerprint outcome))
        specs);
  let memo = Scheduler.create ~max_queue:4 in
  let spec0, fp0 = specs.(0) in
  Scheduler.remember memo ~fingerprint:fp0 outcome;
  case "scheduler.memo_ns" ~ns_per_unit:1.0 (fun () ->
      ignore (Scheduler.submit memo ~spec:spec0 ~fingerprint:fp0 member));
  let journal = Journal.open_ "micro.journal" in
  case "journal.append_us" ~quota:0.3 ~ns_per_unit:1e3 (fun () ->
      Journal.append journal (Journal.Started { fingerprint = fp0 }));
  Journal.close journal;
  let scores = Array.init 32 (fun i -> 1.0 +. (float_of_int ((i * 7919) mod 97) /. 100.0)) in
  let allocate () =
    let rec go t pulls =
      match Allocator.next_batch t with
      | [], _ -> pulls
      | batch, t ->
          let t =
            Allocator.observe t
              (List.map (fun (p : Allocator.pull) -> scores.(p.Allocator.arm)) batch)
          in
          go t (pulls + List.length batch)
    in
    go (Allocator.create ~arms:32 ~budget:120 ()) 0
  in
  let pulls = float_of_int (allocate ()) in
  case "allocator.step_ns" ~per:pulls ~ns_per_unit:1.0 (fun () -> ignore (allocate ()));
  let keys = Array.map fst (Array.sub bindings 0 (min 1000 (Array.length bindings))) in
  case "trace.emit_ns" ~per:(float_of_int (Array.length keys)) ~ns_per_unit:1.0 (fun () ->
      let t = Some (Trace.create ~clock:Trace.Wall ()) in
      Array.iter (fun key -> Trace.cache_lookup t ~key ~hit:true) keys);
  let telemetry = Telemetry.create () in
  case "telemetry.tick_ns" ~ns_per_unit:1.0 (fun () -> Telemetry.tick telemetry);
  let trivial = Array.init 256 Fun.id in
  case "pool.ns_per_job" ~per:256.0 ~ns_per_unit:1.0 (fun () ->
      ignore (Ft_engine.Pool.map ~jobs:2 succ trivial));
  List.rev !metrics
