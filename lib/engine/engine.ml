module Rng = Ft_util.Rng
module Stats = Ft_util.Stats
module Cv = Ft_flags.Cv
module Platform = Ft_prog.Platform
module Input = Ft_prog.Input
module Toolchain = Ft_machine.Toolchain
module Exec = Ft_machine.Exec
module Outline = Ft_outline.Outline
module Fault = Ft_fault.Fault
module Event = Ft_obs.Event
module Telemetry = Ft_obs.Telemetry
module Trace = Ft_obs.Trace

type build =
  | Uniform of { cv : Cv.t; instrumented : bool }
  | Assigned of { assignment : (string * Cv.t) list; instrumented : bool }

type job = { build : build; rng : Rng.t }

type policy = {
  faults : Fault.t option;
  timeout_s : float;
  max_retries : int;
  backoff_base_s : float;
  backoff_cap_s : float;
  repeats : int;
}

let default_policy =
  {
    faults = None;
    timeout_s = 3600.0;
    max_retries = 2;
    backoff_base_s = 0.1;
    backoff_cap_s = 5.0;
    repeats = 1;
  }

type job_outcome =
  | Ok of Exec.measurement
  | Build_failed of string
  | Crashed of string
  | Wrong_answer
  | Timed_out of float
  | Worker_crashed of string

let elapsed = function
  | Ok m -> Some m.Exec.elapsed_s
  | Timed_out s -> Some s
  | Build_failed _ | Crashed _ | Wrong_answer | Worker_crashed _ -> None

let outcome_to_string = function
  | Ok m -> Printf.sprintf "ok(%.4fs)" m.Exec.elapsed_s
  | Build_failed m -> "build-failed(" ^ m ^ ")"
  | Crashed d -> "crashed(" ^ d ^ ")"
  | Wrong_answer -> "wrong-answer"
  | Timed_out s -> Printf.sprintf "timed-out(%.1fs)" s
  | Worker_crashed d -> "worker-crashed(" ^ d ^ ")"

(* Payload-free outcome tag for trace events. *)
let outcome_tag = function
  | Ok _ -> "ok"
  | Build_failed _ -> "build-failed"
  | Crashed _ -> "crashed"
  | Wrong_answer -> "wrong-answer"
  | Timed_out _ -> "timed-out"
  | Worker_crashed _ -> "worker-crashed"

let reason_tag = function
  | Quarantine.Build_failed _ -> "build-failed"
  | Quarantine.Crashed _ -> "crashed"
  | Quarantine.Wrong_answer -> "wrong-answer"
  | Quarantine.Timed_out _ -> "timed-out"

let outcome_of_reason = function
  | Quarantine.Build_failed m -> Build_failed m
  | Quarantine.Crashed d -> Crashed d
  | Quarantine.Wrong_answer -> Wrong_answer
  | Quarantine.Timed_out s -> Timed_out s

(* What a forked worker has added to its (fork-private) cache and
   quarantine copies, so the parent can adopt the entries from the
   chunk's delta.  Threaded as a field of [t] rather than a parameter so
   the whole measurement path stays oblivious to which backend runs it. *)
type journal = {
  mutable j_cache : (string * Exec.summary) list;
  mutable j_quar : (string * Quarantine.reason) list;
}

type t = {
  jobs : int;
  backend : Backend.t;
  kill_workers_after : int option;
  nodes : int;
  cache : Cache.t;
  telemetry : Telemetry.t;
  policy : policy;
  quarantine : Quarantine.t;
  checkpoint : Checkpoint.t option;
  trace : Trace.t option;
  journal : journal option;
}

let create ?(jobs = 1) ?(backend = Backend.default) ?kill_workers_after
    ?(nodes = 1) ?cache ?telemetry ?(policy = default_policy) ?quarantine
    ?checkpoint ?trace () =
  if jobs < 1 then invalid_arg "Engine.create: jobs must be >= 1";
  if nodes < 1 then invalid_arg "Engine.create: nodes must be >= 1";
  if policy.repeats < 1 then
    invalid_arg "Engine.create: policy.repeats must be >= 1";
  if policy.max_retries < 0 then
    invalid_arg "Engine.create: policy.max_retries must be >= 0";
  if policy.timeout_s <= 0.0 then
    invalid_arg "Engine.create: policy.timeout_s must be positive";
  (match kill_workers_after with
  | Some k when k < 0 ->
      invalid_arg "Engine.create: kill_workers_after must be >= 0"
  | _ -> ());
  {
    jobs;
    backend;
    kill_workers_after;
    nodes;
    cache = (match cache with Some c -> c | None -> Cache.create ());
    telemetry =
      (match telemetry with Some t -> t | None -> Telemetry.create ());
    policy;
    quarantine =
      (match quarantine with Some q -> q | None -> Quarantine.create ());
    checkpoint;
    trace;
    journal = None;
  }

let cache t = t.cache
let telemetry t = t.telemetry
let policy t = t.policy
let quarantine t = t.quarantine
let trace t = t.trace

(* Report one fact, once: counted by the one rule and recorded by the one
   primitive, which a logical clock projects. *)
let note t event =
  Telemetry.count t.telemetry event;
  Trace.emit t.trace event

(* A save is reported only when the sync changed the log. *)
let checkpoint_with t sync =
  match t.checkpoint with
  | None -> ()
  | Some ck ->
      if sync ck ~cache:t.cache ~quarantine:t.quarantine then
        note t (Event.Checkpoint_saved { path = Checkpoint.path ck })

let checkpoint_tick t = checkpoint_with t Checkpoint.tick
let flush_checkpoint t = checkpoint_with t Checkpoint.flush

let timed t name f =
  let t0 = Ft_util.Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      note t (Event.Timer { name; seconds = Ft_util.Clock.now () -. t0 }))
    f

let instrumented = function
  | Uniform { instrumented; _ } | Assigned { instrumented; _ } -> instrumented

(* -- the evaluation context ---------------------------------------------- *)

(* A job's cache key and its build depend on the job and on its context:
   toolchain, outline, program and input.  Everything the context alone
   decides is resolved here, once per context rather than once per job.

   A key is the MD5 hex digest of a canonical description of everything
   that determines the produced binary and its noise-free runtime:

     <compiler>;<platform>;<program>;size=<%h>;steps=<n>;<kind>

   then the CV of a uniform build, or [";<module>=<cv>"] for each module
   of an assigned build, sorted by module name so equal assignments
   written in different orders share a key.  [<kind>] tells a
   whole-program build from a per-module build that happens to assign one
   CV everywhere (different binaries: only the latter is outlined) and
   carries the instrumentation flag.  The bytes are pinned: they are what
   every existing cache digested.

   So the head before the CVs is one of four strings, and the modules of
   an assignment in outline order (every search builds them from
   {!Outline.module_names}) land at fixed places in the body: each CV has
   {!Cv.compact_length} bytes. *)
type context = {
  toolchain : Toolchain.t;
  outline : Outline.t option;
  program : Ft_prog.Program.t;
  input : Input.t;
  heads : string array;  (* by [kind] *)
  modules : string array;  (* the outline's modules, in outline order *)
  segments : string array;  (* [";<module>="], by module *)
  offsets : int array;  (* where each module's segment starts in the body *)
  body : int;  (* body length of an assignment in outline order *)
}

let kind = function
  | Uniform { instrumented = false; _ } -> 0
  | Uniform { instrumented = true; _ } -> 1
  | Assigned { instrumented = false; _ } -> 2
  | Assigned { instrumented = true; _ } -> 3

let build_context ~(toolchain : Toolchain.t) ?outline
    ~(program : Ft_prog.Program.t) ~(input : Input.t) () =
  let prefix =
    String.concat ";"
      [
        toolchain.Toolchain.cprofile.Ft_compiler.Cprofile.name;
        Platform.short_name toolchain.Toolchain.arch.Ft_machine.Arch.platform;
        program.Ft_prog.Program.name;
        Printf.sprintf "size=%h;steps=%d;" input.Input.size input.Input.steps;
      ]
  in
  let heads =
    Array.map (( ^ ) prefix)
      [|
        "uniform;instr=false;";
        "uniform;instr=true;";
        "assigned;instr=false";
        "assigned;instr=true";
      |]
  in
  let modules =
    match outline with
    | None -> [||]
    | Some o -> Array.of_list (Outline.module_names o)
  in
  let segments = Array.map (fun m -> ";" ^ m ^ "=") modules in
  let by_name = Array.init (Array.length modules) Fun.id in
  Array.stable_sort
    (fun i j -> String.compare modules.(i) modules.(j))
    by_name;
  let offsets = Array.make (Array.length modules) 0 in
  let body =
    Array.fold_left
      (fun pos i ->
        offsets.(i) <- pos;
        pos + String.length segments.(i) + Cv.compact_length)
      0 by_name
  in
  { toolchain; outline; program; input; heads; modules; segments; offsets; body }

(* Each domain keeps the last context it resolved: a batch resolves its
   context once, and so does a search that calls the single-evaluation
   entry points once per job in one context (OpenTuner and COBAYN
   evaluate every candidate that way).  Every part of a context is
   immutable, so physical equality of the parts is enough. *)
let last_context = Domain.DLS.new_key (fun () -> ref None)

let resolve ~toolchain ?outline ~program ~input () =
  let last = Domain.DLS.get last_context in
  match !last with
  | Some c
    when c.toolchain == toolchain && c.program == program && c.input == input
         && Option.equal ( == ) c.outline outline ->
      c
  | _ ->
      let c = build_context ~toolchain ?outline ~program ~input () in
      last := Some c;
      c

(* Each domain writes its keys into one scratch buffer and digests them
   in place: no per-key string. *)
let scratch = Domain.DLS.new_key (fun () -> ref (Bytes.create 4096))

let scratch_of len =
  let r = Domain.DLS.get scratch in
  if Bytes.length !r < len then r := Bytes.create (2 * len);
  !r

let put s buf pos =
  Bytes.blit_string s 0 buf pos (String.length s);
  pos + String.length s

let put_cv cv buf pos =
  Cv.blit_compact cv buf pos;
  pos + Cv.compact_length

let digest buf len = Digest.to_hex (Digest.subbytes buf 0 len)

(* [f i cv] for module [i] of an assignment that lists exactly the
   outline's modules in outline order, then [true]; [false], after some
   of the calls, for any other assignment. *)
let iter_in_order c assignment f =
  let n = Array.length c.modules in
  let rec from i = function
    | [] -> i = n
    | (m, cv) :: rest ->
        i < n
        && String.equal m (Array.unsafe_get c.modules i)
        && begin
             f i cv;
             from (i + 1) rest
           end
  in
  from 0 assignment

(* Any other assignment is sorted (stably) by module name. *)
let sorted_key head assignment =
  let a = Array.of_list assignment in
  Array.stable_sort (fun (m, _) (m', _) -> String.compare m m') a;
  let len =
    Array.fold_left
      (fun len (m, _) -> len + String.length m + 2 + Cv.compact_length)
      (String.length head) a
  in
  let buf = scratch_of len in
  ignore
    (Array.fold_left
       (fun pos (m, cv) ->
         Bytes.unsafe_set buf pos ';';
         let pos = put m buf (pos + 1) in
         Bytes.unsafe_set buf pos '=';
         put_cv cv buf (pos + 1))
       (put head buf 0) a);
  digest buf len

let key_in c build =
  let head = c.heads.(kind build) in
  match build with
  | Uniform { cv; _ } ->
      let len = String.length head + Cv.compact_length in
      let buf = scratch_of len in
      ignore (put_cv cv buf (put head buf 0));
      digest buf len
  | Assigned { assignment; _ } ->
      let len = String.length head + c.body in
      let buf = scratch_of len in
      let at = put head buf 0 in
      let place i cv =
        ignore (put_cv cv buf (put c.segments.(i) buf (at + c.offsets.(i))))
      in
      if iter_in_order c assignment place then digest buf len
      else sorted_key head assignment

let key ~toolchain ~program ~input build =
  key_in (resolve ~toolchain ~program ~input ()) build

(* The (module, CV) pairs a build compiles, for the per-module ICE check.
   A whole-program build is one compilation unit; per-module builds are
   checked in sorted module order so the first ICE reported is stable. *)
let compilations = function
  | Uniform { cv; _ } -> [ ("<whole-program>", cv) ]
  | Assigned { assignment; _ } ->
      List.sort (fun (a, _) (b, _) -> String.compare a b) assignment

(* The outline's module CVs, in module order: read off an assignment in
   outline order, looked up by name otherwise. *)
let module_cvs c assignment =
  let cvs = Array.make (Array.length c.modules) Cv.o3 in
  if not (iter_in_order c assignment (Array.set cvs)) then
    Array.iteri
      (fun i m ->
        match List.find_opt (fun (m', _) -> String.equal m m') assignment with
        | Some (_, cv) -> cvs.(i) <- cv
        | None -> invalid_arg ("Engine: assignment misses module " ^ m))
      c.modules;
  cvs

let compile c build =
  match build with
  | Uniform { cv; instrumented } ->
      Toolchain.compile_uniform c.toolchain ~cv ~instrumented c.program
  | Assigned { assignment; instrumented } -> (
      match c.outline with
      | None ->
          invalid_arg "Engine: a per-module build requires an ?outline"
      | Some o ->
          Outline.compile_modules ~toolchain:c.toolchain o
            ~cvs:(module_cvs c assignment) ~instrumented ())

(* [key] is [key_in c build], which the measurement path has already
   computed for its quarantine and trace bookkeeping. *)
let summary_in t c ~key build =
  match Cache.find t.cache key with
  | Some s ->
      note t (Event.Cache_hit { key });
      s
  | None ->
      note t (Event.Cache_miss { key });
      let binary = timed t "build" (fun () -> compile c build) in
      note t (Event.Build_done { key });
      let run =
        timed t "run" (fun () ->
            Exec.evaluate ~arch:c.toolchain.Toolchain.arch ~input:c.input
              binary)
      in
      note t (Event.Run_done { key });
      let s = Exec.summarize run in
      Cache.add t.cache key s;
      (match t.journal with
      | Some j -> j.j_cache <- (key, s) :: j.j_cache
      | None -> ());
      checkpoint_tick t;
      s

let summary t ~toolchain ?outline ~program ~input build =
  let c = resolve ~toolchain ?outline ~program ~input () in
  summary_in t c ~key:(key_in c build) build

let evaluate t ~toolchain ?outline ~program ~input build =
  (summary t ~toolchain ?outline ~program ~input build).Exec.sum_total_s

(* -- the fault-aware measurement path ---------------------------------- *)

let quarantine_add t key reason =
  if Quarantine.find t.quarantine key = None then begin
    Quarantine.add t.quarantine key reason;
    (match t.journal with
    | Some j -> j.j_quar <- (key, reason) :: j.j_quar
    | None -> ());
    note t (Event.Quarantine_added { key; reason = reason_tag reason });
    checkpoint_tick t
  end

(* Draw the job's measurement: [repeats] samples from the job's private
   stream, each possibly inflated into a heavy-tailed outlier by the fault
   model, reduced to one robust representative.  With [repeats = 1] and no
   fault model this is {e exactly} the historical single [Exec.sample] —
   bit-compatibility with fault-free runs is load-bearing for the existing
   determinism tests. *)
let sample_measurement t ~key ~rng ~instrumented s =
  let n = t.policy.repeats in
  match (n, t.policy.faults) with
  | 1, None -> Exec.sample ~rng ~instrumented s
  | _ ->
      let draw repeat =
        let m = Exec.sample ~rng ~instrumented s in
        match t.policy.faults with
        | None -> m
        | Some f -> (
            match Fault.outlier f ~key ~repeat with
            | None -> m
            | Some factor ->
                note t (Event.Outlier { key });
                { m with Exec.elapsed_s = m.Exec.elapsed_s *. factor })
      in
      (* Samples must be drawn in repeat order: they share the job stream. *)
      let samples = Array.make n (draw 0) in
      for i = 1 to n - 1 do
        samples.(i) <- draw i
      done;
      samples.(Stats.robust_representative
                 (Array.map (fun m -> m.Exec.elapsed_s) samples))

let run_job t c ~key_str { build; rng } =
  match Quarantine.find t.quarantine key_str with
  | Some reason ->
      note t
        (Event.Quarantine_hit { key = key_str; reason = reason_tag reason });
      outcome_of_reason reason
  | None -> (
      let ice_module =
        match t.policy.faults with
        | None -> None
        | Some f ->
            List.find_map
              (fun (module_name, cv) ->
                if
                  Fault.ice f ~program:c.program.Ft_prog.Program.name
                    ~module_name cv
                then Some module_name
                else None)
              (compilations build)
      in
      match ice_module with
      | Some module_name ->
          note t (Event.Fault_injected { key = key_str; fault = "ice" });
          quarantine_add t key_str (Quarantine.Build_failed module_name);
          Build_failed module_name
      | None -> (
          let s = summary_in t c ~key:key_str build in
          match t.policy.faults with
          | None ->
              Ok
                (sample_measurement t ~key:key_str ~rng
                   ~instrumented:(instrumented build) s)
          | Some f ->
              (* The backoff is simulated: recorded as the wall-clock the
                 policy would have spent, never slept (faults are
                 simulated; so is the waiting). *)
              let retry attempt k =
                let wait =
                  Rng.backoff ~base:t.policy.backoff_base_s
                    ~cap:t.policy.backoff_cap_s attempt
                in
                note t
                  (Event.Retry { key = key_str; attempt; backoff_s = wait });
                note t (Event.Timer { name = "backoff"; seconds = wait });
                k (attempt + 1)
              in
              let rec attempt_run attempt =
                match Fault.run_fault f ~key:key_str ~attempt with
                | Fault.Run_ok -> validate ()
                | Fault.Crash { transient } ->
                    note t
                      (Event.Fault_injected { key = key_str; fault = "crash" });
                    if transient && attempt < t.policy.max_retries then
                      retry attempt attempt_run
                    else begin
                      let detail =
                        if transient then "transient crash, retries exhausted"
                        else "persistent crash"
                      in
                      quarantine_add t key_str (Quarantine.Crashed detail);
                      Crashed detail
                    end
                | Fault.Hang { factor; transient } ->
                    let elapsed_s = factor *. s.Exec.sum_total_s in
                    if elapsed_s > t.policy.timeout_s then begin
                      note t
                        (Event.Fault_injected
                           { key = key_str; fault = "timeout" });
                      if transient && attempt < t.policy.max_retries then
                        retry attempt attempt_run
                      else begin
                        quarantine_add t key_str
                          (Quarantine.Timed_out elapsed_s);
                        Timed_out elapsed_s
                      end
                    end
                    else
                      (* Slow but within budget: the run completed; its
                         timing lands wherever the noise model puts it. *)
                      validate ()
                | Fault.Wrong_answer ->
                    let expected = Exec.output_signature s in
                    let observed =
                      Fault.corrupt_signature ~key:key_str expected
                    in
                    if observed <> expected then begin
                      note t
                        (Event.Fault_injected
                           { key = key_str; fault = "wrong-answer" });
                      quarantine_add t key_str Quarantine.Wrong_answer;
                      Wrong_answer
                    end
                    else validate ()
              and validate () =
                Ok
                  (sample_measurement t ~key:key_str ~rng
                     ~instrumented:(instrumented build) s)
              in
              attempt_run 0))

let try_measure_in t c job =
  let key_str = key_in c job.build in
  Trace.job_started t.trace ~key:key_str;
  let outcome = run_job t c ~key_str job in
  Trace.job_finished t.trace ~key:key_str ~outcome:(outcome_tag outcome)
    ~elapsed_s:(elapsed outcome);
  outcome

(* One job, then one progress tick, also when the job raised.  The tick
   runs after the job rather than in a [finally]: a progress callback may
   raise a fatal exception (a server cancelling the search), which must
   reach the pool as itself, not wrapped as [Fun.Finally_raised]. *)
let measure_and_tick t c job =
  match try_measure_in t c job with
  | outcome ->
      Telemetry.tick t.telemetry;
      outcome
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Telemetry.tick t.telemetry;
      Printexc.raise_with_backtrace e bt

let try_measure_one t ~toolchain ?outline ~program ~input job =
  measure_and_tick t (resolve ~toolchain ?outline ~program ~input ()) job

(* -- the forked backends -------------------------------------------------- *)

(* Everything a forked worker must send home with a chunk's outcomes.
   Only plain data: the parent's stores are unreachable from a child
   (fork copies them), so each chunk runs against a {e shadow} engine —
   fresh telemetry, a fresh trace of the same clock, no checkpoint, a
   journal — and the parent replays the deltas.  A worker that dies
   before its chunk's reply is written leaves no partial effect
   anywhere: crashed attempts are invisible, which is exactly the retry
   semantics the logical-trace byte-identity argument needs. *)
type delta = {
  d_cache : (string * Exec.summary) list;
  d_quar : (string * Quarantine.reason) list;
  d_tel : Telemetry.snapshot;
  d_trace : (float * Trace.stamped list) option;
}

let shadow t =
  {
    t with
    telemetry = Telemetry.create ();
    trace =
      Option.map (fun tr -> Trace.create ~clock:(Trace.clock tr) ()) t.trace;
    checkpoint = None;
    journal = Some { j_cache = []; j_quar = [] };
  }

let delta_of s =
  let j = Option.get s.journal in
  {
    d_cache = List.rev j.j_cache;
    d_quar = List.rev j.j_quar;
    d_tel = Telemetry.snapshot s.telemetry;
    d_trace = Option.map (fun tr -> (Trace.epoch tr, Trace.events tr)) s.trace;
  }

(* Replay one chunk's deltas onto the parent's stores.  Adoption is
   conditional on absence: a sibling worker (blind to this one's fork
   image) may have already computed the same key — the values are
   bit-identical by the determinism argument, so first-in wins.  Each
   adopted entry ticks the checkpoint, as its insertion does on the
   domains backend. *)
let merge_delta t d =
  List.iter
    (fun (k, s) ->
      if Cache.find t.cache k = None then begin
        Cache.add t.cache k s;
        checkpoint_tick t
      end)
    d.d_cache;
  List.iter
    (fun (k, r) ->
      if Quarantine.find t.quarantine k = None then begin
        Quarantine.add t.quarantine k r;
        checkpoint_tick t
      end)
    d.d_quar;
  Telemetry.absorb t.telemetry d.d_tel;
  match (t.trace, d.d_trace) with
  | Some tr, Some (epoch, stamps) -> Trace.inject tr ~epoch stamps
  | _ -> ()

(* Run a batch on the forked pool: [jobs] workers on the processes
   backend, [nodes] on the sharded one.  Each chunk's jobs run on one
   shadow engine under their batch indices; the parent merges a chunk's
   delta before recording its outcomes and ticking progress once per
   job.  Crashed jobs are re-run in fresh pool rounds — never in-parent:
   a job that deterministically kills its worker must stay isolated — up
   to [max_retries] times; exhaustion surfaces as [Worker_crashed] and
   quarantines the key.  The chaos hook ([kill_workers_after = Some k])
   lives in the session: in the first round the worker that starts job
   [k] SIGKILLs itself, after the pool's progress marker has named that
   job; later rounds are unarmed, so the retried job's re-run is never
   re-killed and the run converges to the uninterrupted result. *)
let forked_outcomes t c jobs_array =
  let n = Array.length jobs_array in
  let batch = Trace.batch t.trace ~size:n in
  let outcomes = Array.make n None in
  let workers =
    match t.backend with
    | Backend.Sharded -> t.nodes
    | Backend.Processes | Backend.Domains -> t.jobs
  in
  let run_round ~chaos indices =
    let idx = Array.of_list indices in
    let kill_at =
      match t.kill_workers_after with Some k when chaos -> k | _ -> -1
    in
    let session () =
      let s = shadow t in
      ( (fun slot ->
          let i = idx.(slot) in
          if i = kill_at then Unix.kill (Unix.getpid ()) Sys.sigkill;
          Trace.in_job s.trace ~batch ~index:i (fun () ->
              try_measure_in s c jobs_array.(i))),
        fun () -> delta_of s )
    in
    let crashed = ref [] in
    let on_result slot r =
      let i = idx.(slot) in
      match r with
      | Stdlib.Ok o ->
          outcomes.(i) <- Some o;
          Telemetry.tick t.telemetry
      | Stdlib.Error (Procpool.Raised msg) ->
          (* Parity with the domains backend: an exception that escaped
             a healthy worker is a crashed run, not a crashed worker. *)
          outcomes.(i) <- Some (Crashed msg);
          Telemetry.tick t.telemetry
      | Stdlib.Error (Procpool.Crashed c) ->
          let detail = Procpool.crash_to_string c in
          note t (Event.Worker_crashed { detail });
          crashed := (i, detail) :: !crashed
    in
    ignore
      (Procpool.map_chunked ~workers ~on_delta:(merge_delta t) ~on_result
         session (Array.length idx));
    List.sort (fun (a, _) (b, _) -> compare a b) !crashed
  in
  let rec rounds attempt ~chaos indices =
    match run_round ~chaos indices with
    | [] -> ()
    | crashed when attempt < t.policy.max_retries ->
        rounds (attempt + 1) ~chaos:false (List.map fst crashed)
    | crashed ->
        List.iter
          (fun (i, detail) ->
            quarantine_add t
              (key_in c jobs_array.(i).build)
              (Quarantine.Crashed ("worker: " ^ detail));
            outcomes.(i) <- Some (Worker_crashed detail);
            Telemetry.tick t.telemetry)
          crashed
  in
  if n > 0 then rounds 0 ~chaos:true (List.init n Fun.id);
  Array.map (function Some o -> o | None -> assert false) outcomes

(* -- batch entry point -------------------------------------------------- *)

let try_measure_batch t ~toolchain ?outline ~program ~input jobs_array =
  let c = resolve ~toolchain ?outline ~program ~input () in
  match t.backend with
  | Backend.Processes | Backend.Sharded -> forked_outcomes t c jobs_array
  | Backend.Domains ->
      let batch = Trace.batch t.trace ~size:(Array.length jobs_array) in
      (try
         Pool.map_result ~jobs:t.jobs
           (fun (i, job) ->
             Trace.in_job t.trace ~batch ~index:i (fun () ->
                 measure_and_tick t c job))
           (Array.mapi (fun i job -> (i, job)) jobs_array)
       with
      (* A fatal exception (cancellation, runtime collapse) must surface
         as itself, not as the pool's wrapper, so the layer that raised
         it — e.g. a server cancelling a search from its progress tick —
         can catch exactly what it threw. *)
      | Pool.Worker_failure e when Pool.fatal e -> raise e)
      |> Array.map (function
           | Stdlib.Ok outcome -> outcome
           | Stdlib.Error e ->
               (* An exception that escaped a worker is indistinguishable
                  from a crashed run as far as the search is concerned;
                  record it so the batch survives. *)
               Crashed (Printexc.to_string e))
