type snapshot = {
  builds : int;
  runs : int;
  cache_hits : int;
  cache_misses : int;
  retries : int;
  build_failures : int;
  crashes : int;
  wrong_answers : int;
  timeouts : int;
  worker_crashes : int;
  outliers : int;
  quarantined : int;
  quarantine_hits : int;
  timers : (string * float) list;
}

type t = {
  builds : int Atomic.t;
  runs : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_misses : int Atomic.t;
  retries : int Atomic.t;
  build_failures : int Atomic.t;
  crashes : int Atomic.t;
  wrong_answers : int Atomic.t;
  timeouts : int Atomic.t;
  worker_crashes : int Atomic.t;
  outliers : int Atomic.t;
  quarantined : int Atomic.t;
  quarantine_hits : int Atomic.t;
  completed : int Atomic.t;
  expected : int Atomic.t;
  timers : (string, float) Hashtbl.t;
  lock : Mutex.t;
  mutable progress : (completed:int -> expected:int -> unit) option;
}

let create () =
  {
    builds = Atomic.make 0;
    runs = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    retries = Atomic.make 0;
    build_failures = Atomic.make 0;
    crashes = Atomic.make 0;
    wrong_answers = Atomic.make 0;
    timeouts = Atomic.make 0;
    worker_crashes = Atomic.make 0;
    outliers = Atomic.make 0;
    quarantined = Atomic.make 0;
    quarantine_hits = Atomic.make 0;
    completed = Atomic.make 0;
    expected = Atomic.make 0;
    timers = Hashtbl.create 8;
    lock = Mutex.create ();
    progress = None;
  }

let add_time t phase seconds =
  Mutex.protect t.lock (fun () ->
      let prior = Option.value ~default:0.0 (Hashtbl.find_opt t.timers phase) in
      Hashtbl.replace t.timers phase (prior +. seconds))

let time t phase f =
  let t0 = Ft_util.Clock.now () in
  Fun.protect ~finally:(fun () -> add_time t phase (Ft_util.Clock.now () -. t0)) f

(* The one counting rule: which counter, if any, an event moves. *)
let count t = function
  | Event.Cache_hit _ -> Atomic.incr t.cache_hits
  | Event.Cache_miss _ -> Atomic.incr t.cache_misses
  | Event.Build_done _ -> Atomic.incr t.builds
  | Event.Run_done _ -> Atomic.incr t.runs
  | Event.Retry _ -> Atomic.incr t.retries
  | Event.Fault_injected { fault = "ice"; _ } -> Atomic.incr t.build_failures
  | Event.Fault_injected { fault = "crash"; _ } -> Atomic.incr t.crashes
  | Event.Fault_injected { fault = "wrong-answer"; _ } ->
      Atomic.incr t.wrong_answers
  | Event.Fault_injected { fault = "timeout"; _ } -> Atomic.incr t.timeouts
  | Event.Worker_crashed _ -> Atomic.incr t.worker_crashes
  | Event.Outlier _ -> Atomic.incr t.outliers
  | Event.Quarantine_added _ -> Atomic.incr t.quarantined
  | Event.Quarantine_hit _ -> Atomic.incr t.quarantine_hits
  | Event.Timer { name; seconds } -> add_time t name seconds
  | _ -> ()

let of_events events =
  let t = create () in
  List.iter (count t) events;
  t

let set_progress t callback = t.progress <- Some callback

let expect t n = ignore (Atomic.fetch_and_add t.expected n)

let completed t = Atomic.get t.completed

let tick t =
  let completed = 1 + Atomic.fetch_and_add t.completed 1 in
  match t.progress with
  | None -> ()
  | Some callback ->
      (* Callbacks run from worker domains; serialize them so user code
         (typically terminal output) never interleaves. *)
      Mutex.protect t.lock (fun () ->
          callback ~completed ~expected:(Atomic.get t.expected))

let snapshot t =
  {
    builds = Atomic.get t.builds;
    runs = Atomic.get t.runs;
    cache_hits = Atomic.get t.cache_hits;
    cache_misses = Atomic.get t.cache_misses;
    retries = Atomic.get t.retries;
    build_failures = Atomic.get t.build_failures;
    crashes = Atomic.get t.crashes;
    wrong_answers = Atomic.get t.wrong_answers;
    timeouts = Atomic.get t.timeouts;
    worker_crashes = Atomic.get t.worker_crashes;
    outliers = Atomic.get t.outliers;
    quarantined = Atomic.get t.quarantined;
    quarantine_hits = Atomic.get t.quarantine_hits;
    timers =
      Mutex.protect t.lock (fun () ->
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.timers []
          |> List.sort compare);
  }

(* Fold a worker process's shipped snapshot into this telemetry — the
   processes backend's counterpart of workers bumping shared atomics
   directly.  Additive by construction: every counter in a shipment was
   earned by work the parent never saw. *)
let absorb t (s : snapshot) =
  let addc counter n = ignore (Atomic.fetch_and_add counter n) in
  addc t.builds s.builds;
  addc t.runs s.runs;
  addc t.cache_hits s.cache_hits;
  addc t.cache_misses s.cache_misses;
  addc t.retries s.retries;
  addc t.build_failures s.build_failures;
  addc t.crashes s.crashes;
  addc t.wrong_answers s.wrong_answers;
  addc t.timeouts s.timeouts;
  addc t.worker_crashes s.worker_crashes;
  addc t.outliers s.outliers;
  addc t.quarantined s.quarantined;
  addc t.quarantine_hits s.quarantine_hits;
  List.iter (fun (phase, seconds) -> add_time t phase seconds) s.timers

let faults (s : snapshot) =
  s.build_failures + s.crashes + s.wrong_answers + s.timeouts

let render t =
  let s = snapshot t in
  let total_lookups = s.cache_hits + s.cache_misses in
  let hit_pct =
    if total_lookups = 0 then 0.0
    else 100.0 *. float_of_int s.cache_hits /. float_of_int total_lookups
  in
  let b = Buffer.create 256 in
  Buffer.add_string b "engine telemetry:\n";
  Buffer.add_string b
    (Printf.sprintf "  builds      %d\n  runs        %d\n" s.builds s.runs);
  Buffer.add_string b
    (Printf.sprintf "  cache       %d hits / %d misses (%.1f%% hit rate)\n"
       s.cache_hits s.cache_misses hit_pct);
  if s.retries > 0 then
    Buffer.add_string b (Printf.sprintf "  retries     %d\n" s.retries);
  if s.worker_crashes > 0 then
    Buffer.add_string b
      (Printf.sprintf "  workers     %d crashed (isolated and retried)\n"
         s.worker_crashes);
  if faults s > 0 || s.quarantined > 0 || s.outliers > 0 then begin
    Buffer.add_string b
      (Printf.sprintf
         "  faults      %d (%d build failures, %d crashes, %d wrong \
          answers, %d timeouts)\n"
         (faults s) s.build_failures s.crashes s.wrong_answers s.timeouts);
    Buffer.add_string b
      (Printf.sprintf "  quarantine  %d vectors (%d hits avoided re-trying)\n"
         s.quarantined s.quarantine_hits);
    if s.outliers > 0 then
      Buffer.add_string b
        (Printf.sprintf "  outliers    %d injected measurements\n" s.outliers)
  end;
  List.iter
    (fun (phase, seconds) ->
      Buffer.add_string b (Printf.sprintf "  %-11s %.3f s\n" phase seconds))
    s.timers;
  Buffer.contents b
