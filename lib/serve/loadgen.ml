module Rng = Ft_util.Rng
module Stats = Ft_util.Stats
module Clock = Ft_util.Clock
module Framing = Ft_framing.Framing

type config = {
  socket_path : string;
  clients : int;
  concurrency : int;
  tenants : int;
  zipf_s : float;
  seed : int;
  benchmarks : string list;
  seeds_per_benchmark : int;
  algorithm : string;
  platform : string;
  pool : int;
  reconnect : bool;
  max_attempts : int;
}

let default_config ~socket_path =
  {
    socket_path;
    clients = 200;
    concurrency = 64;
    tenants = 4;
    zipf_s = 1.1;
    seed = 7;
    benchmarks = [];
    seeds_per_benchmark = 3;
    algorithm = "cfr-adaptive";
    platform = "bdw";
    pool = 60;
    reconnect = false;
    max_attempts = 10;
  }

type outcome = {
  completed : int;
  fresh : int;
  coalesced : int;
  cached : int;
  rejected : int;
  errors : int;
  reconnects : int;
  inconsistent : int;
  distinct_fingerprints : int;
  wall_s : float;
  throughput : float;
  latency_p50 : float;
  latency_p90 : float;
  latency_p99 : float;
  latency_max : float;
  coalesce_rate : float;
}

let catalog config =
  let benchmarks =
    match config.benchmarks with
    | [] -> List.map (fun p -> p.Ft_prog.Program.name) Ft_suite.Suite.all
    | l -> l
  in
  List.concat_map
    (fun benchmark ->
      List.init config.seeds_per_benchmark (fun seed ->
          {
            Protocol.benchmark;
            platform = config.platform;
            algorithm = config.algorithm;
            seed;
            pool = config.pool;
            top_x = None;
          }))
    benchmarks

(* Cumulative zipf weights over catalog ranks: rank r gets 1/(r+1)^s. *)
let zipf_cdf ~s n =
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for r = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (r + 1)) s);
    cdf.(r) <- !total
  done;
  cdf

let pick rng cdf catalog =
  let u = Rng.float rng cdf.(Array.length cdf - 1) in
  let rec find i = if cdf.(i) > u then i else find (i + 1) in
  catalog.(find 0)

(* -- one in-flight synthetic client ------------------------------------- *)

type flight = {
  fd : Unix.file_descr;
  decoder : Framing.Decoder.t;
  id : string;
  tenant : string;
  spec : Protocol.tune_spec;
  fp : string;
  t0 : float;
  attempts : int;
  mutable terminal : bool;
}

(* A request whose stream broke, waiting to be resent (same id). *)
type retry = {
  r_id : string;
  r_tenant : string;
  r_spec : Protocol.tune_spec;
  r_t0 : float;
  r_attempts : int;
  r_at : float;  (* monotonic time before which we don't retry *)
}

type tally = {
  mutable completed : int;
  mutable fresh : int;
  mutable coalesced : int;
  mutable cached : int;
  mutable rejected : int;
  mutable errors : int;
  mutable reconnects : int;
  mutable inconsistent : int;
  mutable latencies : float list;
  mutable retries : retry list;
  texts : (string, string) Hashtbl.t;  (* fingerprint → first result text *)
}

let finish flight =
  flight.terminal <- true;
  try Unix.close flight.fd with Unix.Unix_error _ -> ()

(* A send that failed, or a stream that died without a terminal
   response.  Under [reconnect] that is the expected signature of a
   daemon crash: resend the same id after a short backoff (ids are
   idempotent against the daemon's journal), while attempts remain.
   Otherwise it is a protocol error. *)
let retry_or_fail config tally ~id ~tenant ~spec ~t0 ~attempts =
  if config.reconnect && attempts + 1 < config.max_attempts then begin
    tally.reconnects <- tally.reconnects + 1;
    tally.retries <-
      {
        r_id = id;
        r_tenant = tenant;
        r_spec = spec;
        r_t0 = t0;
        r_attempts = attempts + 1;
        r_at = Clock.now () +. Rng.backoff ~base:0.05 ~cap:0.5 attempts;
      }
      :: tally.retries
  end
  else tally.errors <- tally.errors + 1

let broken config tally flight =
  retry_or_fail config tally ~id:flight.id ~tenant:flight.tenant
    ~spec:flight.spec ~t0:flight.t0 ~attempts:flight.attempts;
  finish flight

let handle_response tally flight = function
  | Protocol.Admitted _ | Coalesced _ | Started _ | Progress _ -> ()
  | Protocol.Result payload ->
      tally.completed <- tally.completed + 1;
      (match payload.Protocol.origin with
      | Protocol.Fresh -> tally.fresh <- tally.fresh + 1
      | Protocol.Coalesced_with _ -> tally.coalesced <- tally.coalesced + 1
      | Protocol.Cached -> tally.cached <- tally.cached + 1);
      tally.latencies <- (Clock.now () -. flight.t0) :: tally.latencies;
      (match Hashtbl.find_opt tally.texts flight.fp with
      | None -> Hashtbl.add tally.texts flight.fp payload.Protocol.text
      | Some first ->
          if first <> payload.Protocol.text then
            tally.inconsistent <- tally.inconsistent + 1);
      finish flight
  | Protocol.Rejected _ ->
      tally.rejected <- tally.rejected + 1;
      finish flight
  | Protocol.Server_error _ | Pong | Stats_reply _ | Bye ->
      tally.errors <- tally.errors + 1;
      finish flight

let pump config tally flight =
  let { Framing.Decoder.frames; state } =
    Framing.Decoder.pump flight.decoder flight.fd
  in
  List.iter
    (fun frame ->
      if not flight.terminal then
        match Protocol.response_of_frame frame with
        | Ok resp -> handle_response tally flight resp
        | Error _ ->
            tally.errors <- tally.errors + 1;
            finish flight)
    frames;
  if not flight.terminal then
    match state with
    | `Open -> ()
    | `Closed | `Error _ -> broken config tally flight

let send config tally ~id ~tenant ~t0 ~attempts spec =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_UNIX config.socket_path);
    Protocol.write_request fd
      (Protocol.Tune { id; tenant; spec; deadline_ms = None })
  with
  | () ->
      Unix.set_nonblock fd;
      Some
        {
          fd;
          decoder = Framing.Decoder.create ~max_bytes:Protocol.max_frame_bytes ();
          id;
          tenant;
          spec;
          fp = Protocol.fingerprint spec;
          t0;
          attempts;
          terminal = false;
        }
  | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      retry_or_fail config tally ~id ~tenant ~spec ~t0 ~attempts;
      None

let launch config tally rng cdf catalog n =
  let spec = pick rng cdf catalog in
  let tenant = "t" ^ string_of_int (Rng.int rng config.tenants) in
  let id = Printf.sprintf "r%05d" n in
  send config tally ~id ~tenant ~t0:(Clock.now ()) ~attempts:0 spec

let run config =
  if config.clients < 0 || config.concurrency < 1 then
    invalid_arg "Loadgen.run: clients must be >= 0, concurrency >= 1";
  (* A daemon killed mid-request (the --supervise chaos path) must
     surface as EPIPE on our next write — which [send] catches and turns
     into a reconnect retry — not as a fatal SIGPIPE. *)
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev_pipe)
  @@ fun () ->
  let rng = Rng.create config.seed in
  let catalog = Array.of_list (catalog config) in
  let cdf = zipf_cdf ~s:config.zipf_s (Array.length catalog) in
  let tally =
    {
      completed = 0;
      fresh = 0;
      coalesced = 0;
      cached = 0;
      rejected = 0;
      errors = 0;
      reconnects = 0;
      inconsistent = 0;
      latencies = [];
      retries = [];
      texts = Hashtbl.create 64;
    }
  in
  let launched = ref 0 in
  let in_flight = ref [] in
  let t_start = Clock.now () in
  while !launched < config.clients || !in_flight <> [] || tally.retries <> [] do
    while
      List.length !in_flight < config.concurrency && !launched < config.clients
    do
      incr launched;
      match launch config tally rng cdf catalog !launched with
      | Some flight -> in_flight := flight :: !in_flight
      | None -> ()
    done;
    (* Resend every broken request whose backoff has elapsed. *)
    let now = Clock.now () in
    let due, not_due = List.partition (fun r -> r.r_at <= now) tally.retries in
    tally.retries <- not_due;
    List.iter
      (fun r ->
        match
          send config tally ~id:r.r_id ~tenant:r.r_tenant ~t0:r.r_t0
            ~attempts:r.r_attempts r.r_spec
        with
        | Some flight -> in_flight := flight :: !in_flight
        | None -> ())
      due;
    if !in_flight <> [] then begin
      let fds = List.map (fun f -> f.fd) !in_flight in
      let timeout = if tally.retries <> [] then 0.05 else 0.5 in
      (match Unix.select fds [] [] timeout with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | readable, _, _ ->
          List.iter
            (fun f ->
              if (not f.terminal) && List.memq f.fd readable then
                pump config tally f)
            !in_flight);
      in_flight := List.filter (fun f -> not f.terminal) !in_flight
    end
    else if tally.retries <> [] then ignore (Unix.select [] [] [] 0.05)
  done;
  let wall_s = Clock.now () -. t_start in
  let pct p =
    match tally.latencies with [] -> 0.0 | l -> Stats.percentile p l
  in
  {
    completed = tally.completed;
    fresh = tally.fresh;
    coalesced = tally.coalesced;
    cached = tally.cached;
    rejected = tally.rejected;
    errors = tally.errors;
    reconnects = tally.reconnects;
    inconsistent = tally.inconsistent;
    distinct_fingerprints = Hashtbl.length tally.texts;
    wall_s;
    throughput = (if wall_s > 0.0 then float_of_int tally.completed /. wall_s else 0.0);
    latency_p50 = pct 50.0;
    latency_p90 = pct 90.0;
    latency_p99 = pct 99.0;
    latency_max = pct 100.0;
    coalesce_rate =
      (if tally.completed = 0 then 0.0
       else float_of_int (tally.coalesced + tally.cached) /. float_of_int tally.completed);
  }

let passed (o : outcome) = o.errors = 0 && o.inconsistent = 0

let render (o : outcome) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "loadgen: %d results in %.2f s (%.1f req/s)\n"
    o.completed o.wall_s o.throughput;
  Printf.bprintf buf
    "  fresh %d  coalesced %d  cached %d  rejected %d  errors %d\n" o.fresh
    o.coalesced o.cached o.rejected o.errors;
  if o.reconnects > 0 then
    Printf.bprintf buf "  reconnects %d (daemon restarts survived)\n"
      o.reconnects;
  Printf.bprintf buf "  coalesce rate %.1f%% across %d distinct fingerprints\n"
    (100.0 *. o.coalesce_rate) o.distinct_fingerprints;
  Printf.bprintf buf
    "  latency p50 %.3f s  p90 %.3f s  p99 %.3f s  max %.3f s\n" o.latency_p50
    o.latency_p90 o.latency_p99 o.latency_max;
  Printf.bprintf buf "  consistency: %s\n"
    (if o.inconsistent = 0 then "OK (coalesced results byte-identical)"
     else Printf.sprintf "FAILED (%d divergent results)" o.inconsistent);
  Buffer.contents buf
