module Rng = Ft_util.Rng
module Clock = Ft_util.Clock

type failure =
  | Rejected of Protocol.reject_reason
  | Server_error of string
  | Transport of string
  | Protocol_violation of string

let failure_to_string = function
  | Rejected reason -> "rejected: " ^ Protocol.reject_reason_to_string reason
  | Server_error msg -> "server error: " ^ msg
  | Transport msg -> "transport: " ^ msg
  | Protocol_violation msg -> "protocol violation: " ^ msg

(* Connect retry backoff: the jittered {!Rng.backoff} law — the jitter
   de-synchronizes a herd of clients all waiting for one daemon to
   (re)bind its socket, and the seed keeps any one client's schedule
   reproducible. *)
let backoff_base_s = 0.01
let backoff_cap_s = 0.5

let backoff_delay rng attempt =
  Rng.backoff ~rng ~base:backoff_base_s ~cap:backoff_cap_s attempt

let backoff_schedule ~seed n =
  let rng = Rng.create seed in
  List.init n (fun k -> backoff_delay rng k)

let connect ?(retry_for = 0.0) ?(seed = 0) socket_path =
  (* Monotonic, not wall: a clock step during the retry window must not
     silently stretch or collapse it. *)
  let deadline = Clock.now () +. retry_for in
  let rng = Rng.create seed in
  let rec go attempt =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> Ok fd
    | exception Unix.Unix_error (((ECONNREFUSED | ENOENT) as e), _, _) ->
        Unix.close fd;
        if Clock.now () < deadline then begin
          ignore (Unix.select [] [] [] (backoff_delay rng attempt));
          go (attempt + 1)
        end
        else Error (Transport (Unix.error_message e))
    | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        Error (Transport (Unix.error_message e))
  in
  go 0

let read_one fd =
  match Protocol.read_response fd with
  | Ok resp -> Ok resp
  | Error (`Framing e) ->
      Error (Transport (Ft_framing.Framing.error_to_string e))
  | Error (`Decode e) ->
      Error (Protocol_violation (Protocol.decode_error_to_string e))

let with_connection ?retry_for ?seed socket_path f =
  match connect ?retry_for ?seed socket_path with
  | Error _ as e -> e
  | Ok fd ->
      (* A daemon that dies under us (crash, supervised respawn) must
         surface as EPIPE on the next write — caught below as a
         [Transport] failure the persistent path retries — not as a
         process-killing SIGPIPE. *)
      let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      Fun.protect ~finally:(fun () ->
          Sys.set_signal Sys.sigpipe prev_pipe;
          try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () -> (
      try f fd
      with Unix.Unix_error (e, _, _) -> Error (Transport (Unix.error_message e)))

let tune ?retry_for ?seed ?deadline_ms ?(on_event = fun _ -> ()) ~socket_path
    ~id ~tenant spec =
  with_connection ?retry_for ?seed socket_path @@ fun fd ->
  Protocol.write_request fd (Protocol.Tune { id; tenant; spec; deadline_ms });
  let rec await () =
    match read_one fd with
    | Error _ as e -> e
    | Ok ((Protocol.Admitted _ | Coalesced _ | Started _ | Progress _) as ev) ->
        on_event ev;
        await ()
    | Ok (Protocol.Result payload) -> Ok payload
    | Ok (Protocol.Rejected { reason; _ }) -> Error (Rejected reason)
    | Ok (Protocol.Server_error { message; _ }) -> Error (Server_error message)
    | Ok (Protocol.Pong | Stats_reply _ | Bye) ->
        Error (Protocol_violation "non-tune response to a tune request")
  in
  await ()

(* Reconnect-and-resume: request ids are idempotent against the daemon's
   journal and memo, so after a transport failure (daemon crashed, or
   its supervisor is still respawning it) simply resending the same id
   either joins the replayed ghost group or collects the memoized
   result.  Only [Transport] failures are retried — a typed rejection or
   server error is an answer. *)
let tune_persistent ?(attempts = 8) ?(retry_for = 5.0) ?seed ?deadline_ms
    ?on_event ~socket_path ~id ~tenant spec =
  let rec go remaining =
    match tune ~retry_for ?seed ?deadline_ms ?on_event ~socket_path ~id ~tenant
            spec
    with
    | Error (Transport _) when remaining > 1 -> go (remaining - 1)
    | result -> result
  in
  if attempts < 1 then invalid_arg "Client.tune_persistent: attempts < 1";
  go attempts

let simple ?retry_for ~socket_path request ~expect =
  with_connection ?retry_for socket_path @@ fun fd ->
  Protocol.write_request fd request;
  match read_one fd with Error _ as e -> e | Ok resp -> expect resp

let ping ?retry_for socket_path =
  simple ?retry_for ~socket_path Protocol.Ping ~expect:(function
    | Protocol.Pong -> Ok ()
    | _ -> Error (Protocol_violation "expected pong"))

let stats ?retry_for socket_path =
  simple ?retry_for ~socket_path Protocol.Stats ~expect:(function
    | Protocol.Stats_reply counters -> Ok counters
    | _ -> Error (Protocol_violation "expected stats_reply"))

let shutdown ?retry_for socket_path =
  simple ?retry_for ~socket_path Protocol.Shutdown ~expect:(function
    | Protocol.Bye -> Ok ()
    | _ -> Error (Protocol_violation "expected bye"))
