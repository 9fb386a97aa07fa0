module Framing = Ft_framing.Framing
module Event = Ft_obs.Event
module Trace = Ft_obs.Trace
module Telemetry = Ft_obs.Telemetry
module Clock = Ft_util.Clock

type config = {
  socket_path : string;
  max_queue : int;
  backlog : int;
  progress_every : int;
  state_dir : string option;
  die_after_requests : int option;
  poison_threshold : int;
}

let default_config ~socket_path =
  {
    socket_path;
    max_queue = 256;
    backlog = 64;
    progress_every = 25;
    state_dir = None;
    die_after_requests = None;
    poison_threshold = 3;
  }

type conn = {
  fd : Unix.file_descr;
  decoder : Framing.Decoder.t;
  mutable waiting : (string * string) option;  (* fingerprint, request id *)
  mutable alive : bool;
}

(* A group member's payload: its client connection, or [None] for a
   ghost — a request replayed from the journal whose client is not
   connected right now.  Ghosts receive no stream, but they hold their
   group open so replayed work is neither lost nor cancelled; their
   client collects the result from the memo on reconnect. *)
type payload = conn option

type state = {
  config : config;
  runner : Runner.t;
  trace : Trace.t option;
  telemetry : Telemetry.t;
  listener : Unix.file_descr;
  sched : payload Scheduler.t;
  journal : Journal.t option;
  poisoned : (string, int) Hashtbl.t;  (* fingerprint → crash count *)
  mutable restarts : int;  (* prior incarnations (journal boots) *)
  mutable accepted_this_boot : int;  (* the chaos hook's counter *)
  mutable conns : conn list;
  mutable stop : bool;
  mutable running_fp : string option;
  mutable run_ticks : int;
  (* Engine progress callbacks may fire from worker domains, and the
     tick-driven socket drain runs inside them; one lock serializes all
     connection and scheduler mutation. *)
  lock : Mutex.t;
}

let with_lock st f =
  Mutex.lock st.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f

let journal st record =
  match st.journal with None -> () | Some j -> Journal.append j record

(* Report one event, once: counted by the one rule and recorded by the
   one primitive, as the engine reports its own. *)
let note st event =
  Telemetry.count st.telemetry event;
  Trace.emit st.trace event

(* The [stats] reply: the live snapshot's counters, then the gauges. *)
let stats st =
  Telemetry.counters (Telemetry.snapshot st.telemetry)
  @ [
      ("queue_depth", Scheduler.queue_depth st.sched);
      ("restarts", st.restarts);
      ("poisoned", Hashtbl.length st.poisoned);
    ]

(* -- connection bookkeeping (callers hold the lock) --------------------- *)

let close_conn st conn =
  if conn.alive then begin
    conn.alive <- false;
    st.conns <- List.filter (fun c -> c != conn) st.conns;
    (match conn.waiting with
    | Some (fingerprint, id) ->
        conn.waiting <- None;
        (* The journal must stop owing this request: its client is gone,
           so a restart should not replay it as a ghost. *)
        journal st (Journal.Dropped { id });
        Scheduler.drop_member st.sched ~fingerprint ~id
    | None -> ());
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* Responses block until written: payloads are tiny and clients read
   eagerly, so this cannot stall the loop in practice, and it spares the
   loop a per-connection outbound queue.  A vanished peer just drops the
   member. *)
let write_resp st conn resp =
  conn.alive
  &&
  try
    Unix.clear_nonblock conn.fd;
    Protocol.write_response conn.fd resp;
    Unix.set_nonblock conn.fd;
    true
  with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF | ENOTCONN), _, _) ->
    close_conn st conn;
    false

let respond_and_close st conn resp =
  ignore (write_resp st conn resp);
  close_conn st conn

(* Ghost-aware variants: a [None] payload has nobody to talk to. *)
let notify st (m : payload Scheduler.member) resp =
  match m.payload with Some conn -> ignore (write_resp st conn resp) | None -> ()

let answer st (m : payload Scheduler.member) resp =
  match m.payload with Some conn -> respond_and_close st conn resp | None -> ()

(* -- request handling --------------------------------------------------- *)

let reject st conn ~id reason =
  note st
    (Event.Request_rejected
       { id; reason = Protocol.reject_reason_to_string reason });
  respond_and_close st conn (Protocol.Rejected { id; reason })

(* The deterministic chaos hook: SIGKILL ourselves the instant the Nth
   accepted request of this boot has been acknowledged.  Under the
   supervisor this is a scripted crash at a request boundary — the
   journal holds the accepted-but-unanswered request, and the oracle
   requires its eventual answer to be byte-identical. *)
let chaos_tick st =
  st.accepted_this_boot <- st.accepted_this_boot + 1;
  match st.config.die_after_requests with
  | Some n when st.accepted_this_boot >= n ->
      Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ()

let handle_tune st conn ~id ~tenant ~deadline_ms spec =
  let fingerprint = Protocol.fingerprint spec in
  note st (Event.Request_received { id; tenant; fingerprint });
  (* Scheduler members carry monotonic deadlines (a wall-clock step must
     not expire — or resurrect — queued requests); the journal persists
     the wall-clock equivalent, the only clock that survives a restart. *)
  let now = Clock.now () in
  let deadline =
    Option.map (fun ms -> now +. (float_of_int ms /. 1000.0)) deadline_ms
  in
  let wall_deadline =
    Option.map
      (fun ms -> Clock.wall () +. (float_of_int ms /. 1000.0))
      deadline_ms
  in
  (* Write-ahead: the journal knows the request before the client does,
     so an acknowledged request can always be replayed. *)
  let accept () =
    conn.waiting <- Some (fingerprint, id);
    journal st
      (Journal.Accepted
         { id; tenant; fingerprint; spec; deadline = wall_deadline })
  in
  match Hashtbl.find_opt st.poisoned fingerprint with
  | Some crashes -> reject st conn ~id (Protocol.Poisoned { crashes })
  | None when deadline_ms <> None && Option.get deadline <= now ->
      reject st conn ~id Protocol.Deadline_exceeded
  | None -> (
      match st.runner.Runner.validate spec with
      | Error msg -> reject st conn ~id (Protocol.Unsupported msg)
      | Ok () -> (
          match
            Scheduler.submit st.sched ~spec ~fingerprint
              { Scheduler.id; tenant; deadline; payload = Some conn }
          with
          | Scheduler.Fresh ->
              accept ();
              let queue_depth = Scheduler.queue_depth st.sched in
              note st (Event.Request_admitted { id; queue_depth });
              ignore
                (write_resp st conn (Protocol.Admitted { id; queue_depth }));
              chaos_tick st
          | Scheduler.Joined { leader } ->
              accept ();
              note st (Event.Request_coalesced { id; leader });
              (if write_resp st conn (Protocol.Coalesced { id; leader }) then
                 if st.running_fp = Some fingerprint then
                   ignore (write_resp st conn (Protocol.Started { id })));
              chaos_tick st
          | Scheduler.Memoized { text; speedup; evaluations } ->
              note st (Event.Request_cached { id });
              respond_and_close st conn
                (Protocol.Result
                   {
                     id;
                     fingerprint;
                     origin = Protocol.Cached;
                     group_size = 1;
                     speedup;
                     evaluations;
                     run_s = 0.0;
                     text;
                   })
          | Scheduler.Refused reason -> reject st conn ~id reason))

let handle_frame st conn frame =
  match Protocol.request_of_frame frame with
  | Error (Protocol.Version_mismatch { got }) ->
      reject st conn ~id:"?" (Protocol.Bad_version { got })
  | Error (Protocol.Malformed_frame reason) ->
      reject st conn ~id:"?" (Protocol.Malformed reason)
  | Ok Protocol.Ping -> ignore (write_resp st conn Protocol.Pong)
  | Ok Protocol.Stats ->
      ignore (write_resp st conn (Protocol.Stats_reply (stats st)))
  | Ok Protocol.Shutdown ->
      st.stop <- true;
      Scheduler.drain st.sched;
      respond_and_close st conn Protocol.Bye
  | Ok (Protocol.Tune { id; tenant; spec; deadline_ms }) ->
      handle_tune st conn ~id ~tenant ~deadline_ms spec

let pump_conn st conn =
  let { Framing.Decoder.frames; state } =
    Framing.Decoder.pump conn.decoder conn.fd
  in
  List.iter (fun f -> if conn.alive then handle_frame st conn f) frames;
  match state with
  | `Open -> ()
  | `Closed -> close_conn st conn
  | `Error e ->
      if conn.alive then
        reject st conn ~id:"?" (Protocol.Malformed (Framing.error_to_string e))

let accept_new st =
  let rec loop () =
    match Unix.accept ~cloexec:true st.listener with
    | fd, _ ->
        Unix.set_nonblock fd;
        st.conns <-
          {
            fd;
            decoder = Framing.Decoder.create ~max_bytes:Protocol.max_frame_bytes ();
            waiting = None;
            alive = true;
          }
          :: st.conns;
        loop ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
  in
  loop ()

(* Sweep deadline-expired members: each gets the typed rejection, and
   the journal stops owing it.  Callers hold the lock. *)
let sweep_deadlines st =
  match Scheduler.expire st.sched ~now:(Clock.now ()) with
  | [] -> ()
  | gone ->
      List.iter
        (fun (_fp, (m : payload Scheduler.member)) ->
          note st (Event.Request_expired { id = m.Scheduler.id });
          journal st (Journal.Dropped { id = m.Scheduler.id });
          (match m.payload with
          | Some conn -> conn.waiting <- None
          | None -> ());
          answer st m
            (Protocol.Rejected
               { id = m.Scheduler.id; reason = Protocol.Deadline_exceeded }))
        gone

(* One drain step: wait up to [timeout] for socket activity, accept
   every pending connection, pump every readable one.  Callers hold the
   lock. *)
let drain_sockets st ~timeout =
  let conns = st.conns in
  let fds = st.listener :: List.map (fun c -> c.fd) conns in
  match Unix.select fds [] [] timeout with
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | readable, _, _ ->
      if List.memq st.listener readable then accept_new st;
      List.iter
        (fun c -> if c.alive && List.memq c.fd readable then pump_conn st c)
        conns

(* -- group execution ---------------------------------------------------- *)

let cancel_group st ~fingerprint =
  let members = Scheduler.fail st.sched ~fingerprint in
  journal st (Journal.Cancelled { fingerprint });
  note st (Event.Group_cancelled { fingerprint });
  (* Normally empty — cancellation fires because everyone left — but any
     racer gets a clean terminal rather than silence. *)
  List.iter
    (fun (m : payload Scheduler.member) ->
      (match m.payload with Some c -> c.waiting <- None | None -> ());
      answer st m
        (Protocol.Server_error { id = m.Scheduler.id; message = "cancelled" }))
    members

let run_group st (spec, fingerprint) =
  let proceed =
    with_lock st (fun () ->
        sweep_deadlines st;
        match Scheduler.members st.sched ~fingerprint with
        | [] ->
            (* Everyone expired or vanished while it was queued. *)
            cancel_group st ~fingerprint;
            false
        | members ->
            st.running_fp <- Some fingerprint;
            st.run_ticks <- 0;
            journal st (Journal.Started { fingerprint });
            note st
              (Event.Group_started
                 { fingerprint; members = List.length members });
            List.iter
              (fun (m : payload Scheduler.member) ->
                notify st m (Protocol.Started { id = m.Scheduler.id }))
              members;
            true)
  in
  if proceed then begin
    let tick () =
      with_lock st @@ fun () ->
      st.run_ticks <- st.run_ticks + 1;
      if st.run_ticks mod st.config.progress_every = 0 then
        List.iter
          (fun (m : payload Scheduler.member) ->
            notify st m
              (Protocol.Progress { id = m.Scheduler.id; ticks = st.run_ticks }))
          (Scheduler.members st.sched ~fingerprint);
      sweep_deadlines st;
      drain_sockets st ~timeout:0.0;
      (* Nobody left waiting (and no ghost holding the group open):
         abandon the search at this evaluation boundary. *)
      if Scheduler.members st.sched ~fingerprint = [] then
        raise (Runner.Cancelled fingerprint)
    in
    let t0 = Clock.now () in
    let result =
      match
        Telemetry.time st.telemetry "serve.run" (fun () ->
            st.runner.Runner.run spec ~fingerprint ~tick)
      with
      | result -> `Finished result
      | exception Runner.Cancelled _ -> `Cancelled
    in
    let run_s = Clock.now () -. t0 in
    with_lock st @@ fun () ->
    st.running_fp <- None;
    match result with
    | `Cancelled -> cancel_group st ~fingerprint
    | `Finished (Ok outcome) ->
        (* Durability order: journal first, then answer — a client may
           never hold a result the journal could fail to replay. *)
        journal st (Journal.Completed { fingerprint; outcome });
        let members = Scheduler.complete st.sched ~fingerprint outcome in
        let group_size = List.length members in
        note st
          (Event.Group_finished { fingerprint; members = group_size; run_s });
        let leader =
          match members with m :: _ -> m.Scheduler.id | [] -> ""
        in
        List.iteri
          (fun i (m : payload Scheduler.member) ->
            let origin =
              if i = 0 then Protocol.Fresh else Protocol.Coalesced_with leader
            in
            (match m.payload with Some c -> c.waiting <- None | None -> ());
            answer st m
              (Protocol.Result
                 {
                   id = m.Scheduler.id;
                   fingerprint;
                   origin;
                   group_size;
                   speedup = outcome.Scheduler.speedup;
                   evaluations = outcome.Scheduler.evaluations;
                   run_s;
                   text = outcome.Scheduler.text;
                 }))
          members
    | `Finished (Error message) ->
        journal st (Journal.Failed { fingerprint });
        let members = Scheduler.fail st.sched ~fingerprint in
        note st
          (Event.Group_finished
             { fingerprint; members = List.length members; run_s });
        List.iter
          (fun (m : payload Scheduler.member) ->
            (match m.payload with Some c -> c.waiting <- None | None -> ());
            answer st m
              (Protocol.Server_error { id = m.Scheduler.id; message }))
          members
  end

(* -- startup: socket claim and journal recovery ------------------------- *)

(* A crashed daemon leaves its socket file behind; a live one answers on
   it.  Probe before unlinking: refused/dead ⇒ stale, reclaim; answered
   ⇒ another daemon is serving and clobbering its socket would orphan
   its clients. *)
let claim_socket path =
  if Sys.file_exists path then begin
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
        Unix.close fd;
        failwith
          (Printf.sprintf "Server.serve: %s is in use by a live daemon" path)
    | exception Unix.Unix_error (_, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (try Sys.remove path with Sys_error _ -> ())
  end

let journal_path state_dir = Filename.concat state_dir "journal"

(* Re-enqueue one unfinished journaled request as a ghost member;
   [true] iff it joined the queue.  A poisoned, already answerable or
   inadmissible request is dropped instead: its client learns the
   verdict on reconnect, and the journal stops owing the stream. *)
let replay_pending st (p : Journal.pending) =
  let drop () =
    journal st (Journal.Dropped { id = p.Journal.p_id });
    false
  in
  if Hashtbl.mem st.poisoned p.Journal.p_fingerprint then drop ()
  else
    match
      Scheduler.submit st.sched ~spec:p.Journal.p_spec
        ~fingerprint:p.Journal.p_fingerprint
        {
          Scheduler.id = p.Journal.p_id;
          tenant = p.Journal.p_tenant;
          (* Journaled deadlines are wall-clock; members carry monotonic
             ones.  Re-base the remaining budget onto the monotonic clock
             at replay time. *)
          deadline =
            Option.map
              (fun d -> Clock.now () +. (d -. Clock.wall ()))
              p.Journal.p_deadline;
          payload = None;
        }
    with
    | Scheduler.Fresh | Scheduler.Joined _ ->
        note st
          (Event.Request_replayed
             { id = p.Journal.p_id; fingerprint = p.Journal.p_fingerprint });
        true
    | Scheduler.Memoized _ | Scheduler.Refused _ -> drop ()

(* Boot-time recovery: replay the journal, seed the durable memo, mark
   poisoned fingerprints (appending the quarantine record for newly
   condemned ones), and re-enqueue every unfinished request as a ghost
   member.  Returns after appending this boot's [Boot] record. *)
let recover st (replay : Journal.replay) =
  List.iter
    (fun (fingerprint, outcome) -> Scheduler.remember st.sched ~fingerprint outcome)
    replay.Journal.memo;
  List.iter
    (fun (fp, crashes) -> Hashtbl.replace st.poisoned fp crashes)
    replay.Journal.poisoned;
  List.iter
    (fun (fp, crashes) ->
      if crashes >= st.config.poison_threshold && not (Hashtbl.mem st.poisoned fp)
      then begin
        Hashtbl.replace st.poisoned fp crashes;
        journal st (Journal.Poisoned { fingerprint = fp; crashes })
      end)
    replay.Journal.crashes;
  let replayed =
    List.length (List.filter (replay_pending st) replay.Journal.pending)
  in
  st.restarts <- replay.Journal.boots;
  journal st Journal.Boot;
  let poisoned = Hashtbl.length st.poisoned in
  if st.journal <> None then
    note st
      (Event.Server_recovered { restarts = st.restarts; replayed; poisoned });
  if st.restarts > 0 || replayed > 0 then
    Printf.eprintf "serve: recovered journal (boot %d, %d replayed, %d poisoned)\n%!"
      (st.restarts + 1) replayed poisoned

(* -- lifecycle ---------------------------------------------------------- *)

let serve ?trace ?(telemetry = Telemetry.create ()) ?on_ready config runner =
  claim_socket config.socket_path;
  let journal_handle, replay =
    match config.state_dir with
    | None -> (None, Journal.empty_replay)
    | Some dir ->
        Ft_engine.Atomic_file.mkdir_p dir;
        let path = journal_path dir in
        let warn ~line ~reason =
          Printf.eprintf "serve: journal %s line %d: %s\n%!" path line reason
        in
        let replay = Journal.load ~warn path in
        (Some (Journal.open_ path), replay)
  in
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listener config.backlog;
  Unix.set_nonblock listener;
  let st =
    {
      config;
      runner;
      trace;
      telemetry;
      listener;
      sched = Scheduler.create ~max_queue:config.max_queue;
      journal = journal_handle;
      poisoned = Hashtbl.create 4;
      restarts = 0;
      accepted_this_boot = 0;
      conns = [];
      stop = false;
      running_fp = None;
      run_ticks = 0;
      lock = Mutex.create ();
    }
  in
  recover st replay;
  let stop_now _ =
    st.stop <- true;
    Scheduler.drain st.sched
  in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop_now) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle stop_now) in
  Fun.protect ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe prev_pipe;
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        st.conns;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (match st.journal with Some j -> Journal.close j | None -> ());
      try Sys.remove config.socket_path with Sys_error _ -> ())
  @@ fun () ->
  (match on_ready with Some f -> f () | None -> ());
  let rec loop () =
    match with_lock st (fun () -> Scheduler.next st.sched) with
    | Some group ->
        run_group st group;
        loop ()
    | None ->
        if st.stop && with_lock st (fun () -> Scheduler.idle st.sched) then ()
        else begin
          Telemetry.time st.telemetry "serve.wait" (fun () ->
              with_lock st (fun () ->
                  sweep_deadlines st;
                  drain_sockets st ~timeout:0.2));
          loop ()
        end
  in
  loop ()
