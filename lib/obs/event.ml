type phase = Profile | Collect | Prune | Search

let phase_name = function
  | Profile -> "profile"
  | Collect -> "collect"
  | Prune -> "prune"
  | Search -> "search"

let phase_of_name = function
  | "profile" -> Some Profile
  | "collect" -> Some Collect
  | "prune" -> Some Prune
  | "search" -> Some Search
  | _ -> None

type t =
  | Batch_submitted of { size : int }
  | Job_started of { key : string }
  | Job_finished of { key : string; outcome : string; elapsed_s : float option }
  | Cache_query of { key : string }
  | Cache_hit of { key : string }
  | Cache_miss of { key : string }
  | Build_done of { key : string }
  | Run_done of { key : string }
  | Fault_injected of { key : string; fault : string }
  | Retry of { key : string; attempt : int; backoff_s : float }
  | Outlier of { key : string }
  | Quarantine_added of { key : string; reason : string }
  | Quarantine_hit of { key : string; reason : string }
  | Worker_crashed of { detail : string }
  | Checkpoint_saved of { path : string }
  | Checkpoint_loaded of { path : string; entries : int }
  | Timer of { name : string; seconds : float }
  | Phase_begin of { phase : phase }
  | Phase_end of { phase : phase }
  | Prune_kept of { module_name : string; kept : int }
  | Rung_opened of { rung : int; arms : int; pulls : int }
  | Rung_closed of { rung : int; survivors : int }
  | Arm_promoted of { rung : int; arm : int }
  | Arm_eliminated of { rung : int; arm : int }
  | Request_received of { id : string; tenant : string; fingerprint : string }
  | Request_admitted of { id : string; queue_depth : int }
  | Request_coalesced of { id : string; leader : string }
  | Request_cached of { id : string }
  | Request_rejected of { id : string; reason : string }
  | Group_started of { fingerprint : string; members : int }
  | Group_finished of { fingerprint : string; members : int; run_s : float }
  | Group_cancelled of { fingerprint : string }
  | Request_expired of { id : string }
  | Request_replayed of { id : string; fingerprint : string }
  | Server_recovered of { restarts : int; replayed : int; poisoned : int }

(* The one list of schedule-dependent events.  Which racing worker takes
   a miss, performs the build and run, inserts a quarantine entry, saves
   a checkpoint or dies, and how long anything took, is scheduling; that
   a key was queried is not. *)
let logical = function
  | Cache_hit { key } | Cache_miss { key } -> Some (Cache_query { key })
  | Build_done _ | Run_done _ | Timer _ | Checkpoint_saved _
  | Checkpoint_loaded _ | Quarantine_added _ | Worker_crashed _ -> None
  | e -> Some e

let name = function
  | Batch_submitted _ -> "batch"
  | Job_started _ -> "job_start"
  | Job_finished _ -> "job_end"
  | Cache_query _ -> "cache_query"
  | Cache_hit _ -> "cache_hit"
  | Cache_miss _ -> "cache_miss"
  | Build_done _ -> "build"
  | Run_done _ -> "run"
  | Fault_injected _ -> "fault"
  | Retry _ -> "retry"
  | Outlier _ -> "outlier"
  | Quarantine_added _ -> "quarantine_add"
  | Quarantine_hit _ -> "quarantine_hit"
  | Worker_crashed _ -> "worker_crash"
  | Checkpoint_saved _ -> "checkpoint_save"
  | Checkpoint_loaded _ -> "checkpoint_load"
  | Timer _ -> "timer"
  | Phase_begin _ -> "phase_begin"
  | Phase_end _ -> "phase_end"
  | Prune_kept _ -> "prune"
  | Rung_opened _ -> "rung_open"
  | Rung_closed _ -> "rung_close"
  | Arm_promoted _ -> "arm_promote"
  | Arm_eliminated _ -> "arm_elim"
  | Request_received _ -> "req_recv"
  | Request_admitted _ -> "req_admit"
  | Request_coalesced _ -> "req_coalesce"
  | Request_cached _ -> "req_cached"
  | Request_rejected _ -> "req_reject"
  | Group_started _ -> "group_start"
  | Group_finished _ -> "group_end"
  | Group_cancelled _ -> "group_cancel"
  | Request_expired _ -> "req_expire"
  | Request_replayed _ -> "req_replay"
  | Server_recovered _ -> "server_recover"

let fields = function
  | Batch_submitted { size } -> [ ("size", Json.Int size) ]
  | Job_started { key } -> [ ("key", Json.String key) ]
  | Job_finished { key; outcome; elapsed_s } ->
      [ ("key", Json.String key); ("outcome", Json.String outcome) ]
      @ (match elapsed_s with
        | Some s -> [ ("elapsed_s", Json.Float s) ]
        | None -> [])
  | Cache_query { key } | Cache_hit { key } | Cache_miss { key }
  | Build_done { key } | Run_done { key } | Outlier { key } ->
      [ ("key", Json.String key) ]
  | Fault_injected { key; fault } ->
      [ ("key", Json.String key); ("fault", Json.String fault) ]
  | Retry { key; attempt; backoff_s } ->
      [
        ("key", Json.String key);
        ("attempt", Json.Int attempt);
        ("backoff_s", Json.Float backoff_s);
      ]
  | Quarantine_added { key; reason } | Quarantine_hit { key; reason } ->
      [ ("key", Json.String key); ("reason", Json.String reason) ]
  | Worker_crashed { detail } -> [ ("detail", Json.String detail) ]
  | Checkpoint_saved { path } -> [ ("path", Json.String path) ]
  | Checkpoint_loaded { path; entries } ->
      [ ("path", Json.String path); ("entries", Json.Int entries) ]
  | Timer { name; seconds } ->
      [ ("name", Json.String name); ("seconds", Json.Float seconds) ]
  | Phase_begin { phase } | Phase_end { phase } ->
      [ ("phase", Json.String (phase_name phase)) ]
  | Prune_kept { module_name; kept } ->
      [ ("module", Json.String module_name); ("kept", Json.Int kept) ]
  | Rung_opened { rung; arms; pulls } ->
      [ ("rung", Json.Int rung); ("arms", Json.Int arms); ("pulls", Json.Int pulls) ]
  | Rung_closed { rung; survivors } ->
      [ ("rung", Json.Int rung); ("survivors", Json.Int survivors) ]
  | Arm_promoted { rung; arm } | Arm_eliminated { rung; arm } ->
      [ ("rung", Json.Int rung); ("arm", Json.Int arm) ]
  | Request_received { id; tenant; fingerprint } ->
      [
        ("id", Json.String id);
        ("tenant", Json.String tenant);
        ("fingerprint", Json.String fingerprint);
      ]
  | Request_admitted { id; queue_depth } ->
      [ ("id", Json.String id); ("queue_depth", Json.Int queue_depth) ]
  | Request_coalesced { id; leader } ->
      [ ("id", Json.String id); ("leader", Json.String leader) ]
  | Request_cached { id } -> [ ("id", Json.String id) ]
  | Request_rejected { id; reason } ->
      [ ("id", Json.String id); ("reason", Json.String reason) ]
  | Group_started { fingerprint; members } ->
      [ ("fingerprint", Json.String fingerprint); ("members", Json.Int members) ]
  | Group_finished { fingerprint; members; run_s } ->
      [
        ("fingerprint", Json.String fingerprint);
        ("members", Json.Int members);
        ("run_s", Json.Float run_s);
      ]
  | Group_cancelled { fingerprint } -> [ ("fingerprint", Json.String fingerprint) ]
  | Request_expired { id } -> [ ("id", Json.String id) ]
  | Request_replayed { id; fingerprint } ->
      [ ("id", Json.String id); ("fingerprint", Json.String fingerprint) ]
  | Server_recovered { restarts; replayed; poisoned } ->
      [
        ("restarts", Json.Int restarts);
        ("replayed", Json.Int replayed);
        ("poisoned", Json.Int poisoned);
      ]

let of_json json =
  let str field =
    match Option.bind (Json.member field json) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing string field '%s'" field)
  in
  let int field =
    match Option.bind (Json.member field json) Json.to_int with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "missing int field '%s'" field)
  in
  let num field =
    match Option.bind (Json.member field json) Json.to_float with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "missing number field '%s'" field)
  in
  let phase field =
    match str field with
    | Error _ as e -> e
    | Ok s -> (
        match phase_of_name s with
        | Some p -> Ok p
        | None -> Error (Printf.sprintf "unknown phase '%s'" s))
  in
  let ( let* ) = Result.bind in
  match str "ev" with
  | Error _ -> Error "missing event tag 'ev'"
  | Ok tag -> (
      match tag with
      | "batch" ->
          let* size = int "size" in
          Ok (Batch_submitted { size })
      | "job_start" ->
          let* key = str "key" in
          Ok (Job_started { key })
      | "job_end" ->
          let* key = str "key" in
          let* outcome = str "outcome" in
          let elapsed_s =
            Option.bind (Json.member "elapsed_s" json) Json.to_float
          in
          Ok (Job_finished { key; outcome; elapsed_s })
      | "cache_query" ->
          let* key = str "key" in
          Ok (Cache_query { key })
      | "cache_hit" ->
          let* key = str "key" in
          Ok (Cache_hit { key })
      | "cache_miss" ->
          let* key = str "key" in
          Ok (Cache_miss { key })
      | "build" ->
          let* key = str "key" in
          Ok (Build_done { key })
      | "run" ->
          let* key = str "key" in
          Ok (Run_done { key })
      | "fault" ->
          let* key = str "key" in
          let* fault = str "fault" in
          Ok (Fault_injected { key; fault })
      | "retry" ->
          let* key = str "key" in
          let* attempt = int "attempt" in
          let* backoff_s = num "backoff_s" in
          Ok (Retry { key; attempt; backoff_s })
      | "outlier" ->
          let* key = str "key" in
          Ok (Outlier { key })
      | "quarantine_add" ->
          let* key = str "key" in
          let* reason = str "reason" in
          Ok (Quarantine_added { key; reason })
      | "quarantine_hit" ->
          let* key = str "key" in
          let* reason = str "reason" in
          Ok (Quarantine_hit { key; reason })
      | "worker_crash" ->
          let* detail = str "detail" in
          Ok (Worker_crashed { detail })
      | "checkpoint_save" ->
          let* path = str "path" in
          Ok (Checkpoint_saved { path })
      | "checkpoint_load" ->
          let* path = str "path" in
          let* entries = int "entries" in
          Ok (Checkpoint_loaded { path; entries })
      | "timer" ->
          let* name = str "name" in
          let* seconds = num "seconds" in
          Ok (Timer { name; seconds })
      | "phase_begin" ->
          let* phase = phase "phase" in
          Ok (Phase_begin { phase })
      | "phase_end" ->
          let* phase = phase "phase" in
          Ok (Phase_end { phase })
      | "prune" ->
          let* module_name = str "module" in
          let* kept = int "kept" in
          Ok (Prune_kept { module_name; kept })
      | "rung_open" ->
          let* rung = int "rung" in
          let* arms = int "arms" in
          let* pulls = int "pulls" in
          Ok (Rung_opened { rung; arms; pulls })
      | "rung_close" ->
          let* rung = int "rung" in
          let* survivors = int "survivors" in
          Ok (Rung_closed { rung; survivors })
      | "arm_promote" ->
          let* rung = int "rung" in
          let* arm = int "arm" in
          Ok (Arm_promoted { rung; arm })
      | "arm_elim" ->
          let* rung = int "rung" in
          let* arm = int "arm" in
          Ok (Arm_eliminated { rung; arm })
      | "req_recv" ->
          let* id = str "id" in
          let* tenant = str "tenant" in
          let* fingerprint = str "fingerprint" in
          Ok (Request_received { id; tenant; fingerprint })
      | "req_admit" ->
          let* id = str "id" in
          let* queue_depth = int "queue_depth" in
          Ok (Request_admitted { id; queue_depth })
      | "req_coalesce" ->
          let* id = str "id" in
          let* leader = str "leader" in
          Ok (Request_coalesced { id; leader })
      | "req_cached" ->
          let* id = str "id" in
          Ok (Request_cached { id })
      | "req_reject" ->
          let* id = str "id" in
          let* reason = str "reason" in
          Ok (Request_rejected { id; reason })
      | "group_start" ->
          let* fingerprint = str "fingerprint" in
          let* members = int "members" in
          Ok (Group_started { fingerprint; members })
      | "group_end" ->
          let* fingerprint = str "fingerprint" in
          let* members = int "members" in
          let* run_s = num "run_s" in
          Ok (Group_finished { fingerprint; members; run_s })
      | "group_cancel" ->
          let* fingerprint = str "fingerprint" in
          Ok (Group_cancelled { fingerprint })
      | "req_expire" ->
          let* id = str "id" in
          Ok (Request_expired { id })
      | "req_replay" ->
          let* id = str "id" in
          let* fingerprint = str "fingerprint" in
          Ok (Request_replayed { id; fingerprint })
      | "server_recover" ->
          let* restarts = int "restarts" in
          let* replayed = int "replayed" in
          let* poisoned = int "poisoned" in
          Ok (Server_recovered { restarts; replayed; poisoned })
      | tag -> Error (Printf.sprintf "unknown event tag '%s'" tag))
