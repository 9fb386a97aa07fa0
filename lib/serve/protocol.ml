module Json = Ft_obs.Json
module Framing = Ft_framing.Framing

let version = 2
let accepted_versions = [ 1; 2 ]

type tune_spec = {
  benchmark : string;
  platform : string;
  algorithm : string;
  seed : int;
  pool : int;
  top_x : int option;
}

(* The canonical string a spec's fingerprint digests.  Every field that
   determines the search result appears exactly once, in fixed order.
   The result format has not changed since v1 and v1 requests are still
   served, so the digest keeps the v1 tag: a v1 and a v2 request for the
   same spec coalesce onto the same memo entry.  Per-request fields that
   do not affect the result (the deadline) are deliberately absent. *)
let fingerprint spec =
  Ft_engine.Cache.digest
    (Printf.sprintf "serve/v%d|bench=%s|plat=%s|algo=%s|seed=%d|pool=%d|topx=%s"
       1 spec.benchmark spec.platform spec.algorithm spec.seed spec.pool
       (match spec.top_x with None -> "default" | Some x -> string_of_int x))

type request =
  | Tune of {
      id : string;
      tenant : string;
      spec : tune_spec;
      deadline_ms : int option;
    }
  | Ping
  | Stats
  | Shutdown

type reject_reason =
  | Queue_full of { limit : int }
  | Draining
  | Unsupported of string
  | Bad_version of { got : int }
  | Malformed of string
  | Deadline_exceeded
  | Poisoned of { crashes : int }

let reject_reason_to_string = function
  | Queue_full _ -> "queue_full"
  | Draining -> "draining"
  | Unsupported what -> "unsupported: " ^ what
  | Bad_version { got } -> Printf.sprintf "bad_version %d" got
  | Malformed what -> "malformed: " ^ what
  | Deadline_exceeded -> "deadline_exceeded"
  | Poisoned _ -> "poisoned"

type origin = Fresh | Coalesced_with of string | Cached

let origin_to_string = function
  | Fresh -> "fresh"
  | Coalesced_with _ -> "coalesced"
  | Cached -> "cached"

type result_payload = {
  id : string;
  fingerprint : string;
  origin : origin;
  group_size : int;
  speedup : float;
  evaluations : int;
  run_s : float;
  text : string;
}

type response =
  | Admitted of { id : string; queue_depth : int }
  | Coalesced of { id : string; leader : string }
  | Started of { id : string }
  | Progress of { id : string; ticks : int }
  | Result of result_payload
  | Rejected of { id : string; reason : reject_reason }
  | Server_error of { id : string; message : string }
  | Pong
  | Stats_reply of (string * int) list
  | Bye

type decode_error =
  | Version_mismatch of { got : int }
  | Malformed_frame of string

let decode_error_to_string = function
  | Version_mismatch { got } ->
      Printf.sprintf "protocol version mismatch: peer speaks v%d, we speak v%d"
        got version
  | Malformed_frame reason -> "malformed frame: " ^ reason

(* -- encoding ----------------------------------------------------------- *)

let obj kind fields =
  Json.Obj (("v", Json.Int version) :: ("kind", Json.String kind) :: fields)

let spec_fields spec =
  [
    ("benchmark", Json.String spec.benchmark);
    ("platform", Json.String spec.platform);
    ("algorithm", Json.String spec.algorithm);
    ("seed", Json.Int spec.seed);
    ("pool", Json.Int spec.pool);
  ]
  @ match spec.top_x with None -> [] | Some x -> [ ("top_x", Json.Int x) ]

let request_to_json = function
  | Tune { id; tenant; spec; deadline_ms } ->
      obj "tune"
        (("id", Json.String id) :: ("tenant", Json.String tenant)
        :: (spec_fields spec
           @
           match deadline_ms with
           | None -> []
           | Some ms -> [ ("deadline_ms", Json.Int ms) ]))
  | Ping -> obj "ping" []
  | Stats -> obj "stats" []
  | Shutdown -> obj "shutdown" []

let reject_fields = function
  | Queue_full { limit } -> [ ("limit", Json.Int limit) ]
  | Bad_version { got } -> [ ("got", Json.Int got) ]
  | Poisoned { crashes } -> [ ("crashes", Json.Int crashes) ]
  | Draining | Unsupported _ | Malformed _ | Deadline_exceeded -> []

let response_to_json = function
  | Admitted { id; queue_depth } ->
      obj "admitted"
        [ ("id", Json.String id); ("queue_depth", Json.Int queue_depth) ]
  | Coalesced { id; leader } ->
      obj "coalesced" [ ("id", Json.String id); ("leader", Json.String leader) ]
  | Started { id } -> obj "started" [ ("id", Json.String id) ]
  | Progress { id; ticks } ->
      obj "progress" [ ("id", Json.String id); ("ticks", Json.Int ticks) ]
  | Result r ->
      obj "result"
        [
          ("id", Json.String r.id);
          ("fingerprint", Json.String r.fingerprint);
          ("origin", Json.String (origin_to_string r.origin));
          ( "leader",
            match r.origin with
            | Coalesced_with leader -> Json.String leader
            | Fresh | Cached -> Json.Null );
          ("group_size", Json.Int r.group_size);
          ("speedup", Json.Float r.speedup);
          ("evaluations", Json.Int r.evaluations);
          ("run_s", Json.Float r.run_s);
          ("text", Json.String r.text);
        ]
  | Rejected { id; reason } ->
      obj "rejected"
        (("id", Json.String id)
        :: ("reason", Json.String (reject_reason_to_string reason))
        :: reject_fields reason)
  | Server_error { id; message } ->
      obj "error" [ ("id", Json.String id); ("message", Json.String message) ]
  | Pong -> obj "pong" []
  | Stats_reply counters ->
      obj "stats_reply"
        [ ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters)) ]
  | Bye -> obj "bye" []

(* -- decoding ----------------------------------------------------------- *)

let ( let* ) = Result.bind

let malformed r = Result.map_error (fun reason -> Malformed_frame reason) r
let str json field = malformed (Json.string_field json field)
let int json field = malformed (Json.int_field json field)
let num json field = malformed (Json.number_field json field)

(* Version gate shared by both directions: absent ⇒ malformed (the peer
   is not speaking this protocol at all), present-but-unknown ⇒ the
   typed mismatch a server answers with [Rejected (Bad_version _)].
   v1 is still accepted: every v1 message is a valid v2 message without
   the optional v2 fields. *)
let versioned json k =
  match Option.bind (Json.member "v" json) Json.to_int with
  | None -> Error (Malformed_frame "missing protocol version field 'v'")
  | Some v when not (List.mem v accepted_versions) ->
      Error (Version_mismatch { got = v })
  | Some _ -> k ()

let spec_of_json json =
  let* benchmark = str json "benchmark" in
  let* platform = str json "platform" in
  let* algorithm = str json "algorithm" in
  let* seed = int json "seed" in
  let* pool = int json "pool" in
  let top_x = Option.bind (Json.member "top_x" json) Json.to_int in
  Ok { benchmark; platform; algorithm; seed; pool; top_x }

let request_of_json json =
  versioned json @@ fun () ->
  let* kind = str json "kind" in
  match kind with
  | "tune" ->
      let* id = str json "id" in
      let* tenant = str json "tenant" in
      let* spec = spec_of_json json in
      let deadline_ms = Option.bind (Json.member "deadline_ms" json) Json.to_int in
      Ok (Tune { id; tenant; spec; deadline_ms })
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | kind -> Error (Malformed_frame (Printf.sprintf "unknown request kind '%s'" kind))

(* The wire reason string round-trips into the typed reason where the
   payload survives; free-text reasons keep their text. *)
let reject_reason_of json reason =
  if reason = "queue_full" then
    Queue_full { limit = Option.value ~default:0 (Option.bind (Json.member "limit" json) Json.to_int) }
  else if reason = "draining" then Draining
  else if reason = "deadline_exceeded" then Deadline_exceeded
  else if reason = "poisoned" then
    Poisoned
      {
        crashes =
          Option.value ~default:0
            (Option.bind (Json.member "crashes" json) Json.to_int);
      }
  else
    match String.index_opt reason ' ' with
    | _ when String.length reason >= 13 && String.sub reason 0 13 = "unsupported: " ->
        Unsupported (String.sub reason 13 (String.length reason - 13))
    | _ when String.length reason >= 11 && String.sub reason 0 11 = "malformed: " ->
        Malformed (String.sub reason 11 (String.length reason - 11))
    | _ when String.length reason >= 12 && String.sub reason 0 12 = "bad_version " -> (
        match int_of_string_opt (String.sub reason 12 (String.length reason - 12)) with
        | Some got -> Bad_version { got }
        | None -> Malformed reason)
    | _ -> Malformed reason

let response_of_json json =
  versioned json @@ fun () ->
  let* kind = str json "kind" in
  match kind with
  | "admitted" ->
      let* id = str json "id" in
      let* queue_depth = int json "queue_depth" in
      Ok (Admitted { id; queue_depth })
  | "coalesced" ->
      let* id = str json "id" in
      let* leader = str json "leader" in
      Ok (Coalesced { id; leader })
  | "started" ->
      let* id = str json "id" in
      Ok (Started { id })
  | "progress" ->
      let* id = str json "id" in
      let* ticks = int json "ticks" in
      Ok (Progress { id; ticks })
  | "result" ->
      let* id = str json "id" in
      let* fingerprint = str json "fingerprint" in
      let* origin_s = str json "origin" in
      let* origin =
        match origin_s with
        | "fresh" -> Ok Fresh
        | "cached" -> Ok Cached
        | "coalesced" -> (
            match Option.bind (Json.member "leader" json) Json.to_str with
            | Some leader -> Ok (Coalesced_with leader)
            | None -> Error (Malformed_frame "coalesced result without leader"))
        | o -> Error (Malformed_frame (Printf.sprintf "unknown origin '%s'" o))
      in
      let* group_size = int json "group_size" in
      let* speedup = num json "speedup" in
      let* evaluations = int json "evaluations" in
      let* run_s = num json "run_s" in
      let* text = str json "text" in
      Ok
        (Result
           { id; fingerprint; origin; group_size; speedup; evaluations; run_s; text })
  | "rejected" ->
      let* id = str json "id" in
      let* reason = str json "reason" in
      Ok (Rejected { id; reason = reject_reason_of json reason })
  | "error" ->
      let* id = str json "id" in
      let* message = str json "message" in
      Ok (Server_error { id; message })
  | "pong" -> Ok Pong
  | "stats_reply" -> (
      match Json.member "counters" json with
      | Some (Json.Obj fields) ->
          let* counters =
            List.fold_left
              (fun acc (k, v) ->
                let* acc = acc in
                match Json.to_int v with
                | Some n -> Ok ((k, n) :: acc)
                | None ->
                    Error (Malformed_frame ("non-integer counter '" ^ k ^ "'")))
              (Ok []) fields
          in
          Ok (Stats_reply (List.rev counters))
      | _ -> Error (Malformed_frame "stats_reply without counters object"))
  | "bye" -> Ok Bye
  | kind ->
      Error (Malformed_frame (Printf.sprintf "unknown response kind '%s'" kind))

(* -- framed transport --------------------------------------------------- *)

let max_frame_bytes = 1024 * 1024

let of_frame decode frame =
  match Json.of_string (Bytes.to_string frame) with
  | Error e -> Error (Malformed_frame e)
  | Ok json -> decode json

let request_of_frame frame = of_frame request_of_json frame
let response_of_frame frame = of_frame response_of_json frame

let write_json fd json = Framing.write_bytes fd (Bytes.of_string (Json.to_string json))

let write_request fd req = write_json fd (request_to_json req)
let write_response fd resp = write_json fd (response_to_json resp)

let read_response fd =
  match Framing.read_bytes ~max_bytes:max_frame_bytes fd with
  | Error e -> Error (`Framing e)
  | Ok frame -> (
      match response_of_frame frame with
      | Error e -> Error (`Decode e)
      | Ok resp -> Ok resp)
