module Json = Ft_obs.Json

let format_magic = "ft-serve-journal/1"

type record =
  | Boot
  | Accepted of {
      id : string;
      tenant : string;
      fingerprint : string;
      spec : Protocol.tune_spec;
      deadline : float option;
    }
  | Started of { fingerprint : string }
  | Completed of { fingerprint : string; outcome : Scheduler.outcome }
  | Failed of { fingerprint : string }
  | Cancelled of { fingerprint : string }
  | Dropped of { id : string }
  | Poisoned of { fingerprint : string; crashes : int }

(* -- encoding ----------------------------------------------------------- *)

let obj kind fields = Json.Obj (("kind", Json.String kind) :: fields)

let record_to_json = function
  | Boot -> obj "boot" []
  | Accepted { id; tenant; fingerprint; spec; deadline } ->
      obj "accepted"
        ([
           ("id", Json.String id);
           ("tenant", Json.String tenant);
           ("fingerprint", Json.String fingerprint);
         ]
        @ Protocol.spec_fields spec
        @
        match deadline with
        | None -> []
        | Some d -> [ ("deadline", Json.Float d) ])
  | Started { fingerprint } ->
      obj "started" [ ("fingerprint", Json.String fingerprint) ]
  | Completed { fingerprint; outcome } ->
      obj "completed"
        [
          ("fingerprint", Json.String fingerprint);
          ("text", Json.String outcome.Scheduler.text);
          ("speedup", Json.Float outcome.Scheduler.speedup);
          ("evaluations", Json.Int outcome.Scheduler.evaluations);
        ]
  | Failed { fingerprint } ->
      obj "failed" [ ("fingerprint", Json.String fingerprint) ]
  | Cancelled { fingerprint } ->
      obj "cancelled" [ ("fingerprint", Json.String fingerprint) ]
  | Dropped { id } -> obj "dropped" [ ("id", Json.String id) ]
  | Poisoned { fingerprint; crashes } ->
      obj "poisoned"
        [ ("fingerprint", Json.String fingerprint); ("crashes", Json.Int crashes) ]

(* -- decoding ----------------------------------------------------------- *)

let ( let* ) = Result.bind

let str = Json.string_field
let int = Json.int_field
let num = Json.number_field

let record_of_json json =
  let* kind = str json "kind" in
  match kind with
  | "boot" -> Ok Boot
  | "accepted" ->
      let* id = str json "id" in
      let* tenant = str json "tenant" in
      let* fingerprint = str json "fingerprint" in
      let* spec =
        Result.map_error
          (fun e -> Protocol.decode_error_to_string e)
          (Protocol.spec_of_json json)
      in
      let deadline = Option.bind (Json.member "deadline" json) Json.to_float in
      Ok (Accepted { id; tenant; fingerprint; spec; deadline })
  | "started" ->
      let* fingerprint = str json "fingerprint" in
      Ok (Started { fingerprint })
  | "completed" ->
      let* fingerprint = str json "fingerprint" in
      let* text = str json "text" in
      let* speedup = num json "speedup" in
      let* evaluations = int json "evaluations" in
      Ok (Completed { fingerprint; outcome = { Scheduler.text; speedup; evaluations } })
  | "failed" ->
      let* fingerprint = str json "fingerprint" in
      Ok (Failed { fingerprint })
  | "cancelled" ->
      let* fingerprint = str json "fingerprint" in
      Ok (Cancelled { fingerprint })
  | "dropped" ->
      let* id = str json "id" in
      Ok (Dropped { id })
  | "poisoned" ->
      let* fingerprint = str json "fingerprint" in
      let* crashes = int json "crashes" in
      Ok (Poisoned { fingerprint; crashes })
  | kind -> Error (Printf.sprintf "unknown record kind '%s'" kind)

let record_of_line line =
  match Json.of_string line with
  | Error e -> Error ("not a JSON object: " ^ e)
  | Ok json -> record_of_json json

(* -- the append-only file ----------------------------------------------- *)

type t = { path : string; fd : Unix.file_descr }

let open_ path =
  let existed = Sys.file_exists path in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  if not existed then begin
    let header = Bytes.of_string (format_magic ^ "\n") in
    ignore (Unix.write fd header 0 (Bytes.length header));
    Unix.fsync fd
  end;
  { path; fd }

let path t = t.path

(* One record = one newline-terminated line in one [write] call.  O_APPEND
   makes the write atomic with respect to position, and the trailing
   newline is the commit marker [load] trusts: a line the crash tore in
   half has no newline and is discarded as the torn tail. *)
let append t record =
  let line =
    Bytes.of_string (Json.to_string (record_to_json record) ^ "\n")
  in
  let n = Unix.write t.fd line 0 (Bytes.length line) in
  if n <> Bytes.length line then
    failwith ("Journal.append: short write to " ^ t.path);
  Unix.fsync t.fd

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* -- torn-tail-safe load ------------------------------------------------ *)

exception Corrupt of { path : string; reason : string }

let read_records ?(warn = fun ~line:_ ~reason:_ -> ()) path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* Only newline-terminated lines are trusted: a crash mid-append leaves
     a torn final line, which is reported and skipped — the longest valid
     prefix survives, exactly like [Cache.load]. *)
  let lines = String.split_on_char '\n' contents in
  let rec complete acc n = function
    | [] -> List.rev acc
    | [ last ] ->
        if last <> "" then
          warn ~line:n ~reason:"truncated final line discarded";
        List.rev acc
    | line :: rest -> complete ((n, line) :: acc) (n + 1) rest
  in
  match complete [] 1 lines with
  | [] -> raise (Corrupt { path; reason = "empty file (missing magic header)" })
  | (_, header) :: body ->
      if header <> format_magic then
        raise
          (Corrupt
             { path; reason = Printf.sprintf "bad magic header %S" header });
      List.filter_map
        (fun (n, line) ->
          match record_of_line line with
          | Ok r -> Some r
          | Error reason ->
              warn ~line:n ~reason;
              None)
        body

(* -- replay ------------------------------------------------------------- *)

type pending = {
  p_id : string;
  p_tenant : string;
  p_spec : Protocol.tune_spec;
  p_fingerprint : string;
  p_deadline : float option;
}

type replay = {
  pending : pending list;
  memo : (string * Scheduler.outcome) list;
  crashes : (string * int) list;
  poisoned : (string * int) list;
  boots : int;
}

let replay_records records =
  let pending : (string, pending) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let memo : (string, Scheduler.outcome) Hashtbl.t = Hashtbl.create 16 in
  let crashes : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let poisoned : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let in_flight : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let boots = ref 0 in
  let crash fp =
    Hashtbl.replace crashes fp
      (1 + Option.value ~default:0 (Hashtbl.find_opt crashes fp))
  in
  let remove_pending_fp fp =
    Hashtbl.iter
      (fun id p -> if p.p_fingerprint = fp then Hashtbl.remove pending id)
      (Hashtbl.copy pending)
  in
  let terminal fp = Hashtbl.remove in_flight fp in
  List.iter
    (function
      | Boot ->
          incr boots;
          Hashtbl.iter (fun fp () -> crash fp) (Hashtbl.copy in_flight);
          Hashtbl.reset in_flight
      | Accepted { id; tenant; fingerprint; spec; deadline } ->
          if not (Hashtbl.mem pending id) then order := id :: !order;
          Hashtbl.replace pending id
            {
              p_id = id;
              p_tenant = tenant;
              p_spec = spec;
              p_fingerprint = fingerprint;
              p_deadline = deadline;
            }
      | Started { fingerprint } -> Hashtbl.replace in_flight fingerprint ()
      | Completed { fingerprint; outcome } ->
          Hashtbl.replace memo fingerprint outcome;
          terminal fingerprint;
          remove_pending_fp fingerprint
      | Failed { fingerprint } ->
          terminal fingerprint;
          remove_pending_fp fingerprint
      | Cancelled { fingerprint } ->
          terminal fingerprint;
          remove_pending_fp fingerprint
      | Dropped { id } -> Hashtbl.remove pending id
      | Poisoned { fingerprint; crashes = n } ->
          Hashtbl.replace poisoned fingerprint n;
          terminal fingerprint;
          remove_pending_fp fingerprint)
    records;
  (* We are loading because the previous process is gone: anything still
     in flight at the end of the log crashed with it, even though no
     later Boot record witnessed the death yet. *)
  Hashtbl.iter (fun fp () -> crash fp) in_flight;
  {
    pending =
      List.filter_map (Hashtbl.find_opt pending) (List.rev !order);
    memo =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) memo []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    crashes =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) crashes []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    poisoned =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) poisoned []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    boots = !boots;
  }

let empty_replay =
  { pending = []; memo = []; crashes = []; poisoned = []; boots = 0 }

let load ?warn path =
  if Sys.file_exists path then replay_records (read_records ?warn path)
  else empty_replay
