let tmp_prefix path = "." ^ Filename.basename path
let tmp_suffix = ".tmp"

let write ~path emit =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (tmp_prefix path) tmp_suffix in
  match
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        emit oc;
        flush oc);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

(* A writer SIGKILLed between [Filename.temp_file] and [Sys.rename]
   leaves its temporary behind, and in-process cleanup can never run.
   The grace period is what makes reclaiming them safe: a temporary
   older than it cannot belong to a write still in flight (writes are
   one emit + rename, never minutes), so only crash litter is touched —
   a live writer's fresh temporary and the committed file never are. *)
let default_grace_s = 300.0

let is_tmp_of ~path name =
  let prefix = tmp_prefix path in
  String.length name > String.length prefix + String.length tmp_suffix
  && String.sub name 0 (String.length prefix) = prefix
  && Filename.check_suffix name tmp_suffix

let stale_tmp_files ?(grace_s = default_grace_s) ~path () =
  let dir = Filename.dirname path in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      let now = Unix.time () in
      Array.to_list names
      |> List.filter_map (fun name ->
             if not (is_tmp_of ~path name) then None
             else
               let p = Filename.concat dir name in
               match Unix.stat p with
               | exception Unix.Unix_error _ -> None
               | st ->
                   if now -. st.Unix.st_mtime >= grace_s then Some p else None)

let sweep ?grace_s ~path () =
  List.fold_left
    (fun removed p ->
      match Sys.remove p with
      | () -> removed + 1
      | exception Sys_error _ -> removed)
    0
    (stale_tmp_files ?grace_s ~path ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end
