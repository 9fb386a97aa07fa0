module Exec = Ft_machine.Exec

(* Per-file delta-sync bookkeeping: what this process last saw on disk
   under the sidecar lock, so the next [sync] can read and append only
   the delta instead of re-parsing the world.  Invalidated whenever the
   file is replaced out from under us (the dev/ino pair changes: an
   atomic save or another process's compaction) or shrinks. *)
type sync_state = {
  mutable s_offset : int;  (* committed bytes: every whole frame *)
  mutable s_records : int;  (* frames on disk, duplicates included *)
  s_known : (string, unit) Hashtbl.t;  (* keys already on disk *)
  mutable s_id : int * int;  (* (st_dev, st_ino) of the synced file *)
}

type t = {
  table : (string, Exec.summary) Hashtbl.t;
  lock : Mutex.t;
  sync_states : (string, sync_state) Hashtbl.t;  (* guarded by [lock] *)
}

let create () =
  {
    table = Hashtbl.create 1024;
    lock = Mutex.create ();
    sync_states = Hashtbl.create 4;
  }

let digest canonical = Digest.to_hex (Digest.string canonical)

let find t key =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table key)

let add t key summary =
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.table key summary)

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)

let snapshot t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [])

let bindings t = List.sort compare (snapshot t)

(* Adopt entries we lack (existing keys win); returns how many were new. *)
let adopt t entries =
  List.fold_left
    (fun adopted (k, v) ->
      Mutex.protect t.lock (fun () ->
          if Hashtbl.mem t.table k then adopted
          else begin
            Hashtbl.replace t.table k v;
            adopted + 1
          end))
    0 entries

let merge t ~from = adopt t (snapshot from)

let drop_sync_state t path =
  Mutex.protect t.lock (fun () -> Hashtbl.remove t.sync_states path)

let set_sync_state t path state =
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.sync_states path state)

let get_sync_state t path =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.sync_states path)

(* -- text format (v1), read-only -----------------------------------------

   One entry per line,
     <key> TAB <total> TAB <nonloop> [TAB <loop-name>=<seconds>]...
   with floats in %h (hexadecimal significand), so the values read back
   bit-exactly.  Read, never written: the header's magic line picks this
   decoder, so old checkpoints and --warm-start files load, and [sync]
   migrates them to binary in place. *)

(* A typed parse: every way a line can be malformed is reported as a
   message rather than an exception, so [load] can decide to skip a bad
   entry (corruption after a valid header) instead of aborting the whole
   resume. *)
let parse_entry line =
  match String.split_on_char '\t' line with
  | key :: total :: nonloop :: loops ->
      let float_of what field k =
        match float_of_string_opt field with
        (* Summaries are noise-free wall seconds, always finite; a "nan"
           or "inf" here is bit rot or a hand-edit, and admitting it would
           poison every Stats reduction downstream.  Skip the entry. *)
        | Some f when Float.is_finite f -> k f
        | Some _ -> Error (Printf.sprintf "non-finite %s %S" what field)
        | None -> Error (Printf.sprintf "unparsable %s %S" what field)
      in
      let rec parse_loops acc = function
        | [] -> Ok (List.rev acc)
        | field :: rest -> (
            match String.index_opt field '=' with
            | Some i ->
                float_of "loop seconds"
                  (String.sub field (i + 1) (String.length field - i - 1))
                  (fun seconds ->
                    parse_loops ((String.sub field 0 i, seconds) :: acc) rest)
            | None -> Error "loop field without '='")
      in
      float_of "total" total (fun sum_total_s ->
          float_of "nonloop" nonloop (fun sum_nonloop_s ->
              match parse_loops [] loops with
              | Ok sum_loops ->
                  Ok (key, { Exec.sum_total_s; sum_nonloop_s; sum_loops })
              | Error _ as e -> e))
  | _ -> Error "truncated entry"

exception Corrupt of { path : string; line : int; reason : string }

let default_warn ~path ~line ~reason =
  Printf.eprintf "warning: %s:%d: skipping malformed cache entry (%s)\n%!"
    path line reason

(* Parse a text-format body (everything after the header newline) into
   entries, newest-wins.  A line is trusted only once its terminating
   newline reached the disk: truncation can only tear a file's tail, and
   a torn final line may otherwise still parse — a float cut mid-digits
   is a different, valid float. *)
let parse_text_body ~warn table body =
  let lines = String.split_on_char '\n' body in
  (* A newline-terminated body splits into a trailing "" sentinel; any
     other final element is a torn line to be skipped, not parsed. *)
  let last = List.length lines - 1 in
  List.iteri
    (fun idx line ->
      if line <> "" then
        let line_no = idx + 2 in
        if idx = last then
          warn ~line:line_no ~reason:"torn final line (missing newline)"
        else
          match parse_entry line with
          | Ok (key, summary) -> Hashtbl.replace table key summary
          | Error reason -> warn ~line:line_no ~reason)
    lines

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Decode any cache file's contents (format auto-detected by magic) into
   a fresh table.  Shared by [load] and the full-pass leg of [sync]. *)
let table_of_contents ~warn ~path contents =
  if contents = "" then raise (Corrupt { path; line = 1; reason = "empty file" });
  let t = create () in
  (match Cache_codec.detect contents with
  | `Corrupt reason -> raise (Corrupt { path; line = 1; reason })
  | `Text ->
      let body_start = String.length Cache_codec.text_magic + 1 in
      parse_text_body ~warn t.table
        (String.sub contents body_start (String.length contents - body_start))
  | `Binary ->
      let d =
        Cache_codec.decode
          ~warn:(fun ~line ~reason -> warn ~line:(line + 1) ~reason)
          ~pos:(String.length Cache_codec.header)
          contents
      in
      List.iter (fun (k, v) -> Hashtbl.replace t.table k v) d.entries);
  t

(* Advisory exclusive lock on a sidecar ([path ^ ".lock"]), not on [path]
   itself: the compaction/atomic-save path replaces [path] by rename, so
   a lock on the data file's inode would guard a file that no longer
   exists.  The sidecar is stable, empty, and shared by every process
   syncing against [path]. *)
let with_file_lock ~path f =
  let lock_path = path ^ ".lock" in
  let fd = Unix.openfile lock_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
      Unix.close fd)
    (fun () ->
      Unix.lockf fd Unix.F_LOCK 0;
      f ())

(* Reclaim orphaned [Atomic_file] temporaries around [path] — litter from
   writers SIGKILLed mid-save.  The lock-free probe keeps the common
   clean-directory case from manufacturing sidecar lock files; actual
   removal happens under the lock so two sweepers (or a sweeper and a
   compacting sync) never race. *)
let sweep_stale_tmp ~path =
  if Atomic_file.stale_tmp_files ~path () <> [] then
    with_file_lock ~path (fun () -> ignore (Atomic_file.sweep ~path ()))

let load ?warn path =
  let warn =
    match warn with
    | Some w -> w
    | None -> fun ~line ~reason -> default_warn ~path ~line ~reason
  in
  sweep_stale_tmp ~path;
  table_of_contents ~warn ~path (read_whole path)

let save t ~path =
  Atomic_file.write ~path (fun oc ->
      output_string oc (Cache_codec.encode_file (bindings t)));
  (* The rename put a new inode under [path]; any delta bookkeeping for
     it now describes a dead file. *)
  drop_sync_state t path

(* -- delta sync ----------------------------------------------------------

   The journal-style protocol behind [--shared-cache] at scale.  Under
   the sidecar lock:

   - first contact with a file (or after it was replaced/shrunk): read
     and decode the whole file once, adopt what we lack, then either
     compact (atomic rewrite: torn tail, skipped records, duplicate
     bloat, or a v1 text file being migrated) or append just our news;
   - every sync after that: read only the bytes past the last committed
     offset we saw, adopt the delta, truncate any torn tail left by a
     writer killed mid-append (safe: we hold the exclusive lock, so no
     live writer can be inside the tail), and append only entries the
     file does not already hold.

   Appends become commits frame-by-frame — a reader never trusts bytes
   past the last whole frame — so a SIGKILL anywhere in this protocol
   loses at most the killed process's own uncommitted tail. *)

let file_id (st : Unix.stats) = (st.Unix.st_dev, st.Unix.st_ino)

let write_all = Ft_framing.Framing.write_all

(* Append [records] at byte offset [at], truncating first: if the file
   tail past [at] is a torn frame this removes it, and when the file
   already ends at [at] the truncate is a no-op. *)
let append_records ~path ~at records =
  let buf = Buffer.create 4096 in
  List.iter (fun (k, s) -> Cache_codec.encode_record buf k s) records;
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd at;
      ignore (Unix.lseek fd at Unix.SEEK_SET);
      let b = Buffer.to_bytes buf in
      write_all fd b 0 (Bytes.length b);
      Unix.fsync fd);
  Buffer.length buf

(* Duplicate frames accumulate when several processes race to append the
   same key (benign: values for equal keys are bit-identical).  Compact
   once the frame count is over twice the distinct keys, plus slack so
   small files never bother. *)
let needs_compaction ~records ~distinct = records > (2 * distinct) + 32

(* Atomic whole-file rewrite: one frame per binding, duplicates and torn
   tails gone.  Installs fresh bookkeeping from the file we just wrote. *)
let compact t ~path =
  let bs = bindings t in
  let contents = Cache_codec.encode_file bs in
  Atomic_file.write ~path (fun oc -> output_string oc contents);
  let st = Unix.stat path in
  let s_known = Hashtbl.create (List.length bs) in
  List.iter (fun (k, _) -> Hashtbl.replace s_known k ()) bs;
  set_sync_state t path
    {
      s_offset = String.length contents;
      s_records = List.length bs;
      s_known;
      s_id = file_id st;
    }

(* Keep the on-disk file as-is and append only entries it lacks. *)
let append_news t ~path ~state =
  let news =
    List.filter (fun (k, _) -> not (Hashtbl.mem state.s_known k)) (bindings t)
  in
  let written = append_records ~path ~at:state.s_offset news in
  List.iter (fun (k, _) -> Hashtbl.replace state.s_known k ()) news;
  state.s_offset <- state.s_offset + written;
  state.s_records <- state.s_records + List.length news;
  state.s_id <- file_id (Unix.stat path);
  set_sync_state t path state

let full_sync ?warn t ~path =
  let warn =
    match warn with
    | Some w -> w
    | None -> fun ~line ~reason -> default_warn ~path ~line ~reason
  in
  if not (Sys.file_exists path) then begin
    compact t ~path;
    0
  end
  else begin
    let contents = read_whole path in
    if contents = "" then
      raise (Corrupt { path; line = 1; reason = "empty file" });
    match Cache_codec.detect contents with
    | `Corrupt reason -> raise (Corrupt { path; line = 1; reason })
    | `Text ->
        (* v1 file: adopt it wholesale and migrate to binary in place. *)
        let adopted = merge t ~from:(table_of_contents ~warn ~path contents) in
        compact t ~path;
        adopted
    | `Binary ->
        let d =
          Cache_codec.decode
            ~warn:(fun ~line ~reason -> warn ~line:(line + 1) ~reason)
            ~pos:(String.length Cache_codec.header)
            contents
        in
        let adopted = adopt t d.entries in
        let s_known = Hashtbl.create 256 in
        List.iter (fun (k, _) -> Hashtbl.replace s_known k ()) d.entries;
        let records = List.length d.entries + d.skipped in
        if
          d.torn || d.skipped > 0
          || needs_compaction ~records ~distinct:(Hashtbl.length s_known)
        then compact t ~path
        else
          append_news t ~path
            ~state:
              {
                s_offset = d.committed;
                s_records = records;
                s_known;
                s_id = file_id (Unix.stat path);
              };
        adopted
  end

let delta_sync ?warn t ~path ~state ~size =
  let warn =
    match warn with
    | Some w -> w
    | None -> fun ~line ~reason -> default_warn ~path ~line ~reason
  in
  let delta =
    if size = state.s_offset then ""
    else begin
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          seek_in ic state.s_offset;
          really_input_string ic (size - state.s_offset))
    end
  in
  let d =
    Cache_codec.decode
      ~warn:(fun ~line ~reason ->
        warn ~line:(state.s_records + line + 1) ~reason)
      ~pos:0 delta
  in
  let adopted = adopt t d.entries in
  List.iter (fun (k, _) -> Hashtbl.replace state.s_known k ()) d.entries;
  state.s_offset <- state.s_offset + d.committed;
  state.s_records <- state.s_records + List.length d.entries + d.skipped;
  if
    d.skipped > 0
    || needs_compaction ~records:state.s_records
         ~distinct:(Hashtbl.length state.s_known)
  then compact t ~path
  else
    (* [append_news] truncates to [state.s_offset] first, discarding any
       torn tail [decode] refused to trust. *)
    append_news t ~path ~state;
  adopted

let sync ?warn t ~path =
  with_file_lock ~path (fun () ->
      ignore (Atomic_file.sweep ~path ());
      match (get_sync_state t path, Sys.file_exists path) with
      | Some state, true ->
          let st = Unix.stat path in
          if file_id st = state.s_id && st.Unix.st_size >= state.s_offset then
            delta_sync ?warn t ~path ~state ~size:st.Unix.st_size
          else full_sync ?warn t ~path
      | Some _, false | None, _ ->
          drop_sync_state t path;
          full_sync ?warn t ~path)
