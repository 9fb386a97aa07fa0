module Exec = Ft_machine.Exec

(* Per-file delta-sync bookkeeping: what this process last saw on disk
   under the sidecar lock, so the next [sync] can read and append only
   the delta instead of re-parsing the world.  Invalidated whenever the
   file is replaced out from under us (the dev/ino pair changes: an
   atomic save or another process's compaction) or shrinks, and when the
   sync pairs the cache with another quarantine. *)
type sync_state = {
  mutable s_offset : int;  (* committed bytes: every whole frame *)
  mutable s_records : int;  (* frames on disk, duplicates included *)
  s_known : (string, unit) Hashtbl.t;  (* summary keys on disk *)
  s_qknown : (string, unit) Hashtbl.t;  (* quarantine keys on disk *)
  mutable s_id : int * int;  (* (st_dev, st_ino) of the synced file *)
  mutable s_pending : string list;
      (* keys new to the cache since the last sync, guarded by the
         cache's [lock]: how a sync finds its news without walking the
         table *)
  s_quarantine : Quarantine.t;  (* the quarantine synced alongside *)
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

(* Under [t.lock].  A new key is news to every file the cache syncs
   with; a cache that never syncs pays one length check. *)
let insert t key summary =
  if Hashtbl.length t.sync_states > 0 && not (Hashtbl.mem t.table key) then
    Hashtbl.iter
      (fun _ state -> state.s_pending <- key :: state.s_pending)
      t.sync_states;
  Hashtbl.replace t.table key summary

let add t key summary = Mutex.protect t.lock (fun () -> insert t key summary)
let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)

let snapshot t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [])

let bindings t = List.sort compare (snapshot t)

(* Adopt entries we lack (existing keys win); returns how many were new. *)
let adopt t entries =
  Mutex.protect t.lock (fun () ->
      List.fold_left
        (fun adopted (k, v) ->
          if Hashtbl.mem t.table k then adopted
          else begin
            insert t k v;
            adopted + 1
          end)
        0 entries)

let merge t ~from = adopt t (snapshot from)

(* Install [state] for [path] and return every entry of the table, in
   one critical section: an entry added later reaches [s_pending]. *)
let attach t path state =
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.sync_states path state;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [])

(* The entries [state] has been told of since its last sync, oldest
   first, and none from now on. *)
let take_pending t state =
  Mutex.protect t.lock (fun () ->
      let keys = state.s_pending in
      state.s_pending <- [];
      List.rev_map (fun k -> (k, Hashtbl.find t.table k)) keys)

let get_sync_state t path =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.sync_states path)

(* -- text format (v1), read-only -----------------------------------------

   One entry per line,
     <key> TAB <total> TAB <nonloop> [TAB <loop-name>=<seconds>]...
   with floats in %h (hexadecimal significand), so the values read back
   bit-exactly.  Read, never written: the header's magic line picks this
   decoder, so old checkpoints and --warm-start files load, and [sync]
   migrates them to the log format in place. *)

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

let file_id (st : Unix.stats) = (st.Unix.st_dev, st.Unix.st_ino)

(* The whole file, and the (dev, ino) of the inode it was read from. *)
let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let id = file_id (Unix.fstat (Unix.descr_of_in_channel ic)) in
      (really_input_string ic (in_channel_length ic), id))

(* Decode a cache file of any format, picked by its magic line: [`Log]
   for the v3 log that [sync] appends to, [`Old] summaries for a v1 or v2
   file, which it migrates.  Shared by [load] and the full pass of
   [sync]. *)
let decode_file ~warn ~path contents =
  if contents = "" then raise (Corrupt { path; line = 1; reason = "empty file" });
  let shifted ~line ~reason = warn ~line:(line + 1) ~reason in
  let pos = String.length Cache_codec.header in
  match Cache_codec.detect contents with
  | `Corrupt reason -> raise (Corrupt { path; line = 1; reason })
  | `Text ->
      let t = create () in
      let body_start = String.length Cache_codec.text_magic + 1 in
      parse_text_body ~warn t.table
        (String.sub contents body_start (String.length contents - body_start));
      `Old (snapshot t)
  | `Binary_v2 -> `Old (Cache_codec.decode_v2 ~warn:shifted ~pos contents).entries
  | `Binary -> `Log (Cache_codec.decode ~warn:shifted ~pos contents)

(* Advisory exclusive lock on a sidecar ([path ^ ".lock"]), not on [path]
   itself: the compaction/atomic-save path replaces [path] by rename, so
   a lock on the data file's inode would guard a file that no longer
   exists.  The sidecar is stable, empty, and shared by every process
   syncing against [path].  [lockf] excludes other processes only — and
   closing any descriptor of the file drops the whole process's lock —
   so callers within one process serialize on [file_lock] first. *)
let file_lock = Mutex.create ()

let with_file_lock ~path f =
  Mutex.protect file_lock (fun () ->
      let fd =
        Unix.openfile (path ^ ".lock") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
      in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
          Unix.close fd)
        (fun () ->
          Unix.lockf fd Unix.F_LOCK 0;
          f ()))

(* Reclaim orphaned [Atomic_file] temporaries around [path] — litter from
   writers SIGKILLed mid-save.  The lock-free probe keeps the common
   clean-directory case from manufacturing sidecar lock files; actual
   removal happens under the lock so two sweepers (or a sweeper and a
   compacting sync) never race. *)
let sweep_stale_tmp ~path =
  if Atomic_file.stale_tmp_files ~path () <> [] then
    with_file_lock ~path (fun () -> ignore (Atomic_file.sweep ~path ()))

let with_default_warn ~path = function
  | Some w -> w
  | None -> fun ~line ~reason -> default_warn ~path ~line ~reason

let load ?warn path =
  let warn = with_default_warn ~path warn in
  sweep_stale_tmp ~path;
  let t = create () in
  (match decode_file ~warn ~path (fst (read_whole path)) with
  | `Old entries | `Log { Cache_codec.entries; _ } ->
      List.iter (fun (k, v) -> Hashtbl.replace t.table k v) entries);
  t

let save t ~path =
  Atomic_file.write ~path (fun oc ->
      output_string oc (Cache_codec.encode_file (bindings t)));
  (* The rename put a new inode under [path]; any delta bookkeeping for
     it now describes a dead file. *)
  Mutex.protect t.lock (fun () -> Hashtbl.remove t.sync_states path)

(* -- the log -------------------------------------------------------------

   [sync] is the one writer of a cache log, for a checkpoint and for any
   process sharing it.  Under the sidecar lock:

   - first contact with a file (or after it was replaced/shrunk): read
     and decode the whole file once, adopt what we lack, then either
     compact (atomic rewrite: torn tail, skipped records, duplicate
     bloat, or a v1/v2 file being migrated) or append just our news;
   - every sync after that: read only the bytes past the last committed
     offset we saw, adopt the delta, truncate any torn tail left by a
     writer killed mid-append (safe: we hold the exclusive lock, so no
     live writer can be inside the tail), and append only entries the
     file does not already hold.

   Appends become commits frame-by-frame — a reader never trusts bytes
   past the last whole frame — so a SIGKILL anywhere in this protocol
   loses at most the killed process's own uncommitted tail. *)

type synced = { adopted : int; wrote : bool }

let write_all = Ft_framing.Framing.write_all

(* Write [buf] at byte offset [at], truncating first: if the file tail
   past [at] is a torn frame this removes it, and when the file already
   ends at [at] the truncate is a no-op. *)
let append_at ~path ~at buf =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd at;
      ignore (Unix.lseek fd at Unix.SEEK_SET);
      let b = Buffer.to_bytes buf in
      write_all fd b 0 (Bytes.length b);
      Unix.fsync fd)

let encode_news buf entries quarantined =
  List.iter (fun (k, s) -> Cache_codec.encode_record buf k s) entries;
  List.iter (fun (k, r) -> Cache_codec.encode_quarantined buf k r) quarantined

let mark known records =
  List.iter (fun (k, _) -> Hashtbl.replace known k ()) records

let fresh_state ~quarantine ~id =
  {
    s_offset = 0;
    s_records = 0;
    s_known = Hashtbl.create 256;
    s_qknown = Hashtbl.create 16;
    s_id = id;
    s_pending = [];
    s_quarantine = quarantine;
  }

let lacking known (k, _) = not (Hashtbl.mem known k)

(* The quarantine entries the file lacks.  After every sync the
   quarantine holds exactly the keys on disk (it adopted theirs, the
   file took its news) and afterwards only grows, so it has news exactly
   when it is larger; only then is the table walked. *)
let quarantine_news state =
  if Quarantine.length state.s_quarantine = Hashtbl.length state.s_qknown
  then []
  else
    List.filter (lacking state.s_qknown)
      (Quarantine.bindings state.s_quarantine)

(* Duplicate frames accumulate when several processes race to append the
   same key (benign: values for equal keys are bit-identical).  Compact
   once the frame count is over twice the distinct entries of both
   kinds, plus slack so small files never bother. *)
let needs_compaction state =
  state.s_records
  > (2 * (Hashtbl.length state.s_known + Hashtbl.length state.s_qknown)) + 32

(* Atomic whole-file rewrite: one frame per entry, duplicates and torn
   tails gone.  Installs fresh bookkeeping for the file it writes, and
   answers [true]: the file changed. *)
let compact t ~quarantine ~path =
  let state = fresh_state ~quarantine ~id:(0, 0) in
  let entries = List.sort compare (attach t path state) in
  let quarantined = Quarantine.bindings quarantine in
  let summaries = Cache_codec.encode_file entries in
  let rest = Buffer.create 256 in
  encode_news rest [] quarantined;
  Atomic_file.write ~path (fun oc ->
      output_string oc summaries;
      Buffer.output_buffer oc rest);
  mark state.s_known entries;
  mark state.s_qknown quarantined;
  state.s_offset <- String.length summaries + Buffer.length rest;
  state.s_records <- List.length entries + List.length quarantined;
  state.s_id <- file_id (Unix.stat path);
  true

(* Append the [candidates] and quarantine entries the file lacks.
   Writes nothing, and answers [false], when there is nothing new and no
   torn tail to cut. *)
let append_news ~path ~torn state candidates =
  let entries = List.filter (lacking state.s_known) candidates in
  let quarantined = quarantine_news state in
  if entries = [] && quarantined = [] && not torn then false
  else begin
    let buf = Buffer.create 4096 in
    encode_news buf entries quarantined;
    append_at ~path ~at:state.s_offset buf;
    mark state.s_known entries;
    mark state.s_qknown quarantined;
    state.s_offset <- state.s_offset + Buffer.length buf;
    state.s_records <-
      state.s_records + List.length entries + List.length quarantined;
    true
  end

(* Fold committed records into the cache (existing keys win), the
   quarantine (likewise) and the on-disk key sets; returns how many
   summaries were new to the cache. *)
let adopt_decoded t state (d : Cache_codec.decoded) =
  mark state.s_known d.entries;
  mark state.s_qknown d.quarantined;
  state.s_records <-
    state.s_records + List.length d.entries + List.length d.quarantined
    + d.skipped;
  List.iter
    (fun (k, r) ->
      if Quarantine.find state.s_quarantine k = None then
        Quarantine.add state.s_quarantine k r)
    d.quarantined;
  adopt t d.entries

let full_sync ~warn t ~quarantine ~path =
  if not (Sys.file_exists path) then
    { adopted = 0; wrote = compact t ~quarantine ~path }
  else
    let contents, id = read_whole path in
    match decode_file ~warn ~path contents with
    | `Old entries ->
        let adopted = adopt t entries in
        { adopted; wrote = compact t ~quarantine ~path }
    | `Log d ->
        let state = fresh_state ~quarantine ~id in
        let adopted = adopt_decoded t state d in
        let wrote =
          if d.torn || d.skipped > 0 || needs_compaction state then
            compact t ~quarantine ~path
          else begin
            state.s_offset <- d.committed;
            (* First contact: any entry of the cache may be news. *)
            append_news ~path ~torn:false state (attach t path state)
          end
        in
        { adopted; wrote }

let delta_sync ~warn t ~quarantine ~path ~state ~size =
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
  let adopted = adopt_decoded t state d in
  state.s_offset <- state.s_offset + d.committed;
  let wrote =
    if d.skipped > 0 || needs_compaction state then
      compact t ~quarantine ~path
    else
      (* [append_news] truncates to [state.s_offset] first, discarding any
         torn tail [decode] refused to trust. *)
      append_news ~path ~torn:d.torn state (take_pending t state)
  in
  { adopted; wrote }

let sync ?warn t ~quarantine ~path =
  let warn = with_default_warn ~path warn in
  with_file_lock ~path (fun () ->
      ignore (Atomic_file.sweep ~path ());
      match get_sync_state t path with
      | Some state when state.s_quarantine == quarantine -> (
          match Unix.stat path with
          | st when file_id st = state.s_id && st.Unix.st_size >= state.s_offset
            ->
              delta_sync ~warn t ~quarantine ~path ~state ~size:st.Unix.st_size
          | _ | (exception Unix.Unix_error _) ->
              full_sync ~warn t ~quarantine ~path)
      | _ -> full_sync ~warn t ~quarantine ~path)
