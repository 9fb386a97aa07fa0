type t = {
  path : string;
  every : int;
  lock : Mutex.t;
  save_lock : Mutex.t;
  mutable pending : int;
  on_write : (string -> unit) option;
}

let create ~path ?(every = 64) ?on_write () =
  if every < 1 then invalid_arg "Checkpoint.create: every must be >= 1";
  {
    path;
    every;
    lock = Mutex.create ();
    save_lock = Mutex.create ();
    pending = 0;
    on_write;
  }

let path t = t.path
let quarantine_path t = t.path ^ ".quarantine"
let commit_path t = t.path ^ ".commit"
let exists t = Sys.file_exists t.path

let notify t stage =
  match t.on_write with None -> () | Some f -> f stage

(* The commit record: digests of both snapshot files, written last.  A
   checkpoint is "committed" exactly when the record matches what is on
   disk — any crash between the three writes leaves a detectable (and
   survivable) tear instead of a silently inconsistent pair. *)

let commit_magic = "ft-checkpoint-commit/1"

type commit = { cache_digest : string; quarantine_digest : string }

let read_commit t =
  let path = commit_path t in
  if not (Sys.file_exists path) then Ok None
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let field expected line =
          match String.split_on_char ' ' line with
          | [ tag; digest ] when tag = expected && String.length digest = 32 ->
              Some digest
          | _ -> None
        in
        match
          let magic = In_channel.input_line ic in
          let cache = In_channel.input_line ic in
          let quarantine = In_channel.input_line ic in
          (magic, cache, quarantine)
        with
        | Some magic, Some c, Some q when magic = commit_magic -> (
            match (field "cache" c, field "quarantine" q) with
            | Some cache_digest, Some quarantine_digest ->
                Ok (Some { cache_digest; quarantine_digest })
            | _ -> Error "malformed commit record")
        | _ -> Error "malformed commit record")

let save t ~cache ~quarantine =
  (* One save transaction at a time: two workers both becoming "due" must
     not interleave their file writes, or the commit record of one could
     describe the snapshots of the other. *)
  Mutex.protect t.save_lock (fun () ->
      (* Quarantine first.  If we crash before the cache is written, the
         survivor pairs an older cache with a newer quarantine — the safe
         tear direction: resuming re-measures the missing summaries
         (deterministically) and the extra quarantine entries are exactly
         what re-evaluation would have re-derived.  The opposite order
         could resurrect a quarantined configuration with a stale verdict. *)
      Quarantine.save quarantine ~path:(quarantine_path t);
      notify t "quarantine";
      Cache.save cache ~path:t.path;
      notify t "cache";
      Atomic_file.write ~path:(commit_path t) (fun oc ->
          Printf.fprintf oc "%s\ncache %s\nquarantine %s\n" commit_magic
            (Digest.to_hex (Digest.file t.path))
            (Digest.to_hex (Digest.file (quarantine_path t))));
      notify t "commit")

let load ?warn t =
  if not (exists t) then None
  else begin
    let warn_commit reason =
      match warn with
      | Some w -> w ~line:0 ~reason
      | None ->
          Printf.eprintf "warning: %s: %s\n%!" (commit_path t) reason
    in
    (match read_commit t with
    | Error reason -> warn_commit reason
    | Ok None ->
        warn_commit
          "no commit record (snapshot predates the commit protocol); \
           trusting both snapshot files as-is"
    | Ok (Some c) ->
        let check label file expected =
          if not (Sys.file_exists file) then
            warn_commit
              (Printf.sprintf "torn checkpoint: %s snapshot is missing" label)
          else if Digest.to_hex (Digest.file file) <> expected then
            warn_commit
              (Printf.sprintf
                 "torn checkpoint: %s snapshot does not match its commit \
                  record; resuming anyway (deterministic replay re-derives \
                  the difference)"
                 label)
        in
        check "cache" t.path c.cache_digest;
        check "quarantine" (quarantine_path t) c.quarantine_digest);
    let cache = Cache.load ?warn t.path in
    let quarantine =
      if Sys.file_exists (quarantine_path t) then
        Quarantine.load ?warn (quarantine_path t)
      else Quarantine.create ()
    in
    Some (cache, quarantine)
  end

let flush t ~cache ~quarantine =
  Mutex.protect t.lock (fun () -> t.pending <- 0);
  save t ~cache ~quarantine

let tick t ~cache ~quarantine =
  let due =
    Mutex.protect t.lock (fun () ->
        t.pending <- t.pending + 1;
        if t.pending >= t.every then begin
          t.pending <- 0;
          true
        end
        else false)
  in
  (* Save outside the counter lock: Cache.save takes the cache lock and
     can be slow; other workers may keep recording events meanwhile.
     [save] serializes concurrent due-savers on its own lock. *)
  if due then save t ~cache ~quarantine;
  due
