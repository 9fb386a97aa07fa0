type t = { path : string; every : int; lock : Mutex.t; mutable pending : int }

let create ~path ?(every = 64) () =
  if every < 1 then invalid_arg "Checkpoint.create: every must be >= 1";
  { path; every; lock = Mutex.create (); pending = 0 }

let path t = t.path

let load ?warn t =
  if not (Sys.file_exists t.path) then None
  else begin
    let cache = Cache.create () and quarantine = Quarantine.create () in
    ignore (Cache.sync ?warn cache ~quarantine ~path:t.path : Cache.synced);
    Some (cache, quarantine)
  end

let sync t ~cache ~quarantine =
  (Cache.sync cache ~quarantine ~path:t.path).Cache.wrote

let flush t ~cache ~quarantine =
  Mutex.protect t.lock (fun () -> t.pending <- 0);
  sync t ~cache ~quarantine

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
  (* Sync outside the counter lock: other workers may keep recording
     events meanwhile, and concurrent due syncs serialize in
     [Cache.sync]. *)
  due && sync t ~cache ~quarantine
