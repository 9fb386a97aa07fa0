(* A fixed-size pool of forked worker processes fed contiguous chunks.

   [map_chunked] forks up to [workers] children *after* the closure
   exists, so it is inherited through fork-time memory and only plain
   data ever crosses a pipe ({!Ipc} frames).  Workers take contiguous
   chunks of slots from one shared cursor; each holds two chunks in
   flight, so it never waits for the parent, and answers each chunk with
   one frame: the per-slot values plus the chunk's delta.

   Crash isolation is the point.  Before each job a worker writes the
   job's slot to its progress pipe, which the parent drains on every
   reply and reads to EOF when the worker dies.  A dead worker — killed
   by a signal, a nonzero exit, or a torn reply frame — costs exactly
   one slot, the one it was running, surfaced as [Error (Crashed _)];
   every other slot it held goes back to the cursor.  The pool refills
   itself (bounded respawns) and never retries a crashed slot itself:
   retry policy belongs to the engine, which re-runs deterministic jobs
   and gets bit-identical values. *)

type crash = { pid : int; detail : string }

type failure =
  | Raised of string
  | Crashed of crash

let crash_to_string { pid; detail } = Printf.sprintf "worker %d %s" pid detail

let failure_to_string = function
  | Raised msg -> "raised " ^ msg
  | Crashed c -> crash_to_string c

(* Chunk sizing: remaining ÷ (divisor · workers), clamped to [1, cap].
   The shrinking tail keeps workers balanced at a batch's end. *)
let chunk_cap = 64
let chunk_divisor = 4
let chunks_in_flight = 2

(* Parent->worker frame: run slots [lo, hi).  [kill_at] is the slot at
   which the chaos designee SIGKILLs itself, after writing that slot's
   progress marker ([-1]: none) — the hook behind [--kill-workers-after]. *)
type request = { lo : int; hi : int; kill_at : int }

(* Worker->parent frame, one per chunk. *)
type ('b, 'd) reply = {
  r_lo : int;
  values : ('b, string) result array;
  delta : 'd;
}

type worker = {
  pid : int;
  job_w : Unix.file_descr;
  job_writer : Ipc.Writer.t;  (* scratch-buffer reuse across feeds *)
  res_r : Unix.file_descr;
  prog_r : Unix.file_descr;  (* progress markers; nonblocking *)
  mutable chunks : (int * int) list;  (* fed, unanswered; oldest first *)
  mutable started : int;  (* last marker read, -1 before the first *)
  mutable fed : int;
  mutable alive : bool;
  chaos_designee : bool;
}

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else Printf.sprintf "signal %d" s

let reap pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | _, Unix.WSIGNALED s -> Printf.sprintf "killed by %s" (signal_name s)
  | _, Unix.WSTOPPED s -> Printf.sprintf "stopped by %s" (signal_name s)
  | exception Unix.Unix_error _ -> "already reaped"

(* Markers are 4-byte slots.  A pipe write of at most PIPE_BUF bytes is
   atomic, so a read into a buffer of whole markers returns whole
   markers, and only the last one matters. *)
let marker_bytes = 4

let drain buf w =
  let rec go () =
    match Unix.read w.prog_r buf 0 (Bytes.length buf) with
    | 0 -> ()
    | got ->
        let last = (got / marker_bytes * marker_bytes) - marker_bytes in
        if last >= 0 then
          w.started <- Int32.to_int (Bytes.get_int32_be buf last);
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* The child side: read chunk frames until EOF (the parent closed our
   pipe: clean retirement), run each slot under one [session], reply.
   Exit is always [Unix._exit], never [Stdlib.exit] or a return into the
   parent's code: the child inherited the parent's channel buffers at
   fork and must not flush them a second time — stdout byte-identity
   across backends depends on it. *)
let worker_loop session job_r res_w prog_w =
  let res = Ipc.Writer.create res_w in
  let marker = Bytes.create marker_bytes in
  let rec loop () =
    match Ipc.read job_r with
    | Error `Eof -> Unix._exit 0
    | Error (`Torn _) -> Unix._exit 3
    | Ok { lo; hi; kill_at } ->
        let job, close = session () in
        let values =
          Array.init (hi - lo) (fun j ->
              let slot = lo + j in
              Bytes.set_int32_be marker 0 (Int32.of_int slot);
              ignore (Unix.write prog_w marker 0 marker_bytes);
              if slot = kill_at then Unix.kill (Unix.getpid ()) Sys.sigkill;
              match job slot with
              | v -> Stdlib.Ok v
              | exception e -> Stdlib.Error (Printexc.to_string e))
        in
        let reply = { r_lo = lo; values; delta = close () } in
        (match Ipc.Writer.write res reply with
        | () -> ()
        | exception _ -> Unix._exit 2);
        loop ()
  in
  try loop () with _ -> Unix._exit 4

let map_chunked ~workers ?on_delta ?on_result ?kill_first_worker_after
    session n =
  if workers < 1 then invalid_arg "Procpool.map: workers must be >= 1";
  let results = Array.make n None in
  if n = 0 then [||]
  else begin
    let worker_count = min workers n in
    let drain = drain (Bytes.create (1024 * marker_bytes)) in
    (* A worker dying between chunks raises EPIPE on the next feed; that
       must reach our crash handling, not kill the parent. *)
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    let live = ref [] in
    (* The cursor: unassigned slot ranges, fed head first.  Slots a dead
       worker held but never answered are pushed back on the front. *)
    let pending = ref [ (0, n) ] in
    let unassigned = ref n in
    let chaos_fired = ref false in
    let completed = ref 0 in
    let respawns = ref 0 in
    (* Every respawn is paid for by a crash, and every crash consumes one
       slot, so respawns are naturally bounded by [n]; the explicit budget
       only guards the no-chunk corner (a worker dying before its first
       feed). *)
    let respawn_budget = (2 * worker_count) + n in
    let finish i r =
      results.(i) <- Some r;
      incr completed;
      match on_result with Some cb -> cb i r | None -> ()
    in
    let spawn ~chaos_designee () =
      let job_r, job_w = Unix.pipe () in
      let res_r, res_w = Unix.pipe () in
      let prog_r, prog_w = Unix.pipe () in
      flush stdout;
      flush stderr;
      match Unix.fork () with
      | 0 ->
          List.iter close_noerr [ job_w; res_r; prog_r ];
          (* Siblings' parent-side fds were inherited too; holding their
             write ends open would mask a sibling's EOF from the parent. *)
          List.iter
            (fun w -> List.iter close_noerr [ w.job_w; w.res_r; w.prog_r ])
            !live;
          worker_loop session job_r res_w prog_w
      | pid ->
          List.iter close_noerr [ job_r; res_w; prog_w ];
          Unix.set_nonblock prog_r;
          let w =
            { pid; job_w; job_writer = Ipc.Writer.create job_w; res_r; prog_r;
              chunks = []; started = -1; fed = 0; alive = true;
              chaos_designee }
          in
          live := w :: !live
    in
    let give_back ranges =
      let ranges = List.filter (fun (lo, hi) -> lo < hi) ranges in
      List.iter (fun (lo, hi) -> unassigned := !unassigned + hi - lo) ranges;
      pending := ranges @ !pending
    in
    (* The worker's last marker names the slot it was running.  If it
       lies outside the oldest unanswered chunk, no job of that chunk
       started, and its first slot is the casualty. *)
    let mark_dead w ~torn =
      w.alive <- false;
      live := List.filter (fun x -> x != w) !live;
      close_noerr w.job_w;
      close_noerr w.res_r;
      (* A torn frame means the stream is unusable even if the process
         is somehow still running: put it down before reaping. *)
      if torn <> None then (try Unix.kill w.pid Sys.sigkill with _ -> ());
      let status = reap w.pid in
      drain w;
      close_noerr w.prog_r;
      let detail =
        match torn with Some d -> d ^ "; " ^ status | None -> status
      in
      match w.chunks with
      | [] -> ()
      | (lo, hi) :: later ->
          let c = if lo <= w.started && w.started < hi then w.started else lo in
          w.chunks <- [];
          give_back ((lo, c) :: (c + 1, hi) :: later);
          finish c (Stdlib.Error (Crashed { pid = w.pid; detail }))
    in
    (* While the chaos hook is armed but unfired, non-designees may not
       take the last slots: the designee needs [k] jobs plus one more for
       the kill to fire, and under an unlucky scheduler a starved
       designee could otherwise watch its siblings drain the whole array
       — leaving an armed kill that silently never happens (and
       crash-count tests that flake with machine load). *)
    let reserved_for_designee w =
      match kill_first_worker_after with
      | Some k when (not !chaos_fired) && not w.chaos_designee -> (
          match
            List.find_opt (fun x -> x.chaos_designee && x.alive) !live
          with
          | Some d -> max 0 (k + 1 - d.fed)
          | None -> 0)
      | _ -> 0
    in
    let take w =
      let avail = !unassigned - reserved_for_designee w in
      match !pending with
      | (lo, hi) :: rest when avail > 0 ->
          let size =
            !unassigned / (chunk_divisor * worker_count)
            |> min chunk_cap |> max 1 |> min avail |> min (hi - lo)
          in
          pending := if lo + size < hi then (lo + size, hi) :: rest else rest;
          unassigned := !unassigned - size;
          Some (lo, lo + size)
      | _ -> None
    in
    let rec feed w =
      if w.alive && List.length w.chunks < chunks_in_flight then
        match take w with
        | None -> ()
        | Some (lo, hi) -> (
            let kill_at =
              match kill_first_worker_after with
              | Some k
                when w.chaos_designee && (not !chaos_fired)
                     && k < w.fed + (hi - lo) ->
                  chaos_fired := true;
                  lo + (k - w.fed)
              | _ -> -1
            in
            w.fed <- w.fed + (hi - lo);
            w.chunks <- w.chunks @ [ (lo, hi) ];
            match Ipc.Writer.write w.job_writer { lo; hi; kill_at } with
            | () -> feed w
            | exception _ ->
                (* Dead before it could read: its marker says how far it
                   got, and the crash path attributes the loss. *)
                mark_dead w ~torn:None)
    in
    let answer w { r_lo; values; delta } =
      drain w;
      match w.chunks with
      | (lo, hi) :: later when lo = r_lo && hi - lo = Array.length values ->
          w.chunks <- later;
          feed w;
          (match on_delta with Some f -> f delta | None -> ());
          Array.iteri
            (fun j v ->
              finish (lo + j)
                (match v with
                | Stdlib.Ok v -> Stdlib.Ok v
                | Stdlib.Error msg -> Stdlib.Error (Raised msg)))
            values
      | _ -> mark_dead w ~torn:(Some "reply for a chunk never fed")
    in
    let cleanup () =
      List.iter
        (fun w ->
          List.iter close_noerr [ w.job_w; w.res_r; w.prog_r ];
          (try Unix.kill w.pid Sys.sigkill with _ -> ());
          ignore (reap w.pid))
        !live;
      live := [];
      match old_sigpipe with
      | Some h -> (try Sys.set_signal Sys.sigpipe h with _ -> ())
      | None -> ()
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    for _ = 1 to worker_count do
      spawn ~chaos_designee:(!live = []) ()
    done;
    while !completed < n do
      (* Keep the pool at its fixed size while unassigned work remains. *)
      while
        List.length !live < worker_count
        && !unassigned > 0
        && !respawns < respawn_budget
      do
        incr respawns;
        spawn ~chaos_designee:false ()
      done;
      List.iter feed !live;
      let watched = List.filter (fun w -> w.chunks <> []) !live in
      if watched = [] && !respawns < respawn_budget then
        (* A worker died during this feed round (EPIPE on its second
           chunk); the loop head respawns it. *)
        ()
      else if watched = [] then begin
        (* The pool is gone and cannot be refilled; every remaining slot
           is unfed.  Fail them rather than spin. *)
        let detail = "no live workers (respawn budget exhausted)" in
        List.iter
          (fun (lo, hi) ->
            for i = lo to hi - 1 do
              finish i (Stdlib.Error (Crashed { pid = 0; detail }))
            done)
          !pending;
        pending := [];
        unassigned := 0;
        assert (!completed = n)
      end
      else begin
        let fds = List.map (fun w -> w.res_r) watched in
        let ready =
          match Unix.select fds [] [] (-1.0) with
          | ready, _, _ -> ready
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun fd ->
            match List.find_opt (fun w -> w.res_r = fd) watched with
            | Some w when w.alive -> (
                match Ipc.read fd with
                | Ok reply -> answer w reply
                | Error `Eof -> mark_dead w ~torn:None
                | Error (`Torn d) -> mark_dead w ~torn:(Some d))
            | _ -> ())
          ready
      end
    done;
    Array.map (function Some r -> r | None -> assert false) results
  end

let map ~workers ?on_result ?kill_first_worker_after f a =
  map_chunked ~workers ?on_result ?kill_first_worker_after
    (fun () -> ((fun i -> f a.(i)), ignore))
    (Array.length a)
