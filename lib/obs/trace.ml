type clock = Wall | Logical

let clock_name = function Wall -> "wall" | Logical -> "logical"

let clock_of_name = function
  | "wall" -> Some Wall
  | "logical" -> Some Logical
  | _ -> None

type stamped = {
  serial : int;
  job : int;
  seq : int;
  ts : float;
  event : Event.t;
}

type shard = { lock : Mutex.t; mutable events : stamped list }

let shard_count = 16 (* power of two: sharded by domain id, below *)

type t = {
  clock : clock;
  t0 : float;
  next_serial : int Atomic.t;
  shards : shard array;
}

let create ?(clock = Wall) () =
  {
    clock;
    t0 = Unix.gettimeofday ();
    next_serial = Atomic.make 0;
    shards =
      Array.init shard_count (fun _ ->
          { lock = Mutex.create (); events = [] });
  }

let clock t = t.clock

(* The active job scope of the current domain: (batch serial, job index,
   per-job event counter).  Pool workers process jobs sequentially, so a
   plain domain-local slot (saved/restored around each job) suffices. *)
let job_scope : (int * int * int ref) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let record_stamped t st =
  let shard =
    t.shards.((Domain.self () :> int) land (shard_count - 1))
  in
  Mutex.protect shard.lock (fun () -> shard.events <- st :: shard.events)

(* In-job events are batched in a domain-local buffer and drained into
   the domain's shard under a single mutex acquisition — at job exit
   ({!in_job}'s finally, which runs in the recording domain, so the pool
   never counts a job finished before it is drained), at
   [flush_threshold], or when the domain switches traces.  Per-event
   locking remains only for out-of-job emissions, which are rare by
   construction. *)

let flush_threshold = 512

type pending_buf = {
  tr : t;
  mutable buffered : stamped list;  (* newest first, like a shard *)
  mutable count : int;
}

let pending : pending_buf option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let drain_buf b =
  match b.buffered with
  | [] -> ()
  | evs ->
      b.buffered <- [];
      b.count <- 0;
      let shard =
        b.tr.shards.((Domain.self () :> int) land (shard_count - 1))
      in
      Mutex.protect shard.lock (fun () -> shard.events <- evs @ shard.events)

let drain_pending () =
  match Domain.DLS.get pending with
  | None -> ()
  | Some b ->
      drain_buf b;
      Domain.DLS.set pending None

let record_buffered t st =
  match Domain.DLS.get pending with
  | Some b when b.tr == t ->
      b.buffered <- st :: b.buffered;
      b.count <- b.count + 1;
      if b.count >= flush_threshold then drain_buf b
  | other ->
      (match other with Some b -> drain_buf b | None -> ());
      Domain.DLS.set pending (Some { tr = t; buffered = [ st ]; count = 1 })

(* Flush this domain's buffer when the caller is about to read [t]'s
   shards directly (insurance for readers inside a job scope). *)
let flush_local t =
  match Domain.DLS.get pending with
  | Some b when b.tr == t -> drain_buf b
  | _ -> ()

let now t = match t.clock with Wall -> Unix.gettimeofday () -. t.t0 | Logical -> 0.0

let record t event =
  match Domain.DLS.get job_scope with
  | Some (batch, index, counter) ->
      let s = !counter in
      incr counter;
      record_buffered t { serial = batch; job = index; seq = s; ts = now t; event }
  | None ->
      let serial = Atomic.fetch_and_add t.next_serial 1 in
      record_stamped t { serial; job = -1; seq = 0; ts = now t; event }

let epoch t = t.t0

(* Adopt events recorded by a worker process's shadow trace.  The
   shipment's stamps already carry the canonical (serial, job, seq) key —
   the parent allocated the batch serial before forking — so adoption is
   order-free; only wall timestamps need rebasing from the shadow's epoch
   onto ours (logical stamps are 0 on both sides). *)
let inject t ~epoch:e0 stamps =
  let dt = match t.clock with Wall -> e0 -. t.t0 | Logical -> 0.0 in
  let stamps =
    if dt = 0.0 then stamps
    else List.map (fun st -> { st with ts = st.ts +. dt }) stamps
  in
  let shard = t.shards.((Domain.self () :> int) land (shard_count - 1)) in
  Mutex.protect shard.lock (fun () ->
      shard.events <- List.rev_append stamps shard.events)

let events t =
  flush_local t;
  let all =
    Array.fold_left
      (fun acc shard ->
        List.rev_append (Mutex.protect shard.lock (fun () -> shard.events)) acc)
      [] t.shards
  in
  List.sort
    (fun a b ->
      match compare a.serial b.serial with
      | 0 -> (
          match compare a.job b.job with
          | 0 -> compare a.seq b.seq
          | c -> c)
      | c -> c)
    all

let length t =
  flush_local t;
  Array.fold_left
    (fun acc shard ->
      acc + Mutex.protect shard.lock (fun () -> List.length shard.events))
    0 t.shards

(* -- structure --------------------------------------------------------- *)

let batch t ~size =
  match t with
  | None -> 0
  | Some tr ->
      let serial = Atomic.fetch_and_add tr.next_serial 1 in
      (* job = -1 sorts the submission record ahead of the batch's jobs. *)
      record_stamped tr
        {
          serial;
          job = -1;
          seq = 0;
          ts = now tr;
          event = Event.Batch_submitted { size };
        };
      serial

let in_job t ~batch ~index f =
  match t with
  | None -> f ()
  | Some _ ->
      let saved = Domain.DLS.get job_scope in
      Domain.DLS.set job_scope (Some (batch, index, ref 0));
      Fun.protect
        ~finally:(fun () ->
          (* Drain before the scope closes: this runs in the recording
             domain, so every in-job event is in its shard before the
             pool counts the job finished and a reader can ask for it. *)
          drain_pending ();
          Domain.DLS.set job_scope saved)
        f

(* -- recording --------------------------------------------------------- *)

(* The one recording primitive: a logical clock keeps only what
   {!Event.logical} keeps, projected. *)
let put tr e =
  match tr.clock with
  | Wall -> record tr e
  | Logical -> (
      match Event.logical e with Some e -> record tr e | None -> ())

let emit t e = match t with None -> () | Some tr -> put tr e

let span t phase f =
  match t with
  | None -> f ()
  | Some tr ->
      put tr (Event.Phase_begin { phase });
      Fun.protect ~finally:(fun () -> put tr (Event.Phase_end { phase })) f

(* Nobody counts job starts and finishes, so these build the event only
   when a trace is attached. *)
let job_started t ~key =
  match t with None -> () | Some tr -> put tr (Event.Job_started { key })

let job_finished t ~key ~outcome ~elapsed_s =
  match t with
  | None -> ()
  | Some tr -> put tr (Event.Job_finished { key; outcome; elapsed_s })

let cache_lookup t ~key ~hit =
  emit t (if hit then Event.Cache_hit { key } else Event.Cache_miss { key })

(* -- resume-invariant normalization ------------------------------------ *)

(* Project an event onto the resume-invariant skeleton (see the .mli for
   the rule-by-rule rationale), or [None] to drop it. *)
let normalize_event = function
  (* The documented resume boundary: a key whose fault verdict was
     snapshotted replays as one Quarantine_hit instead of the original
     Fault_injected/Retry sequence — same verdict, different evidence. *)
  | Event.Fault_injected _ | Event.Retry _ | Event.Quarantine_hit _ -> None
  (* Server request-lifecycle events are live-traffic facts (arrival
     order, coalescing, queue depth), not search facts: a resumed search
     owes them nothing, so they are outside the invariant skeleton. *)
  | Event.Request_received _ | Event.Request_admitted _
  | Event.Request_coalesced _ | Event.Request_cached _
  | Event.Request_rejected _ | Event.Group_started _
  | Event.Group_finished _ | Event.Group_cancelled _
  | Event.Request_expired _ | Event.Request_replayed _
  | Event.Server_recovered _ -> None
  (* Schedule detail — which worker took the miss, performed the build,
     saved the snapshot — is dropped or projected as a logical clock
     does. *)
  | e -> Event.logical e

let resume_invariant st = Option.is_some (normalize_event st.event)

let normalized_lines ?(is_quarantined = fun _ -> false) t =
  List.filter_map
    (fun st ->
      match normalize_event st.event with
      | None -> None
      (* A key that ends the run quarantined only queried the cache on the
         runs that derived its verdict the hard way (fresh fault path),
         never on the runs that replayed the verdict from a snapshot —
         the one cache-query asymmetry resume can produce.  The verdict
         itself stays: its Job_finished outcome must and does agree. *)
      | Some (Event.Cache_query { key }) when is_quarantined key -> None
      | Some e ->
          Some
            (Json.to_string
               (Json.Obj (("ev", Json.String (Event.name e)) :: Event.fields e))))
    (events t)
