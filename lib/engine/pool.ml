exception Worker_failure of exn

exception Abort of string

(* Exceptions that must never be demoted to a per-job outcome: the
   asynchronous runtime failures (retrying cannot help and swallowing
   them hides a dying process) and [Abort], the deliberate
   whole-computation cancellation signal. *)
let fatal = function
  | Out_of_memory | Stack_overflow | Sys.Break | Abort _ -> true
  | _ -> false

(* -- parked helpers --------------------------------------------------------

   Helper domains are spawned on the first batch that needs them and live
   as long as the process, each parked on its own condition variable
   between batches.  A batch hands every helper it wants one closure over
   the batch's claim cursor; a helper takes the closure out of its slot
   (so a finished batch's arrays never stay reachable from it), runs it
   until the cursor is spent, and parks again.  One batch holds the
   helpers at a time ([busy]); a call that finds them held runs in place.
   [lock] guards every slot and [settled]. *)

type helper = {
  mutable work : (unit -> unit) option;
  ready : Condition.t;
}

let lock = Mutex.create ()

(* Signalled when a claimed job finishes after its batch's cursor is spent. *)
let settled = Condition.create ()

let busy = Atomic.make false

(* Touched only by the domain holding [busy]. *)
let helpers : helper array ref = ref [||]

let rec park h =
  Mutex.lock lock;
  while Option.is_none h.work do
    Condition.wait h.ready lock
  done;
  let run = Option.get h.work in
  h.work <- None;
  Mutex.unlock lock;
  run ();
  park h

let spawn_helpers count =
  while Array.length !helpers < count do
    let h = { work = None; ready = Condition.create () } in
    ignore (Domain.spawn (fun () -> park h) : unit Domain.t);
    helpers := Array.append !helpers [| h |]
  done

(* The calling domain is worker zero and the only one that waits: once
   its own share runs dry it closes the cursor and waits for the jobs
   already claimed, never for a helper that claimed nothing (on a small
   batch the caller is often done before a helper wakes; the late helper
   finds the cursor spent and parks again). *)
let parallel_map ~workers f a =
  let n = Array.length a in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let finished = Atomic.make 0 in
  let failed : exn option Atomic.t = Atomic.make None in
  let rec share () =
    if Option.is_none (Atomic.get failed) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (try results.(i) <- Some (f a.(i))
         with e -> ignore (Atomic.compare_and_set failed None (Some e)));
        Atomic.incr finished;
        if Atomic.get next >= n then begin
          Mutex.lock lock;
          Condition.broadcast settled;
          Mutex.unlock lock
        end;
        share ()
      end
    end
  in
  spawn_helpers (workers - 1);
  let hs = !helpers in
  Mutex.lock lock;
  for k = 0 to workers - 2 do
    hs.(k).work <- Some share
  done;
  Mutex.unlock lock;
  (* Signalled after unlocking, so a woken helper does not block on
     [lock] at once. *)
  for k = 0 to workers - 2 do
    Condition.signal hs.(k).ready
  done;
  let close () = min n (Atomic.exchange next n) in
  (match share () with () -> () | exception e -> ignore (close ()); raise e);
  (* The cursor is spent before [finished] is read, and a job bumps
     [finished] before it reads the cursor: one of the two sees the
     other, so a last job finishing now cannot be missed. *)
  let claimed = close () in
  if Atomic.get finished < claimed then begin
    Mutex.lock lock;
    while Atomic.get finished < claimed do
      Condition.wait settled lock
    done;
    Mutex.unlock lock
  end;
  (match Atomic.get failed with
  | Some e -> raise (Worker_failure e)
  | None -> ());
  Array.map (function Some v -> v | None -> assert false) results

let map ~jobs f a =
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  let n = Array.length a in
  if jobs = 1 || n <= 1 then Array.map f a
  else
    (* Never oversubscribe the machine: surplus domains add minor-GC
       synchronization stalls without adding parallelism (on a saturated
       core each minor collection waits for every runnable domain to be
       scheduled).  Job values are independent of worker count, so the
       clamp changes wall clock only. *)
    let workers =
      min (min jobs n) (max 1 (Domain.recommended_domain_count ()))
    in
    (* A clamped pool, a nested call from inside a job, or a second domain
       calling while a batch runs: all run in place, keeping the parallel
       path's exception envelope. *)
    if workers = 1 || not (Atomic.compare_and_set busy false true) then
      try Array.map f a with e -> raise (Worker_failure e)
    else
      Fun.protect
        ~finally:(fun () -> Atomic.set busy false)
        (fun () -> parallel_map ~workers f a)

(* Partial-results mode: exceptions are captured per item, so one failed
   job no longer poisons the batch — every other job still runs and keeps
   its slot.  Built on [map] with an infallible wrapper, which also keeps
   the fail-fast path of [map] itself untouched.  Fatal exceptions are
   exempt from capture: they escape (wrapped in [Worker_failure] on the
   parallel path) so cancellation and runtime collapse abort the batch. *)
let map_result ~jobs f a =
  map ~jobs
    (fun x ->
      match f x with v -> Ok v | exception e when not (fatal e) -> Error e)
    a
