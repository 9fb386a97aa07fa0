(** Single-flight coalescing and per-tenant fair scheduling.

    The scheduler is the server's pure core: it never touches sockets,
    which is what makes coalescing and fairness unit-testable without a
    daemon.  Members are tagged with an arbitrary payload (the server
    uses the client connection; tests use unit).  It counts nothing:
    the server reports each verdict as an event that
    {!Ft_obs.Telemetry.count} counts.

    {2 Semantics}

    - {b Coalescing}: requests are keyed by their spec's
      {!Protocol.fingerprint}.  The first submitter of a fingerprint
      opens a {e group} and becomes its leader; later submitters join
      the group — whether it is still queued or already running — and
      all members receive the one search's result.  Soundness rests on
      the engine's determinism contract (equal spec ⇒ byte-identical
      result), so sharing is observationally equivalent to running each
      request alone.
    - {b Memoization}: a completed group's outcome is remembered, so a
      resubmitted fingerprint is answered without queueing at all.
    - {b Fairness}: each group is owned by its leader's tenant.
      {!next} serves tenants round-robin (oldest pending group of the
      next tenant in the ring), so a tenant flooding the queue cannot
      starve another tenant's single request.
    - {b Admission control}: the total number of waiting members (every
      submitted-but-unanswered request, across queued and running
      groups) is bounded by [max_queue]; beyond it, {!submit} refuses
      with {!Protocol.Queue_full}.  After {!drain}, every submission is
      refused with {!Protocol.Draining}. *)

type outcome = { text : string; speedup : float; evaluations : int }
(** What a finished search hands back to every group member —
    [text] is the {!Ft_core.Result.render} block. *)

type 'a member = {
  id : string;
  tenant : string;
  deadline : float option;
      (** absolute expiry on the monotonic clock ({!Ft_util.Clock.now}
          seconds — a wall-clock step must not expire or resurrect
          members); [None] waits forever.  The journal persists the
          wall-clock equivalent; the server converts at the boundary. *)
  payload : 'a;
}

type 'a t

val create : max_queue:int -> 'a t
(** @raise Invalid_argument if [max_queue < 1]. *)

type verdict =
  | Fresh  (** opened a new group; the member is its leader *)
  | Joined of { leader : string }  (** coalesced onto an existing group *)
  | Memoized of outcome  (** answered from the completed-result memo *)
  | Refused of Protocol.reject_reason

val submit :
  'a t -> spec:Protocol.tune_spec -> fingerprint:string -> 'a member -> verdict
(** Admit, coalesce, memo-answer or refuse one request.  On [Fresh] and
    [Joined] the member waits in its group until {!complete} or
    {!fail}; on [Memoized] and [Refused] it is already answered and the
    scheduler retains nothing. *)

val remember : 'a t -> fingerprint:string -> outcome -> unit
(** Seed the result memo without a submission — restart recovery feeds
    the journal's durable [completed] outcomes back in, so resubmitted
    fingerprints are answered without re-running their searches. *)

val known : 'a t -> fingerprint:string -> outcome option
(** The memoized outcome for a fingerprint, if any. *)

val next : 'a t -> (Protocol.tune_spec * string) option
(** Pick the next group to run — round-robin over tenants, oldest
    pending group within the tenant — and mark it running.  Returns the
    group's spec and fingerprint; [None] when no group is queued.
    Members keep joining a running group until it completes. *)

val members : 'a t -> fingerprint:string -> 'a member list
(** A live group's members so far, in submission order (leader first);
    [[]] for unknown fingerprints.  The server uses this for [Started]
    and [Progress] fan-out while the group keeps gaining members. *)

val complete : 'a t -> fingerprint:string -> outcome -> 'a member list
(** Finish a running group: memoize its outcome and return the members
    in submission order (leader first).  The group is gone afterwards. *)

val fail : 'a t -> fingerprint:string -> 'a member list
(** Abort a group {e without} memoizing, returning its members: its
    search failed (the error is not a result), or every subscriber left
    (nobody saw a result). *)

val expire : 'a t -> now:float -> (string * 'a member) list
(** Remove every member whose [deadline] is at or before [now], across
    all groups, returning [(fingerprint, member)] pairs so the server
    can answer each with {!Protocol.Deadline_exceeded}.  Queued groups
    emptied by the sweep are dropped; a {e running} group emptied here
    stays until the server notices ({!members} = [[]]) and calls
    {!fail}. *)

val drop_member : 'a t -> fingerprint:string -> id:string -> unit
(** Forget one waiting member (its client vanished).  A queued group
    whose last member is dropped is cancelled outright. *)

val drain : 'a t -> unit
(** Stop admitting: every later {!submit} is [Refused Draining].
    Queued and running groups still run to completion. *)

val queue_depth : 'a t -> int
(** Waiting members right now (the quantity [max_queue] bounds). *)

val idle : 'a t -> bool
(** No group queued or running. *)
