(** The daemon's durable write-ahead request journal.

    Every accepted [tune] request is appended here {e before} the client
    sees its acknowledgement, so a daemon killed at any instant can
    reconstruct exactly what it owed: which requests were accepted but
    not yet answered, which fingerprints already completed (and with
    what outcome — the durable result memo), which specs keep crashing
    the process, and how many times it has been (re)booted.

    {2 File format}

    A magic header line ([ft-serve-journal/1]) followed by one JSON
    object per line.  Appends are single [O_APPEND] [write]s followed by
    [fsync]: the trailing newline is the commit marker, so a crash can
    only ever tear the {e final} line, and {!load} (whole-file read,
    torn tail discarded with a warning — the same discipline as
    {!Ft_engine.Cache.load}) always recovers the longest valid prefix.
    Malformed interior lines are skipped through [warn] rather than
    aborting recovery.

    {2 Crash accounting}

    [Started fp] marks a search in flight; a terminal record
    ([Completed]/[Failed]/[Cancelled]/[Poisoned]) clears it.  At replay,
    every [Started] not cleared before the next [Boot] (or before the
    end of the log — the load itself witnesses the death) counts one
    crash against its fingerprint.  The server quarantines fingerprints
    whose count reaches its poison threshold. *)

type record =
  | Boot  (** a daemon (re)start; written once per [serve] *)
  | Accepted of {
      id : string;
      tenant : string;
      fingerprint : string;
      spec : Protocol.tune_spec;
      deadline : float option;  (** absolute epoch seconds, if any *)
    }  (** written before the request is acknowledged *)
  | Started of { fingerprint : string }  (** search execution began *)
  | Completed of { fingerprint : string; outcome : Scheduler.outcome }
      (** the durable result memo: restart answers this fingerprint
          without re-running the search *)
  | Failed of { fingerprint : string }  (** search returned an error *)
  | Cancelled of { fingerprint : string }
      (** abandoned on purpose (all subscribers gone) — terminal, so a
          cancellation never counts as a crash *)
  | Dropped of { id : string }
      (** one request's client vanished or expired; replay skips it *)
  | Poisoned of { fingerprint : string; crashes : int }
      (** crash-quarantined: replay never re-runs this fingerprint *)

type t
(** An open journal (append handle). *)

val open_ : string -> t
(** Open for appending, creating the file (with its magic header) if
    absent.  @raise Unix.Unix_error on filesystem failure. *)

val path : t -> string

val append : t -> record -> unit
(** Durably append one record: a single [O_APPEND] write of one
    newline-terminated line, then [fsync]. *)

val close : t -> unit

exception Corrupt of { path : string; reason : string }
(** Raised by {!load} when the file exists but is not a journal at all
    (missing or wrong magic header). *)

type pending = {
  p_id : string;
  p_tenant : string;
  p_spec : Protocol.tune_spec;
  p_fingerprint : string;
  p_deadline : float option;
}
(** An accepted request the previous incarnation never answered. *)

type replay = {
  pending : pending list;  (** unfinished requests, in acceptance order *)
  memo : (string * Scheduler.outcome) list;
      (** completed fingerprints (sorted), the durable result memo *)
  crashes : (string * int) list;
      (** per-fingerprint in-flight-at-death counts (sorted) *)
  poisoned : (string * int) list;  (** already-quarantined fingerprints *)
  boots : int;  (** [Boot] records seen (prior incarnations) *)
}

val empty_replay : replay

val load : ?warn:(line:int -> reason:string -> unit) -> string -> replay
(** Replay the journal at [path] into recovery state; {!empty_replay}
    when the file does not exist.  Torn or malformed lines are reported
    through [warn] (1-based record line numbers, the header is line 0)
    and skipped.
    @raise Corrupt if the file exists but lacks the magic header. *)

(**/**)

(* Exposed for the truncation property tests. *)
val record_to_json : record -> Ft_obs.Json.t
val format_magic : string
