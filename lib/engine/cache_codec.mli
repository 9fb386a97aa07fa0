(** Binary append-only encoding of cache log records (on-disk format v3).

    A log is the magic line ["ft-engine-cache/3\n"] followed by frames on
    the shared {!Ft_framing.Framing} wire format: an 8-byte big-endian
    payload length, then the payload — a tag byte (['S'] summary, ['Q']
    quarantine entry), the body, and a checksum, the 64-bit FNV-1a of
    length prefix, tag and body ({!Ft_util.Rng.hash64_sub}).  A summary
    body is one [(key, summary)] binding:

    {v
      u16 BE  key length        | key bytes
      f64 BE  sum_total_s       | IEEE-754 bits, bit-exact by construction
      f64 BE  sum_nonloop_s     |
      u16 BE  loop count
      per loop:  u16 BE name length | name bytes | f64 BE seconds
    v}

    A quarantine body is the [u16]-prefixed key, then a reason byte and
    its detail: ['B'] or ['C'] a [u16]-prefixed module name or crash
    diagnostic, ['W'] nothing, ['T'] the f64 timeout.

    The frame boundary is the commit marker, exactly as a newline is for
    the serve journal: a record is trusted only once its full frame is on
    disk, so a crash mid-append tears at most the file's tail and
    {!decode} recovers every committed record.  The checksum, compared in
    all 64 bits, seals the frame: one whose bytes changed after it was
    written (bit rot, a tail zero-filled by a crash) is skipped, never
    decoded.  Later records for a key shadow earlier ones.  Format v2
    had the same frames without tag or checksum, summaries only;
    {!decode_v2} still reads it.

    This module is pure string/bytes transcoding — no I/O, no locking —
    so it can be property-tested exhaustively (see [test/suite_codec.ml]).
    {!Cache} owns files, locks and the delta-[sync] protocol on top. *)

module Exec := Ft_machine.Exec

val text_magic : string
(** ["ft-engine-cache/1"] — first line of a text (v1) cache file; owned
    by {!Cache} but exposed here so format detection lives in one place. *)

val header : string
(** ["ft-engine-cache/3\n"], the exact byte prefix of a v3 log. *)

val detect : string -> [ `Binary | `Binary_v2 | `Text | `Corrupt of string ]
(** Classify file contents by magic line ([`Binary] is v3).  A proper
    prefix of a magic header is reported as [`Corrupt "truncated
    header"] (a torn header write), anything else as [`Corrupt "not an
    engine cache file"]. *)

val max_record_bytes : int
(** Ceiling on one record's payload (16 MiB).  A frame claiming more is
    garbage — an out-of-phase length prefix — not a plausible summary. *)

val encode_record : Buffer.t -> string -> Exec.summary -> unit
(** Append one framed summary record to the buffer.
    @raise Invalid_argument if the key, a loop name, or the loop list
    does not fit the u16 fields (none ever do in practice). *)

val encode_quarantined : Buffer.t -> string -> Quarantine.reason -> unit
(** Append one framed quarantine record; raises as {!encode_record}. *)

val encode_file : (string * Exec.summary) list -> string
(** Header plus one summary record per binding, in list order.
    Deterministic (callers pass sorted bindings). *)

type decoded = {
  entries : (string * Exec.summary) list;
      (** committed summaries, in file order (later shadows earlier) *)
  quarantined : (string * Quarantine.reason) list;
      (** committed quarantine entries, in file order *)
  committed : int;
      (** byte offset just past the last whole frame — the only safe
          append/truncate point *)
  torn : bool;
      (** the region past [committed] ends mid-frame or holds a garbled
          length prefix: a crashed writer's tail, to be truncated away
          by the next locked sync *)
  skipped : int;
      (** whole frames with a failed checksum or a malformed body
          (non-finite floats, unknown tags): skipped, counted, and
          compacted away later *)
}

val decode :
  ?warn:(line:int -> reason:string -> unit) ->
  pos:int ->
  string ->
  decoded
(** Decode every v3 record of [contents] from byte offset [pos] (the
    caller strips and checks the header; [pos] may also be a previous
    [committed] offset when reading a delta).  Never raises on any
    input: torn tails and skipped frames are reported through [warn] —
    [line] is the 1-based record ordinal within this scan, as the text
    loader reports line numbers — and reflected in the result.
    [committed] is relative to the start of [contents], i.e. [>= pos]. *)

val decode_v2 :
  warn:(line:int -> reason:string -> unit) ->
  pos:int ->
  string ->
  decoded
(** {!decode} for the frames of a v2 file ([quarantined] is empty). *)
