(** A minimal JSON value type, printer and parser.

    The harness has no JSON dependency (and may not grow one), but the
    trace exporters ({!Export}) and the offline reader ({!Report}) need a
    common wire format, so this module implements the small subset the
    trace schema uses: objects, arrays, strings, booleans, null, and
    numbers split into [Int] and [Float] so integer fields survive a
    round-trip exactly.

    Printing is deterministic — object fields are emitted in the order
    given, floats use a shortest-round-trip decimal form — which is what
    makes logical-clock trace files byte-comparable across runs. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line, no spaces) rendering.
    @raise Invalid_argument on a non-finite float: JSON has no lexeme for
    them and the trace schema never produces one. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed); [Error]
    carries a position-annotated reason.  Accepts exactly what
    {!to_string} emits, plus ordinary JSON escapes and whitespace. *)

val member : string -> t -> t option
(** Field lookup in an [Obj] ([None] on missing field or non-object). *)

val to_int : t -> int option
(** [Int n] as [Some n] (floats are not silently truncated). *)

val to_float : t -> float option
(** [Float f] or [Int n] as a float. *)

val to_str : t -> string option
(** [String s] as [Some s]. *)

val string_field : t -> string -> (string, string) result
(** [string_field json name]: {!member} [name] of [json] as a string, or
    [Error "missing string field 'name'"]. *)

val int_field : t -> string -> (int, string) result
(** As {!string_field} for an [Int] (["missing int field ..."]). *)

val number_field : t -> string -> (float, string) result
(** As {!string_field} for an [Int] or a [Float] (["missing number field
    ..."]). *)
