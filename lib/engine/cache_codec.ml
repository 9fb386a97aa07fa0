module Exec = Ft_machine.Exec
module Framing = Ft_framing.Framing

let binary_magic = "ft-engine-cache/3"
let v2_magic = "ft-engine-cache/2"
let text_magic = "ft-engine-cache/1"
let header = binary_magic ^ "\n"

let detect contents =
  let starts_with magic =
    String.starts_with ~prefix:(magic ^ "\n") contents
  in
  let is_prefix_of magic =
    (* A header cut short by a torn write: the contents are a proper
       prefix of what the first line should have been. *)
    String.length contents < String.length magic + 1
    && String.sub magic 0 (String.length contents) = contents
  in
  if starts_with binary_magic then `Binary
  else if starts_with v2_magic then `Binary_v2
  else if starts_with text_magic then `Text
  else if
    contents <> ""
    && List.exists is_prefix_of [ binary_magic; v2_magic; text_magic ]
  then `Corrupt "truncated header"
  else `Corrupt "not an engine cache file"

(* One summary is a handful of loop timings; 16 MiB of payload can only
   be an out-of-phase length prefix read as a length. *)
let max_record_bytes = 16 * 1024 * 1024

(* A v3 payload is at least its tag byte and its checksum. *)
let tag_bytes = 1
let checksum_bytes = 8

(* -- encoding ------------------------------------------------------------ *)

let add_u16 buf n what =
  if n < 0 || n > 0xffff then
    invalid_arg (Printf.sprintf "Cache_codec: %s (%d) exceeds u16" what n);
  Buffer.add_uint16_be buf n

let add_float buf f = Buffer.add_int64_be buf (Int64.bits_of_float f)

let add_field buf s what =
  add_u16 buf (String.length s) what;
  Buffer.add_string buf s

(* The frame is assembled whole, length prefix included, so its checksum
   reads the bytes in place. *)
let add_frame buf tag body =
  let frame = Buffer.create 128 in
  Buffer.add_int64_be frame 0L;
  Buffer.add_char frame tag;
  body frame;
  let b = Buffer.to_bytes frame in
  Bytes.set_int64_be b 0
    (Int64.of_int (Bytes.length b - Framing.header_bytes + checksum_bytes));
  let s = Bytes.unsafe_to_string b in
  Buffer.add_string buf s;
  Buffer.add_int64_be buf
    (Ft_util.Rng.hash64_sub s ~pos:0 ~len:(String.length s))

let encode_record buf key (s : Exec.summary) =
  add_frame buf 'S' (fun frame ->
      add_field frame key "key length";
      add_float frame s.Exec.sum_total_s;
      add_float frame s.Exec.sum_nonloop_s;
      add_u16 frame (List.length s.Exec.sum_loops) "loop count";
      List.iter
        (fun (name, seconds) ->
          add_field frame name "loop name length";
          add_float frame seconds)
        s.Exec.sum_loops)

let encode_quarantined buf key (reason : Quarantine.reason) =
  add_frame buf 'Q' (fun frame ->
      add_field frame key "key length";
      match reason with
      | Build_failed m ->
          Buffer.add_char frame 'B';
          add_field frame m "module name length"
      | Crashed d ->
          Buffer.add_char frame 'C';
          add_field frame d "crash diagnostic length"
      | Wrong_answer -> Buffer.add_char frame 'W'
      | Timed_out seconds ->
          Buffer.add_char frame 'T';
          add_float frame seconds)

let encode_file bindings =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  List.iter (fun (key, summary) -> encode_record buf key summary) bindings;
  Buffer.contents buf

(* -- decoding ------------------------------------------------------------ *)

type decoded = {
  entries : (string * Exec.summary) list;
  quarantined : (string * Quarantine.reason) list;
  committed : int;
  torn : bool;
  skipped : int;
}

type record =
  | Summary of (string * Exec.summary)
  | Quarantined of (string * Quarantine.reason)

(* Body parsing with an explicit cursor over [pos, stop); any overrun or
   malformed field is a typed [Error], never an exception, so one rotted
   record cannot abort a resume. *)
exception Bad of string

type cursor = { s : string; mutable at : int; stop : int }

let need c n what =
  if c.at + n > c.stop then
    raise (Bad (Printf.sprintf "record ends inside %s" what))

let u16 c what =
  need c 2 what;
  c.at <- c.at + 2;
  String.get_uint16_be c.s (c.at - 2)

let field c what =
  let n = u16 c what in
  need c n what;
  c.at <- c.at + n;
  String.sub c.s (c.at - n) n

(* Summaries are noise-free wall seconds and timeouts simulated ones,
   always finite; a non-finite value is bit rot and would poison every
   Stats reduction. *)
let finite c what =
  need c 8 what;
  c.at <- c.at + 8;
  let f = Int64.float_of_bits (String.get_int64_be c.s (c.at - 8)) in
  if not (Float.is_finite f) then
    raise (Bad (Printf.sprintf "non-finite %s" what));
  f

let summary c =
  let key = field c "key" in
  let sum_total_s = finite c "total" in
  let sum_nonloop_s = finite c "nonloop" in
  let loops = u16 c "loop count" in
  let sum_loops =
    List.init loops (fun _ ->
        let name = field c "loop name" in
        (name, finite c "loop seconds"))
  in
  Summary (key, { Exec.sum_total_s; sum_nonloop_s; sum_loops })

let quarantined c =
  let key = field c "key" in
  let reason : Quarantine.reason =
    need c 1 "reason";
    c.at <- c.at + 1;
    match c.s.[c.at - 1] with
    | 'B' -> Build_failed (field c "module name")
    | 'C' -> Crashed (field c "crash diagnostic")
    | 'W' -> Wrong_answer
    | 'T' -> Timed_out (finite c "timeout")
    | r -> raise (Bad (Printf.sprintf "unknown quarantine reason %C" r))
  in
  Quarantined (key, reason)

let parse body contents ~pos ~stop =
  let c = { s = contents; at = pos; stop } in
  match body c with
  | record when c.at = stop -> Ok record
  | _ ->
      Error
        (Printf.sprintf "%d trailing bytes after a valid record" (stop - c.at))
  | exception Bad reason -> Error reason

(* A v3 frame is trusted only when its checksum matches, all 64 bits. *)
let frame_v3 contents ~ofs ~len =
  let payload = ofs + Framing.header_bytes in
  let stop = payload + len - checksum_bytes in
  if
    not
      (Int64.equal
         (String.get_int64_be contents stop)
         (Ft_util.Rng.hash64_sub contents ~pos:ofs ~len:(stop - ofs)))
  then Error "checksum mismatch"
  else
    let pos = payload + tag_bytes in
    match contents.[payload] with
    | 'S' -> parse summary contents ~pos ~stop
    | 'Q' -> parse quarantined contents ~pos ~stop
    | tag -> Error (Printf.sprintf "unknown record tag %C" tag)

let frame_v2 contents ~ofs ~len =
  let pos = ofs + Framing.header_bytes in
  parse summary contents ~pos ~stop:(pos + len)

let scan ~frame ~min_len ~warn ~pos contents =
  let total = String.length contents in
  let entries = ref [] and quarantined = ref [] and skipped = ref 0 in
  (* The committed offset, and whether bytes past it remain. *)
  let rec go ofs record =
    if total - ofs < Framing.header_bytes then begin
      if total > ofs then
        warn ~line:record ~reason:"torn final record (short frame header)";
      (ofs, total > ofs)
    end
    else
      let len = Int64.to_int (String.get_int64_be contents ofs) in
      if len < min_len || len > max_record_bytes then begin
        (* An implausible length prefix desynchronizes everything after
           it; stop here and let the next locked sync truncate + compact. *)
        warn ~line:record
          ~reason:(Printf.sprintf "garbled frame length %d" len);
        (ofs, true)
      end
      else if total - ofs - Framing.header_bytes < len then begin
        warn ~line:record ~reason:"torn final record (short payload)";
        (ofs, true)
      end
      else begin
        (match frame contents ~ofs ~len with
        | Ok (Summary e) -> entries := e :: !entries
        | Ok (Quarantined q) -> quarantined := q :: !quarantined
        | Error reason ->
            warn ~line:record ~reason;
            incr skipped);
        go (ofs + Framing.header_bytes + len) (record + 1)
      end
  in
  let committed, torn = go pos 1 in
  {
    entries = List.rev !entries;
    quarantined = List.rev !quarantined;
    committed;
    torn;
    skipped = !skipped;
  }

let decode ?(warn = fun ~line:_ ~reason:_ -> ()) ~pos contents =
  scan ~frame:frame_v3 ~min_len:(tag_bytes + checksum_bytes) ~warn ~pos
    contents

let decode_v2 ~warn ~pos contents =
  scan ~frame:frame_v2 ~min_len:0 ~warn ~pos contents
