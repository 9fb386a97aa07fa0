(* Property suite for the binary cache codec (on-disk format v3).

   Cache_codec is pure string transcoding — no I/O — so the claims the
   crash-safety story rests on can be checked exhaustively:

   - encode/decode round-trips arbitrary caches bit-exactly (keys are
     arbitrary bytes, floats compare by their IEEE-754 bits);
   - decoding a file truncated at *every* byte offset never raises,
     never drops a committed (fully-framed) record, and never invents
     one: the frame boundary is the commit marker;
   - no damaged frame decodes: after any one changed byte, or a
     zero-filled tail, every decoded record is an original one, and the
     damaged frame is counted as torn or skipped: the checksum seals it.

   The file-level protocol on top (locks, delta sync, compaction) is
   exercised in suite_engine and suite_backend; nothing here touches
   disk. *)

module Codec = Ft_engine.Cache_codec
module Exec = Ft_machine.Exec

let header_len = String.length Codec.header

(* -- bit-exact equality ------------------------------------------------- *)

let feq a b = Int64.bits_of_float a = Int64.bits_of_float b

let summary_eq (a : Exec.summary) (b : Exec.summary) =
  feq a.Exec.sum_total_s b.Exec.sum_total_s
  && feq a.Exec.sum_nonloop_s b.Exec.sum_nonloop_s
  && List.length a.Exec.sum_loops = List.length b.Exec.sum_loops
  && List.for_all2
       (fun (n1, s1) (n2, s2) -> String.equal n1 n2 && feq s1 s2)
       a.Exec.sum_loops b.Exec.sum_loops

let bindings_eq xs ys =
  List.length xs = List.length ys
  && List.for_all2
       (fun (k1, s1) (k2, s2) -> String.equal k1 k2 && summary_eq s1 s2)
       xs ys

(* -- generators --------------------------------------------------------- *)

(* Finite floats only: the codec deliberately rejects non-finite values
   as bit rot (covered by a unit test below).  The specials exercise
   signed zero, subnormals and full-exponent values — all of which must
   survive bit-exactly. *)
let finite_float_gen =
  QCheck.Gen.(
    oneof
      [
        float;
        oneofl
          [ 0.0; -0.0; 1e-310; -1e-310; max_float; -.max_float; 1.5e300 ];
      ]
    |> map (fun f -> if Float.is_finite f then f else 0.0))

(* Keys and loop names are arbitrary bytes — newlines, tabs, NULs; the
   binary format must not care (the text format could never hold
   these). *)
let raw_string_gen n = QCheck.Gen.(string_size ~gen:char (0 -- n))

let summary_gen =
  QCheck.Gen.(
    let* sum_total_s = finite_float_gen in
    let* sum_nonloop_s = finite_float_gen in
    let* sum_loops =
      list_size (0 -- 4) (pair (raw_string_gen 12) finite_float_gen)
    in
    return { Exec.sum_total_s; sum_nonloop_s; sum_loops })

let bindings_gen size =
  QCheck.Gen.(list_size (0 -- size) (pair (raw_string_gen 40) summary_gen))

let print_bindings bs =
  String.concat "; "
    (List.map
       (fun (k, s) ->
         Printf.sprintf "%S->(%h,%h,%d loops)" k s.Exec.sum_total_s
           s.Exec.sum_nonloop_s
           (List.length s.Exec.sum_loops))
       bs)

let arbitrary_bindings size =
  QCheck.make ~print:print_bindings (bindings_gen size)

(* Byte offset just past each record's frame, in file order. *)
let frame_ends bindings =
  let ends = ref [] in
  let pos = ref header_len in
  List.iter
    (fun (k, s) ->
      let buf = Buffer.create 64 in
      Codec.encode_record buf k s;
      pos := !pos + Buffer.length buf;
      ends := !pos :: !ends)
    bindings;
  List.rev !ends

(* -- properties --------------------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"encode/decode round-trips bit-exactly"
    (arbitrary_bindings 20) (fun bindings ->
      let file = Codec.encode_file bindings in
      Codec.detect file = `Binary
      &&
      let d = Codec.decode ~pos:header_len file in
      bindings_eq d.Codec.entries bindings
      && d.Codec.committed = String.length file
      && (not d.Codec.torn)
      && d.Codec.skipped = 0)

(* The central crash-safety property: cutting the file at every byte
   offset must decode to exactly the records whose complete frame lies
   within the cut — no exception, no dropped committed record, no
   half-record ever surfaced — with [committed] at the last frame
   boundary and [torn] reporting whether stray tail bytes remain. *)
let prop_truncate_every_byte =
  QCheck.Test.make ~count:40 ~name:"truncation at every byte is safe"
    (arbitrary_bindings 6) (fun bindings ->
      let file = Codec.encode_file bindings in
      let ends = frame_ends bindings in
      let ok = ref true in
      for cut = header_len to String.length file do
        let contents = String.sub file 0 cut in
        let d = Codec.decode ~pos:header_len contents in
        let expected_ends = List.filter (fun e -> e <= cut) ends in
        let expected_committed =
          List.fold_left (fun _ e -> e) header_len expected_ends
        in
        let expected =
          List.filteri (fun i _ -> i < List.length expected_ends) bindings
        in
        if
          not
            (bindings_eq d.Codec.entries expected
            && d.Codec.committed = expected_committed
            && d.Codec.torn = (cut > expected_committed)
            && d.Codec.skipped = 0)
        then ok := false
      done;
      !ok)

(* Cutting inside the magic line is the loader's problem, not the
   decoder's: detect must call every proper prefix a truncated header. *)
let prop_truncated_header_detected =
  QCheck.Test.make ~count:20 ~name:"header prefixes detect as truncated"
    (arbitrary_bindings 3) (fun bindings ->
      let file = Codec.encode_file bindings in
      let ok = ref true in
      for cut = 1 to header_len - 1 do
        if Codec.detect (String.sub file 0 cut) <> `Corrupt "truncated header"
        then ok := false
      done;
      !ok)

(* Decoding from any committed frame boundary yields exactly the records
   appended after it — the property delta sync is built on. *)
let prop_delta_decode =
  QCheck.Test.make ~count:100 ~name:"decode from any frame boundary (delta)"
    QCheck.(pair (arbitrary_bindings 8) small_nat)
    (fun (bindings, skip) ->
      let file = Codec.encode_file bindings in
      let boundaries = header_len :: frame_ends bindings in
      let skip = skip mod List.length boundaries in
      let pos = List.nth boundaries skip in
      let d = Codec.decode ~pos file in
      bindings_eq d.Codec.entries
        (List.filteri (fun i _ -> i >= skip) bindings)
      && d.Codec.committed = String.length file
      && (not d.Codec.torn)
      && d.Codec.skipped = 0)

(* Any bytes after a valid header decode without raising, and committed
   never exceeds the input. *)
let prop_garbage_never_raises =
  QCheck.Test.make ~count:300 ~name:"decode never raises on garbage"
    (QCheck.make QCheck.Gen.(string_size ~gen:char (0 -- 200)))
    (fun junk ->
      let contents = Codec.header ^ junk in
      let d = Codec.decode ~pos:header_len contents in
      d.Codec.committed >= header_len
      && d.Codec.committed <= String.length contents)

(* Flipping any single byte of a valid file past the header must not
   make decode raise (it may tear or skip, never abort). *)
let prop_bitrot_never_raises =
  QCheck.Test.make ~count:100 ~name:"single-byte corruption never raises"
    QCheck.(pair (arbitrary_bindings 5) (pair small_nat small_nat))
    (fun (bindings, (at, delta)) ->
      let file = Bytes.of_string (Codec.encode_file bindings) in
      if Bytes.length file = header_len then true
      else begin
        let at = header_len + (at mod (Bytes.length file - header_len)) in
        Bytes.set file at
          (Char.chr ((Char.code (Bytes.get file at) + 1 + delta) land 0xff));
        let d = Codec.decode ~pos:header_len (Bytes.to_string file) in
        d.Codec.committed <= Bytes.length file
      end)

(* Summaries and quarantine entries, interleaved as a checkpoint writes
   them. *)
type record =
  | S of string * Exec.summary
  | Q of string * Ft_engine.Quarantine.reason

let reason_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun m -> Ft_engine.Quarantine.Build_failed m) (raw_string_gen 12);
        map (fun d -> Ft_engine.Quarantine.Crashed d) (raw_string_gen 30);
        return Ft_engine.Quarantine.Wrong_answer;
        map (fun s -> Ft_engine.Quarantine.Timed_out s) finite_float_gen;
      ])

let record_eq a b =
  match (a, b) with
  | S (k1, s1), S (k2, s2) -> String.equal k1 k2 && summary_eq s1 s2
  | Q (k1, Timed_out t1), Q (k2, Timed_out t2) ->
      String.equal k1 k2 && feq t1 t2
  | Q (k1, r1), Q (k2, r2) -> String.equal k1 k2 && r1 = r2
  | _ -> false

let records_gen =
  QCheck.Gen.(
    list_size (1 -- 6)
      (oneof
         [
           map2 (fun k s -> S (k, s)) (raw_string_gen 20) summary_gen;
           map2 (fun k r -> Q (k, r)) (raw_string_gen 20) reason_gen;
         ]))

let encode_records records =
  let buf = Buffer.create 256 in
  Buffer.add_string buf Codec.header;
  let ends =
    List.map
      (fun r ->
        (match r with
        | S (k, s) -> Codec.encode_record buf k s
        | Q (k, r) -> Codec.encode_quarantined buf k r);
        Buffer.length buf)
      records
  in
  (Buffer.contents buf, ends)

let decoded_records contents =
  let d = Codec.decode ~pos:header_len contents in
  ( d,
    List.map (fun (k, s) -> S (k, s)) d.Codec.entries
    @ List.map (fun (k, r) -> Q (k, r)) d.Codec.quarantined )

(* The v2 frames carried no checksum: a frame whose last 8 bytes were
   zero-filled still decoded, as a loop that took 0.00 s.  Every damage
   below must surface as a torn or skipped frame, and nothing but an
   original record may come out. *)
let prop_no_damaged_frame_decodes =
  QCheck.Test.make ~count:60 ~name:"no corrupted frame decodes"
    QCheck.(
      make
        ~print:(fun (rs, delta) ->
          Printf.sprintf "%d records, delta %d" (List.length rs) delta)
        Gen.(pair records_gen (1 -- 255)))
    (fun (records, delta) ->
      let file, ends = encode_records records in
      let is_summary = function S _ -> true | Q _ -> false in
      (* [decode] returns summaries, then quarantine entries. *)
      let originals =
        List.filter is_summary records
        @ List.filter (fun r -> not (is_summary r)) records
      in
      let intact, decoded = decoded_records file in
      let damage_caught contents =
        contents = file
        ||
        let d, decoded = decoded_records contents in
        (d.Codec.torn || d.Codec.skipped > 0)
        && List.for_all (fun r -> List.exists (record_eq r) records) decoded
      in
      let changed at f =
        let b = Bytes.of_string file in
        Bytes.set b at (Char.chr (f (Char.code file.[at]) land 0xff));
        Bytes.to_string b
      in
      let zero_filled n =
        String.sub file 0 (String.length file - n) ^ String.make n '\000'
      in
      let last_frame_start =
        match List.rev ends with _ :: e :: _ -> e | _ -> header_len
      in
      let ok =
        ref
          ((not intact.Codec.torn)
          && intact.Codec.skipped = 0
          && List.length decoded = List.length originals
          && List.for_all2 record_eq decoded originals)
      in
      (* Each single-bit flip, so a check that ignores any one bit of the
         checksum fails every run, and one random byte change. *)
      for at = header_len to String.length file - 1 do
        for bit = 0 to 7 do
          if not (damage_caught (changed at (fun c -> c lxor (1 lsl bit))))
          then ok := false
        done;
        if not (damage_caught (changed at (fun c -> c + delta))) then
          ok := false
      done;
      for n = 1 to String.length file - last_frame_start do
        if not (damage_caught (zero_filled n)) then ok := false
      done;
      !ok)

(* -- unit tests --------------------------------------------------------- *)

let s1 =
  { Exec.sum_total_s = 1.5; sum_nonloop_s = 0.25; sum_loops = [ ("a", 0.5) ] }

let test_detect () =
  Alcotest.(check bool)
    "binary file" true
    (Codec.detect (Codec.encode_file [ ("k", s1) ]) = `Binary);
  Alcotest.(check bool)
    "v2 binary file" true
    (Codec.detect "ft-engine-cache/2\nrest" = `Binary_v2);
  Alcotest.(check bool)
    "text file" true
    (Codec.detect (Codec.text_magic ^ "\nrest") = `Text);
  Alcotest.(check bool)
    "empty is not an engine cache" true
    (Codec.detect "" = `Corrupt "not an engine cache file");
  Alcotest.(check bool)
    "garbage is not an engine cache" true
    (Codec.detect "definitely not a cache" = `Corrupt "not an engine cache file");
  Alcotest.(check bool)
    "bare text magic (no newline) is truncated" true
    (Codec.detect Codec.text_magic = `Corrupt "truncated header")

let test_malformed_payload_skipped () =
  (* A frame sealing a non-finite float is committed but malformed: it
     must be skipped (with a warning naming the record), while the valid
     record after it is still decoded. *)
  let buf = Buffer.create 64 in
  Buffer.add_string buf Codec.header;
  Codec.encode_record buf "rotten"
    { Exec.sum_total_s = Float.nan; sum_nonloop_s = 0.0; sum_loops = [] };
  Codec.encode_record buf "good" s1;
  let warned = ref [] in
  let d =
    Codec.decode
      ~warn:(fun ~line ~reason -> warned := (line, reason) :: !warned)
      ~pos:header_len (Buffer.contents buf)
  in
  Alcotest.(check int) "one skipped" 1 d.Codec.skipped;
  Alcotest.(check bool) "not torn" false d.Codec.torn;
  Alcotest.(check int) "committed past both" (Buffer.length buf)
    d.Codec.committed;
  Alcotest.(check (list string))
    "good record survives" [ "good" ]
    (List.map fst d.Codec.entries);
  Alcotest.(check bool)
    "warning names record 1" true
    (match !warned with [ (1, reason) ] -> reason <> "" | _ -> false)

let test_garbled_length_stops () =
  (* An implausible length prefix desynchronizes everything after it:
     decode must stop at the last good boundary and report torn. *)
  let buf = Buffer.create 64 in
  Buffer.add_string buf Codec.header;
  Codec.encode_record buf "good" s1;
  let boundary = Buffer.length buf in
  Buffer.add_int64_be buf (Int64.of_int (Codec.max_record_bytes + 1));
  Buffer.add_string buf "whatever follows is unreachable";
  let d = Codec.decode ~pos:header_len (Buffer.contents buf) in
  Alcotest.(check bool) "torn" true d.Codec.torn;
  Alcotest.(check int) "committed at last good frame" boundary
    d.Codec.committed;
  Alcotest.(check (list string))
    "good record kept" [ "good" ]
    (List.map fst d.Codec.entries)

let test_u16_overflow_rejected () =
  let buf = Buffer.create 64 in
  let huge = String.make 70000 'k' in
  Alcotest.check_raises "oversized key rejected"
    (Invalid_argument "Cache_codec: key length (70000) exceeds u16")
    (fun () -> Codec.encode_record buf huge s1)

let suite =
  ( "codec",
    [
      QCheck_alcotest.to_alcotest prop_roundtrip;
      QCheck_alcotest.to_alcotest prop_truncate_every_byte;
      QCheck_alcotest.to_alcotest prop_truncated_header_detected;
      QCheck_alcotest.to_alcotest prop_delta_decode;
      QCheck_alcotest.to_alcotest prop_garbage_never_raises;
      QCheck_alcotest.to_alcotest prop_bitrot_never_raises;
      QCheck_alcotest.to_alcotest prop_no_damaged_frame_decodes;
      Alcotest.test_case "format detection" `Quick test_detect;
      Alcotest.test_case "malformed payload skipped" `Quick
        test_malformed_payload_skipped;
      Alcotest.test_case "garbled length stops the scan" `Quick
        test_garbled_length_stops;
      Alcotest.test_case "u16 overflow rejected" `Quick
        test_u16_overflow_rejected;
    ] )
