(* Tests for ft_flags: the 33-flag space, CVs, and sampling geometry. *)

module Flag = Ft_flags.Flag
module Cv = Ft_flags.Cv
module Space = Ft_flags.Space
module Rng = Ft_util.Rng

let test_flag_count () =
  Alcotest.(check int) "33 flags, as in the paper" 33 Flag.count;
  Alcotest.(check int) "all array matches" 33 (Array.length Flag.all)

let test_flag_index_bijective () =
  let seen = Array.make Flag.count false in
  Array.iter
    (fun id ->
      let i = Flag.index id in
      Alcotest.(check bool) "index in range" true (i >= 0 && i < Flag.count);
      Alcotest.(check bool) "index unique" false seen.(i);
      seen.(i) <- true)
    Flag.all

let test_flag_index_matches_order () =
  Array.iteri
    (fun i id -> Alcotest.(check int) (Flag.name id) i (Flag.index id))
    Flag.all

let test_arity_at_least_two () =
  Array.iter
    (fun id ->
      Alcotest.(check bool) (Flag.name id) true (Flag.arity id >= 2))
    Flag.all

let test_defaults_in_domain () =
  Array.iter
    (fun id ->
      let check name v =
        Alcotest.(check bool)
          (Flag.name id ^ " " ^ name)
          true
          (v >= 0 && v < Flag.arity id)
      in
      check "o3" (Flag.default_o3 id);
      check "o2" (Flag.default_o2 id))
    Flag.all

let test_space_size () =
  let size = Flag.space_size () in
  (* "roughly 2.3e13" in the paper (§2.1). *)
  Alcotest.(check bool)
    (Printf.sprintf "|COS| = %.3g is in the paper's order of magnitude" size)
    true
    (size > 1e12 && size < 1e14)

let test_of_name_roundtrip () =
  Array.iter
    (fun id ->
      Alcotest.(check bool) (Flag.name id) true
        (Flag.of_name (Flag.name id) = Some id))
    Flag.all;
  Alcotest.(check bool) "unknown" true (Flag.of_name "-bogus" = None)

(* --- Cv ---------------------------------------------------------------- *)

let test_o3_values () =
  Alcotest.(check int) "O3 base level" 3 (Cv.base_opt_level Cv.o3);
  Alcotest.(check bool) "O3 vectorizes" true (Cv.vec_enabled Cv.o3);
  Alcotest.(check bool) "O3 width auto" true (Cv.simd_pref Cv.o3 = Cv.Width_auto);
  Alcotest.(check bool) "O3 unroll auto" true (Cv.unroll_bound Cv.o3 = None);
  Alcotest.(check bool) "O3 no ipo" false (Cv.ipo Cv.o3);
  Alcotest.(check int) "O3 inline budget" 100 (Cv.inline_factor Cv.o3);
  Alcotest.(check int) "O3 prefetch level" 2 (Cv.prefetch_level Cv.o3);
  Alcotest.(check bool) "O3 strict aliasing" true (Cv.ansi_alias Cv.o3);
  Alcotest.(check bool) "O3 fma" true (Cv.fma Cv.o3)

let test_o2_weaker () =
  Alcotest.(check int) "O2 base level" 2 (Cv.base_opt_level Cv.o2);
  Alcotest.(check bool) "O2 lower prefetch" true
    (Cv.prefetch_level Cv.o2 <= Cv.prefetch_level Cv.o3)

let test_set_get () =
  let cv = Cv.set Cv.o3 Flag.Unroll 3 in
  Alcotest.(check int) "set applies" 3 (Cv.get cv Flag.Unroll);
  Alcotest.(check int) "original untouched" 0 (Cv.get Cv.o3 Flag.Unroll);
  Alcotest.(check bool) "unroll=4 decodes" true
    (Cv.unroll_bound cv = Some 4);
  Alcotest.check_raises "domain checked"
    (Invalid_argument "Cv: value 99 out of domain for -unroll") (fun () ->
      ignore (Cv.set Cv.o3 Flag.Unroll 99))

let test_render () =
  Alcotest.(check string) "O3 renders minimal" "-O3" (Cv.render Cv.o3);
  let cv = Cv.set Cv.o3 Flag.Streaming_stores 1 in
  Alcotest.(check string) "difference rendered"
    "-O3 -qopt-streaming-stores=always" (Cv.render cv);
  Alcotest.(check bool) "full render covers all flags" true
    (List.length (String.split_on_char ' ' (Cv.render_full Cv.o3))
    = Flag.count)

let test_compact_roundtrip () =
  let rng = Rng.create 17 in
  for _ = 1 to 50 do
    let cv = Space.sample rng in
    let compact = Cv.to_compact cv in
    let digits =
      List.map (fun id -> string_of_int (Cv.get cv id)) (Array.to_list Flag.all)
    in
    Alcotest.(check string) "digits and dots" (String.concat "." digits)
      compact;
    Alcotest.(check int) "fixed width" Cv.compact_length
      (String.length compact);
    match Cv.of_compact compact with
    | Some cv' -> Alcotest.(check bool) "roundtrip" true (Cv.equal cv cv')
    | None -> Alcotest.fail "compact roundtrip failed"
  done;
  let dst = Bytes.make (Cv.compact_length + 4) '#' in
  Cv.blit_compact Cv.o3 dst 2;
  Alcotest.(check string) "blit writes exactly the block"
    ("##" ^ Cv.to_compact Cv.o3 ^ "##") (Bytes.to_string dst);
  Alcotest.check_raises "blit past the end rejected"
    (Invalid_argument "Cv.blit_compact: destination too short") (fun () ->
      Cv.blit_compact Cv.o3 dst 5);
  Alcotest.(check bool) "garbage rejected" true (Cv.of_compact "zzz" = None);
  Alcotest.(check bool) "short rejected" true (Cv.of_compact "1.2.3" = None)

let test_bits_roundtrip () =
  let rng = Rng.create 19 in
  for _ = 1 to 50 do
    let bits = Array.init Flag.count (fun _ -> Rng.bool rng) in
    match Cv.to_bits (Cv.of_bits bits) with
    | Some bits' ->
        Alcotest.(check (array bool)) "bits roundtrip" bits bits'
    | None -> Alcotest.fail "binarized CV not recognized"
  done

let test_bits_rejects_foreign_values () =
  (* A value that is neither the default nor the alternative. *)
  let cv = Cv.set Cv.o3 Flag.Prefetch 1 in
  Alcotest.(check bool) "foreign value rejected" true (Cv.to_bits cv = None)

let test_alternative_differs_from_default () =
  Array.iter
    (fun id ->
      Alcotest.(check bool) (Flag.name id) true
        (Cv.binary_alternative id <> Flag.default_o3 id))
    Flag.all

(* --- Space -------------------------------------------------------------- *)

let test_sample_in_domain () =
  let rng = Rng.create 20 in
  for _ = 1 to 200 do
    let cv = Space.sample rng in
    Array.iter
      (fun id ->
        let v = Cv.get cv id in
        Alcotest.(check bool) "in domain" true (v >= 0 && v < Flag.arity id))
      Flag.all
  done

let test_sample_pool_size () =
  let rng = Rng.create 21 in
  Alcotest.(check int) "pool size" 37 (Array.length (Space.sample_pool rng 37))

let test_sample_deterministic () =
  let p1 = Space.sample_pool (Rng.create 22) 10 in
  let p2 = Space.sample_pool (Rng.create 22) 10 in
  Array.iteri
    (fun i cv -> Alcotest.(check bool) "same pool" true (Cv.equal cv p2.(i)))
    p1

let test_mutate_distance_one () =
  let rng = Rng.create 23 in
  for _ = 1 to 100 do
    let cv = Space.sample rng in
    Alcotest.(check int) "hamming distance 1" 1
      (Space.distance cv (Space.mutate rng cv))
  done

let test_crossover_inherits () =
  let rng = Rng.create 24 in
  let a = Space.sample rng and b = Space.sample rng in
  let child = Space.crossover rng a b in
  Array.iter
    (fun id ->
      let v = Cv.get child id in
      Alcotest.(check bool) "gene from a parent" true
        (v = Cv.get a id || v = Cv.get b id))
    Flag.all

let test_point_roundtrip () =
  let rng = Rng.create 25 in
  for _ = 1 to 100 do
    let cv = Space.sample rng in
    let cv' = Space.of_point (Space.to_point cv) in
    Alcotest.(check bool) "decode(encode) = id" true (Cv.equal cv cv')
  done

let test_of_point_clamps () =
  let wild = Array.make Space.dimensions 17.0 in
  let cv = Space.of_point wild in
  Array.iter
    (fun id ->
      Alcotest.(check int) "clamped to max value" (Flag.arity id - 1)
        (Cv.get cv id))
    Flag.all;
  Alcotest.check_raises "dimension checked"
    (Invalid_argument "Space.of_point: wrong dimension") (fun () ->
      ignore (Space.of_point [| 0.5 |]))

let prop_sample_binary_is_binary =
  QCheck.Test.make ~count:100 ~name:"binary samples stay in binary subspace"
    QCheck.small_int (fun seed ->
      let cv = Space.sample_binary (Rng.create seed) in
      Cv.to_bits cv <> None)

let prop_distance_symmetric =
  QCheck.Test.make ~count:100 ~name:"hamming distance symmetric"
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let a = Space.sample (Rng.create s1)
      and b = Space.sample (Rng.create s2) in
      Space.distance a b = Space.distance b a)

let prop_mutate_n_bounded =
  QCheck.Test.make ~count:100 ~name:"mutate_n moves at most n flags"
    QCheck.(pair small_int (int_range 0 8))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let cv = Space.sample rng in
      Space.distance cv (Space.mutate_n rng n cv) <= n)

let suite =
  ( "flags",
    [
      Alcotest.test_case "33 flags" `Quick test_flag_count;
      Alcotest.test_case "index bijective" `Quick test_flag_index_bijective;
      Alcotest.test_case "index order" `Quick test_flag_index_matches_order;
      Alcotest.test_case "arity >= 2" `Quick test_arity_at_least_two;
      Alcotest.test_case "defaults valid" `Quick test_defaults_in_domain;
      Alcotest.test_case "space size ~2e13" `Quick test_space_size;
      Alcotest.test_case "of_name roundtrip" `Quick test_of_name_roundtrip;
      Alcotest.test_case "O3 semantics" `Quick test_o3_values;
      Alcotest.test_case "O2 semantics" `Quick test_o2_weaker;
      Alcotest.test_case "set/get" `Quick test_set_get;
      Alcotest.test_case "rendering" `Quick test_render;
      Alcotest.test_case "compact roundtrip" `Quick test_compact_roundtrip;
      Alcotest.test_case "bits roundtrip" `Quick test_bits_roundtrip;
      Alcotest.test_case "bits rejects foreign" `Quick
        test_bits_rejects_foreign_values;
      Alcotest.test_case "alternatives differ" `Quick
        test_alternative_differs_from_default;
      Alcotest.test_case "sample in domain" `Quick test_sample_in_domain;
      Alcotest.test_case "pool size" `Quick test_sample_pool_size;
      Alcotest.test_case "sampling deterministic" `Quick
        test_sample_deterministic;
      Alcotest.test_case "mutate distance 1" `Quick test_mutate_distance_one;
      Alcotest.test_case "crossover inherits" `Quick test_crossover_inherits;
      Alcotest.test_case "point roundtrip" `Quick test_point_roundtrip;
      Alcotest.test_case "of_point clamps" `Quick test_of_point_clamps;
      QCheck_alcotest.to_alcotest prop_sample_binary_is_binary;
      QCheck_alcotest.to_alcotest prop_distance_symmetric;
      QCheck_alcotest.to_alcotest prop_mutate_n_bounded;
    ] )
