(* Tests for ft_machine: architecture models, quirks, and the execution
   model's physical sanity (monotonicities, couplings). *)

open Ft_prog
module Arch = Ft_machine.Arch
module Exec = Ft_machine.Exec
module Quirk = Ft_machine.Quirk
module Toolchain = Ft_machine.Toolchain
module Cv = Ft_flags.Cv
module Flag = Ft_flags.Flag

let bdw = Arch.of_platform Platform.Broadwell
let snb = Arch.of_platform Platform.Sandy_bridge
let opteron = Arch.of_platform Platform.Opteron
let toolchain = Toolchain.make Platform.Broadwell
let program = Ft_suite.Cloverleaf.program
let input = Input.make ~size:2000.0 ~steps:30 ()

let o3_run ?(arch = bdw) ?(platform = Platform.Broadwell) ?(cv = Cv.o3) () =
  let tc = Toolchain.make platform in
  Exec.evaluate ~arch ~input (Toolchain.compile_uniform tc ~cv program)

(* --- Arch -------------------------------------------------------------- *)

let test_arch_table2 () =
  Alcotest.(check int) "16 threads everywhere" 16 bdw.Arch.omp_threads;
  Alcotest.(check int) "snb threads" 16 snb.Arch.omp_threads;
  Alcotest.(check int) "opteron numa" 4 opteron.Arch.numa_nodes;
  Alcotest.(check int) "opteron cores" 8 (Arch.physical_cores opteron);
  Alcotest.(check int) "bdw cores" 16 (Arch.physical_cores bdw);
  Alcotest.(check (float 1e-9)) "bdw frequency" 2.1 bdw.Arch.freq_ghz;
  Alcotest.(check bool) "only Intel throttles AVX" true
    (opteron.Arch.avx256_throttle = 0.0 && bdw.Arch.avx256_throttle > 0.0)

let test_effective_cores () =
  Alcotest.(check (float 1e-9)) "bdw: one thread per core" 16.0
    (Arch.effective_cores bdw);
  Alcotest.(check bool) "opteron SMT helps but less than 2x" true
    (Arch.effective_cores opteron > 8.0 && Arch.effective_cores opteron < 16.0)

let test_aggregate_bandwidth () =
  Alcotest.(check bool) "bdw has more bandwidth than opteron" true
    (Arch.aggregate_dram_gbs bdw > Arch.aggregate_dram_gbs opteron)

(* --- Quirk ------------------------------------------------------------- *)

let test_quirk_deterministic () =
  let rng = Ft_util.Rng.create 41 in
  let cv = Ft_flags.Space.sample rng in
  let f () =
    Quirk.factor ~platform:Platform.Broadwell ~program:"p" ~region:"r" cv
  in
  Alcotest.(check (float 1e-12)) "memoized and stable" (f ()) (f ())

let test_quirk_bounds () =
  let rng = Ft_util.Rng.create 42 in
  for _ = 1 to 100 do
    let cv = Ft_flags.Space.sample rng in
    let q =
      Quirk.factor ~platform:Platform.Broadwell ~program:"p" ~region:"r" cv
    in
    Alcotest.(check bool) "within a few percent of 1" true
      (q > 0.9 && q < 1.1)
  done

let test_quirk_varies_by_region () =
  let cv = Cv.o3 in
  let a = Quirk.factor ~platform:Platform.Broadwell ~program:"p" ~region:"r1" cv in
  let b = Quirk.factor ~platform:Platform.Broadwell ~program:"p" ~region:"r2" cv in
  Alcotest.(check bool) "regions have their own texture" true (a <> b)

let test_flag_factor_bounds () =
  Array.iter
    (fun flag ->
      for v = 0 to Flag.arity flag - 1 do
        let q =
          Quirk.flag_factor ~platform:Platform.Opteron ~program:"p"
            ~region:"r" flag v
        in
        Alcotest.(check bool) "per-flag amplitude" true
          (q >= 0.985 && q <= 1.015)
      done)
    Flag.all

(* The definition the shared quirk tables must reproduce bit for bit: the
   product of the per-flag multipliers, in [Flag.all] order, from 1.0. *)
let reference_factor ~platform ~program ~region cv =
  Array.fold_left
    (fun acc flag ->
      acc *. Quirk.flag_factor ~platform ~program ~region flag (Cv.get cv flag))
    1.0 Flag.all

(* The bits of every (platform, region, CV) price on a grid, under a
   pricing function. *)
let price_bits price ~program regions cvs =
  List.concat_map
    (fun platform ->
      List.concat_map
        (fun region ->
          Array.to_list
            (Array.map
               (fun cv ->
                 Int64.bits_of_float (price ~platform ~program ~region cv))
               cvs))
        regions)
    Platform.all

(* [Quirk.region_factor] as a pricing function by region name, for the
   regions of [p]; [~program] is [p]'s name. *)
let by_position (p : Program.t) ~platform ~program:_ ~region cv =
  let rec index i = function
    | [] -> invalid_arg ("by_position: no region " ^ region)
    | (l : Loop.t) :: rest ->
        if String.equal l.Loop.name region then i else index (i + 1) rest
  in
  Quirk.region_factor
    (Quirk.regions ~platform p)
    (index 0 (p.Program.nonloop :: p.Program.loops))
    cv

(* Two domains start together on [price], so they race on every table
   and entry no one has built before. *)
let race_bits price ~program regions cvs =
  let ready = Atomic.make 0 in
  let race () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    price_bits price ~program regions cvs
  in
  let other = Domain.spawn race in
  let here = race () in
  (here, Domain.join other)

let test_quirk_is_in_order_product () =
  let rng = Ft_util.Rng.create 43 in
  let cvs =
    Array.append [| Cv.o3; Cv.o2 |]
      (Array.init 30 (fun _ -> Ft_flags.Space.sample rng))
  in
  let regions =
    List.map
      (fun (l : Loop.t) -> l.Loop.name)
      (program.Program.nonloop :: program.Program.loops)
  in
  let suite = program in
  let program = suite.Program.name in
  let reference = price_bits reference_factor ~program regions cvs in
  Alcotest.(check (list int64))
    "suite regions: bit-identical to the in-order product" reference
    (price_bits Quirk.factor ~program regions cvs);
  Alcotest.(check (list int64))
    "suite regions by position: bit-identical to the in-order product"
    reference
    (price_bits (by_position suite) ~program regions cvs);
  (* Regions no one has priced before: both domains race to build (and
     read) the same tables. *)
  let program = "quirk-race" in
  let fresh = List.init 24 (fun i -> Printf.sprintf "unseen-%d" i) in
  let here, there = race_bits Quirk.factor ~program fresh cvs in
  let reference = price_bits reference_factor ~program fresh cvs in
  Alcotest.(check (list int64)) "concurrent first use: this domain"
    reference here;
  Alcotest.(check (list int64)) "concurrent first use: the other domain"
    reference there;
  (* A program no one has priced before, by position: both domains race
     to build its region tables and to add its entry. *)
  let fresh =
    Program.make ~name:"quirk-race-regions" ~language:Program.C ~loc:1
      ~domain:"d" ~reference_size:1.0
      ~nonloop:(Loop.make "<nl>" Feature.default)
      (List.init 23 (fun i ->
           Loop.make (Printf.sprintf "unseen-%d" i) Feature.default))
  in
  let program = fresh.Program.name in
  let names =
    List.map
      (fun (l : Loop.t) -> l.Loop.name)
      (fresh.Program.nonloop :: fresh.Program.loops)
  in
  let here, there = race_bits (by_position fresh) ~program names cvs in
  let reference = price_bits reference_factor ~program names cvs in
  Alcotest.(check (list int64))
    "concurrent first use by position: this domain" reference here;
  Alcotest.(check (list int64))
    "concurrent first use by position: the other domain" reference there

(* --- Exec: determinism and structure ------------------------------------ *)

let test_evaluate_deterministic () =
  let r1 = o3_run () and r2 = o3_run () in
  Alcotest.(check (float 1e-12)) "noise-free evaluate is pure"
    r1.Exec.total_s r2.Exec.total_s

let test_total_is_sum_of_regions () =
  let r = o3_run () in
  let sum =
    List.fold_left (fun acc (x : Exec.region_report) -> acc +. x.Exec.seconds)
      r.Exec.nonloop.Exec.seconds r.Exec.loops
  in
  Alcotest.(check (float 1e-6)) "additive regions" r.Exec.total_s sum

let test_region_names_cover_program () =
  let r = o3_run () in
  Alcotest.(check int) "one report per loop" (Program.loop_count program)
    (List.length r.Exec.loops)

(* --- Exec: monotonicities ------------------------------------------------ *)

let test_more_steps_longer () =
  let at steps =
    (Exec.evaluate ~arch:bdw ~input:(Input.make ~size:2000.0 ~steps ())
       (Toolchain.compile_uniform toolchain ~cv:Cv.o3 program))
      .Exec.total_s
  in
  Alcotest.(check bool) "60 steps > 30 steps" true (at 60 > at 30);
  Alcotest.(check (float 0.2)) "roughly linear in steps" 2.0
    (at 60 /. at 30)

let test_bigger_input_longer () =
  let at size =
    (Exec.evaluate ~arch:bdw ~input:(Input.make ~size ~steps:30 ())
       (Toolchain.compile_uniform toolchain ~cv:Cv.o3 program))
      .Exec.total_s
  in
  Alcotest.(check bool) "4000 > 2000 cells" true (at 4000.0 > at 2000.0)

let test_platforms_ranked () =
  (* Same program and input: the Opteron (8 slower cores, less bandwidth)
     must be slower than Broadwell. *)
  let bdw_t = (o3_run ()).Exec.total_s in
  let opt_t =
    (o3_run ~arch:opteron ~platform:Platform.Opteron ()).Exec.total_s
  in
  Alcotest.(check bool) "opteron slower" true (opt_t > bdw_t)

let test_o1_slower_than_o3 () =
  let o3_t = (o3_run ()).Exec.total_s in
  let o1 = Cv.set Cv.o3 Flag.Base_opt 0 in
  let o1_t = (o3_run ~cv:o1 ()).Exec.total_s in
  Alcotest.(check bool) "O1 noticeably slower" true (o1_t > o3_t *. 1.05)

(* --- Exec: couplings ------------------------------------------------------ *)

let test_avx_throttle_engages () =
  let forced =
    Cv.o3
    |> (fun cv -> Cv.set cv Flag.Simd_width 2)
    |> fun cv -> Cv.set cv Flag.Dep_analysis 2
  in
  let r = o3_run ~cv:forced () in
  Alcotest.(check bool) "256-bit code derates frequency" true
    (r.Exec.freq_factor < 1.0);
  let novec = Cv.set Cv.o3 Flag.Vec 0 in
  let r' = o3_run ~cv:novec () in
  Alcotest.(check (float 1e-9)) "scalar binaries run at nominal clock" 1.0
    r'.Exec.freq_factor

let test_no_throttle_on_opteron () =
  let forced = Cv.set Cv.o3 Flag.Simd_width 2 in
  let r = o3_run ~arch:opteron ~platform:Platform.Opteron ~cv:forced () in
  Alcotest.(check (float 1e-9)) "no AVX license on Opteron" 1.0
    r.Exec.freq_factor

let test_icache_pressure () =
  (* Maximal unrolling everywhere blows the code footprint up. *)
  let fat = Cv.set (Cv.set Cv.o3 Flag.Unroll 5) Flag.Unroll_aggressive 1 in
  let r = o3_run ~cv:fat () in
  Alcotest.(check bool) "i-cache multiplier engages" true
    (r.Exec.icache_mult > 1.0);
  Alcotest.(check bool) "baseline fits" true
    ((o3_run ()).Exec.icache_mult < r.Exec.icache_mult)

(* --- Exec: measurement ----------------------------------------------------- *)

let test_measure_noise_small_and_seeded () =
  let binary = Toolchain.compile_uniform toolchain ~cv:Cv.o3 program in
  let truth = (o3_run ()).Exec.total_s in
  let m1 =
    Exec.measure ~arch:bdw ~input ~rng:(Ft_util.Rng.create 1) binary
  in
  let m2 =
    Exec.measure ~arch:bdw ~input ~rng:(Ft_util.Rng.create 1) binary
  in
  let m3 =
    Exec.measure ~arch:bdw ~input ~rng:(Ft_util.Rng.create 2) binary
  in
  Alcotest.(check (float 1e-12)) "same seed, same sample" m1.Exec.elapsed_s
    m2.Exec.elapsed_s;
  Alcotest.(check bool) "different seed differs" true
    (m1.Exec.elapsed_s <> m3.Exec.elapsed_s);
  Alcotest.(check bool) "noise within ±5%" true
    (Float.abs (m1.Exec.elapsed_s -. truth) /. truth < 0.05)

let test_instrumented_overhead_small () =
  let plain = Toolchain.compile_uniform toolchain ~cv:Cv.o3 program in
  let instrumented =
    Toolchain.compile_uniform toolchain ~cv:Cv.o3 ~instrumented:true program
  in
  let t0 = (Exec.evaluate ~arch:bdw ~input plain).Exec.total_s in
  let t1 = (Exec.evaluate ~arch:bdw ~input instrumented).Exec.total_s in
  let overhead = (t1 -. t0) /. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "Caliper overhead %.1f%% is under 3%%" (100.0 *. overhead))
    true
    (overhead > 0.0 && overhead < 0.03)

let test_samples_only_when_instrumented () =
  let rng = Ft_util.Rng.create 3 in
  let plain = Toolchain.compile_uniform toolchain ~cv:Cv.o3 program in
  let inst =
    Toolchain.compile_uniform toolchain ~cv:Cv.o3 ~instrumented:true program
  in
  Alcotest.(check int) "no samples from plain binaries" 0
    (List.length (Exec.measure ~arch:bdw ~input ~rng plain).Exec.region_samples);
  Alcotest.(check int) "one sample per loop"
    (Program.loop_count program)
    (List.length (Exec.measure ~arch:bdw ~input ~rng inst).Exec.region_samples)

(* --- Explain ----------------------------------------------------------- *)

let test_explain_classification () =
  let run = o3_run () in
  let entries = Ft_machine.Explain.of_run run in
  Alcotest.(check int) "one entry per region"
    (Program.loop_count program + 1)
    (List.length entries);
  (* Entries are sorted hottest first. *)
  let seconds = List.map (fun e -> e.Ft_machine.Explain.seconds) entries in
  Alcotest.(check (list (float 1e-9))) "sorted descending"
    (List.sort (fun a b -> compare b a) seconds)
    seconds;
  (* Shares sum to 1. *)
  let total =
    List.fold_left (fun acc e -> acc +. e.Ft_machine.Explain.share) 0.0 entries
  in
  Alcotest.(check (float 1e-6)) "shares sum to 1" 1.0 total

let test_explain_boundedness_names () =
  Alcotest.(check string) "compute" "compute-bound"
    (Ft_machine.Explain.boundedness_name Ft_machine.Explain.Compute_bound);
  Alcotest.(check string) "memory" "memory-bound"
    (Ft_machine.Explain.boundedness_name Ft_machine.Explain.Memory_bound);
  Alcotest.(check string) "balanced" "balanced"
    (Ft_machine.Explain.boundedness_name Ft_machine.Explain.Balanced)

let test_explain_render () =
  let text = Ft_machine.Explain.render (o3_run ()) in
  Alcotest.(check bool) "mentions dt" true (Test_helpers.contains text "dt");
  Alcotest.(check bool) "mentions derating" true
    (Test_helpers.contains text "derating")

let prop_measure_positive =
  QCheck.Test.make ~count:30 ~name:"measured times are positive"
    QCheck.small_int (fun seed ->
      let rng = Ft_util.Rng.create seed in
      let cv = Ft_flags.Space.sample rng in
      let binary = Toolchain.compile_uniform toolchain ~cv program in
      (Exec.measure ~arch:bdw ~input ~rng binary).Exec.elapsed_s > 0.0)

(* --- summary bits ------------------------------------------------------ *)

(* Compilation, the link-time perturbation, the quirk tables and the
   evaluation are pure, so one digest over the exact bits of many
   summaries witnesses all of them at once.  It covers every (program,
   platform) pair of the suite, 20 random per-module assignments each
   (mixed CVs, so the link-time optimizer perturbs most of them; every
   fourth instrumented).  The pinned digest was taken from an earlier
   implementation that looked each region's CV and quirk table up by
   name, so it checks the position-indexed path independently. *)
let test_summary_bits_pinned () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun platform ->
      let toolchain = Toolchain.make platform in
      List.iter
        (fun (program : Program.t) ->
          let input = Ft_suite.Suite.tuning_input platform program in
          let outline =
            Ft_outline.Outline.outline ~toolchain ~program ~input
              ~rng:(Ft_util.Rng.create 11) ()
          in
          let modules = Ft_outline.Outline.module_names outline in
          let rng =
            Ft_util.Rng.create
              (Ft_util.Rng.hash_strings
                 [ program.Program.name; ":"; Platform.short_name platform ])
          in
          let pool = Ft_flags.Space.sample_pool rng 12 in
          for i = 0 to 19 do
            let assignment =
              List.map (fun m -> (m, Ft_util.Rng.choose rng pool)) modules
            in
            let binary =
              Ft_outline.Outline.compile ~toolchain outline
                ~assignment:(fun m -> List.assoc m assignment)
                ~instrumented:(i mod 4 = 0) ()
            in
            let s =
              Exec.summarize
                (Exec.evaluate ~arch:toolchain.Toolchain.arch ~input binary)
            in
            Printf.bprintf buf "%s %s %d %h %h" program.Program.name
              (Platform.short_name platform) i s.Exec.sum_total_s
              s.Exec.sum_nonloop_s;
            List.iter
              (fun (name, t) -> Printf.bprintf buf " %s=%h" name t)
              s.Exec.sum_loops;
            Buffer.add_char buf '\n'
          done)
        Ft_suite.Suite.all)
    Platform.all;
  Alcotest.(check string) "digest of 420 summaries" "687c94fb6fccc1896c6b5c2c38eb928f"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  ( "machine",
    [
      Alcotest.test_case "table 2 parameters" `Quick test_arch_table2;
      Alcotest.test_case "effective cores" `Quick test_effective_cores;
      Alcotest.test_case "bandwidth ordering" `Quick test_aggregate_bandwidth;
      Alcotest.test_case "quirk deterministic" `Quick test_quirk_deterministic;
      Alcotest.test_case "quirk bounds" `Quick test_quirk_bounds;
      Alcotest.test_case "quirk per-region" `Quick test_quirk_varies_by_region;
      Alcotest.test_case "flag factor bounds" `Quick test_flag_factor_bounds;
      Alcotest.test_case "quirk = in-order flag product" `Quick
        test_quirk_is_in_order_product;
      Alcotest.test_case "evaluate pure" `Quick test_evaluate_deterministic;
      Alcotest.test_case "regions additive" `Quick test_total_is_sum_of_regions;
      Alcotest.test_case "region coverage" `Quick
        test_region_names_cover_program;
      Alcotest.test_case "steps monotone" `Quick test_more_steps_longer;
      Alcotest.test_case "size monotone" `Quick test_bigger_input_longer;
      Alcotest.test_case "platform ranking" `Quick test_platforms_ranked;
      Alcotest.test_case "O1 slower" `Quick test_o1_slower_than_o3;
      Alcotest.test_case "avx throttle" `Quick test_avx_throttle_engages;
      Alcotest.test_case "no throttle on opteron" `Quick
        test_no_throttle_on_opteron;
      Alcotest.test_case "icache pressure" `Quick test_icache_pressure;
      Alcotest.test_case "measurement noise" `Quick
        test_measure_noise_small_and_seeded;
      Alcotest.test_case "instrumentation overhead" `Quick
        test_instrumented_overhead_small;
      Alcotest.test_case "samples gated" `Quick
        test_samples_only_when_instrumented;
      Alcotest.test_case "explain classification" `Quick
        test_explain_classification;
      Alcotest.test_case "explain names" `Quick test_explain_boundedness_names;
      Alcotest.test_case "explain render" `Quick test_explain_render;
      QCheck_alcotest.to_alcotest prop_measure_positive;
      Alcotest.test_case "summary bits pinned" `Quick test_summary_bits_pinned;
    ] )
