open Ft_prog
module Rng = Ft_util.Rng
module Cv = Ft_flags.Cv

type region = { cunit : Cunit.t; final : Decision.t }

type binary = {
  program : Program.t;
  target : Target.t;
  nonloop : region;
  regions : region list;
  uniform : bool;
  data_padded : bool;
  layout_hot : bool;
  total_code_bytes : int;
  link_luck : float;
  instrumented : bool;
}

(* Keyed on the *object code* (decision records), not the flag spelling:
   two CVs producing identical per-module decisions link identically. *)
let assignment_fingerprint units =
  List.fold_left
    (fun acc (u : Cunit.t) ->
      let h = Decision.hash u.Cunit.decision in
      (acc * 1000003) + h + Rng.hash_string u.Cunit.region_name)
    5381 units

(* Link-time perturbation of one region's decision.  Drawn from a stream
   seeded by the label ["lto:<program>:<region>:<fingerprint>"]: the
   (program, region, whole-assignment fingerprint) triple, deterministic
   per assembled binary, different across assignments.  [lto] is the
   label's hash state after ["lto:<program>:"] and [fingerprint] the
   fingerprint's decimal digits, both formatted once per link. *)
let perturb ~(target : Target.t) ~lto ~fingerprint (u : Cunit.t) =
  let d = u.Cunit.decision in
  let f = u.Cunit.loop.Loop.features in
  let seed =
    Rng.fnv_feed (Rng.fnv_feed (Rng.fnv_feed lto u.Cunit.region_name) ":")
      fingerprint
  in
  let rng = Rng.create (Rng.fnv_finish seed) in
  let x = Rng.float rng 1.0 in
  if x < 0.30 then d
  else if x < 0.48 then
    (* Re-vectorize at full width with whole-program dependence info. *)
    let dep_ok = f.Feature.dep_chain <= 0.0 || f.Feature.reduction in
    if not dep_ok then d
    else
      let width =
        if target.Target.max_simd_bits >= 256 then Decision.W256
        else Decision.W128
      in
      {
        d with
        Decision.width;
        if_converted = d.Decision.if_converted || f.Feature.divergence > 0.0;
        unroll = max d.Decision.unroll 2;
        spills = d.Decision.spills +. 1.5;
        code_bytes = int_of_float (float_of_int d.Decision.code_bytes *. 1.9);
      }
  else if x < 0.63 then
    if d.Decision.width = Decision.Scalar then d
    else
      {
        d with
        Decision.width = Decision.Scalar;
        code_bytes = int_of_float (float_of_int d.Decision.code_bytes *. 0.7);
      }
  else if x < 0.83 then
    {
      d with
      Decision.unroll = min 16 (d.Decision.unroll * 4);
      spills = d.Decision.spills +. 2.0;
      code_bytes = int_of_float (float_of_int d.Decision.code_bytes *. 3.0);
    }
  else
    (* Cross-module register allocation degrades the schedule. *)
    { d with Decision.sched_quality = d.Decision.sched_quality *. 0.85 }

(* Units must arrive in program order (non-loop module first), as
   {!Cunit.compile_program} produces them: one walk checks both the set
   and the order the assignment fingerprint depends on, so [link] takes
   each region's unit by position. *)
let covers_regions (program : Program.t) units =
  let rec in_order loops units =
    match (loops, units) with
    | [], [] -> true
    | (l : Loop.t) :: loops, (u : Cunit.t) :: units ->
        String.equal l.Loop.name u.Cunit.region_name && in_order loops units
    | _ -> false
  in
  in_order (program.Program.nonloop :: program.Program.loops) units

let link ~target ~(program : Program.t) ?(instrumented = false) units =
  if not (covers_regions program units) then
    invalid_arg "Linker.link: units do not match the program's regions";
  let nonloop_unit, loop_units =
    match units with
    | first :: rest -> (first, rest)
    | [] -> assert false (* a program always has its non-loop region *)
  in
  let uniform =
    List.for_all
      (fun (u : Cunit.t) -> Cv.equal u.Cunit.cv nonloop_unit.Cunit.cv)
      loop_units
  in
  let any_ipo = List.exists (fun (u : Cunit.t) -> Cv.ipo u.Cunit.cv) units in
  let perturbed = (not uniform) && any_ipo in
  let fingerprint =
    if perturbed then string_of_int (assignment_fingerprint units) else ""
  in
  let lto =
    Rng.fnv_feed
      (Rng.fnv_feed (Rng.fnv_feed Rng.fnv_init "lto:") program.Program.name)
      ":"
  in
  let finalize (u : Cunit.t) =
    let final =
      if perturbed then perturb ~target ~lto ~fingerprint u
      else u.Cunit.decision
    in
    { cunit = u; final }
  in
  let nonloop = finalize nonloop_unit in
  let loop_regions = List.map finalize loop_units in
  let total_code_bytes =
    List.fold_left
      (fun acc r -> acc + r.final.Decision.code_bytes)
      nonloop.final.Decision.code_bytes loop_regions
  in
  let link_luck =
    if perturbed then
      let rng =
        Rng.create
          (Rng.hash_strings [ "luck:"; program.Program.name; ":"; fingerprint ])
      in
      1.0 +. Float.abs (Rng.gauss rng ~mu:0.0 ~sigma:0.07)
    else 1.0
  in
  {
    program;
    target;
    nonloop;
    regions = loop_regions;
    uniform;
    data_padded = Cv.pad_arrays nonloop_unit.Cunit.cv;
    layout_hot = Cv.code_layout nonloop_unit.Cunit.cv = Cv.Layout_hot;
    total_code_bytes;
    link_luck;
    instrumented;
  }
