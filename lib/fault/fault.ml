module Rng = Ft_util.Rng
module Cv = Ft_flags.Cv

type t = {
  seed : int;
  compile_fail_rate : float;
  crash_rate : float;
  wrong_answer_rate : float;
  hang_rate : float;
  outlier_rate : float;
  transient_fraction : float;
}

let make ?(seed = 1) ?(rate = 0.1) () =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Fault.make: rate must be in [0,1]";
  {
    seed;
    compile_fail_rate = 0.25 *. rate;
    crash_rate = 0.25 *. rate;
    wrong_answer_rate = 0.15 *. rate;
    hang_rate = 0.15 *. rate;
    outlier_rate = rate;
    transient_fraction = 0.6;
  }

let describe t =
  Printf.sprintf
    "faults(seed=%d ice=%.3f crash=%.3f wrong=%.3f hang=%.3f outlier=%.3f \
     transient=%.0f%%)"
    t.seed t.compile_fail_rate t.crash_rate t.wrong_answer_rate t.hang_rate
    t.outlier_rate
    (100.0 *. t.transient_fraction)

(* Every decision is drawn from a private stream seeded by a hash of
   (fault seed, kind, structural key) — the Quirk construction — so the
   schedule is a pure function of the model and the key, independent of
   worker count and evaluation order.  The key is a list of pieces, hashed
   as if joined ("fault:<seed>:<kind>:<pieces>"), so no seed string is
   built. *)
let stream t kind key =
  Rng.create
    (Rng.hash_strings
       ("fault:" :: string_of_int t.seed :: ":" :: kind :: ":" :: key))

let draw t kind key = Rng.float (stream t kind key) 1.0

(* --- compile faults --------------------------------------------------- *)

let hostility cv =
  let add acc cond w = if cond then acc +. w else acc in
  let h = 1.0 in
  let h = add h (Cv.unroll_bound cv = Some 16) 0.8 in
  let h = add h (Cv.simd_pref cv = Cv.Width_256) 0.7 in
  let h = add h (Cv.dep_analysis cv = Cv.Level_high) 0.6 in
  let h = add h (Cv.isel cv = Cv.Isel_advanced) 0.5 in
  let h = add h (Cv.inline_factor cv = 400) 0.4 in
  let h = add h (Cv.tile_size cv <> None && Cv.interchange cv) 0.4 in
  h

let ice t ~program ~module_name cv =
  let p = Float.min 0.95 (t.compile_fail_rate *. hostility cv) in
  draw t "ice" [ program; ":"; module_name; ":"; Cv.to_compact cv ] < p

(* --- run faults ------------------------------------------------------- *)

type run_fault =
  | Run_ok
  | Crash of { transient : bool }
  | Wrong_answer
  | Hang of { factor : float; transient : bool }

(* A heavy-tailed (Pareto) factor: u^(-alpha) scaled so the median is a
   couple of orders of magnitude above nominal. *)
let pareto rng ~scale ~alpha =
  let u = Float.max 1e-9 (Rng.float rng 1.0) in
  scale *. (u ** (-.alpha))

let run_fault t ~key ~attempt =
  (* The class and its parameters are per-build (persistent across
     attempts); only whether a *transient* fault still fires depends on
     the attempt number. *)
  let key = [ key ] in
  let u = draw t "run" key in
  let transient () = draw t "transient" key < t.transient_fraction in
  (* Transient faults fire on the first 1 or 2 attempts, then clear. *)
  let severity () = 1 + Rng.int (stream t "severity" key) 2 in
  let fires ~is_transient =
    (not is_transient) || attempt < severity ()
  in
  if u < t.crash_rate then
    let tr = transient () in
    if fires ~is_transient:tr then Crash { transient = tr } else Run_ok
  else if u < t.crash_rate +. t.wrong_answer_rate then Wrong_answer
  else if u < t.crash_rate +. t.wrong_answer_rate +. t.hang_rate then
    let tr = transient () in
    if fires ~is_transient:tr then
      Hang { factor = pareto (stream t "hang" key) ~scale:50.0 ~alpha:1.5;
             transient = tr }
    else Run_ok
  else Run_ok

let corrupt_signature ~key expected =
  let salt = Rng.hash_strings [ "corrupt:"; key ] lor 1 in
  expected lxor salt

(* --- measurement outliers --------------------------------------------- *)

let outlier t ~key ~repeat =
  let k = [ key; ":"; string_of_int repeat ] in
  if draw t "outlier" k < t.outlier_rate then
    Some (pareto (stream t "outlier-mult" k) ~scale:1.5 ~alpha:0.8)
  else None
