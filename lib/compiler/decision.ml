type width = Scalar | W128 | W256

type t = {
  width : width;
  unroll : int;
  if_converted : bool;
  prefetch : int;
  prefetch_far : bool;
  streaming : bool;
  inlined : bool;
  fma_used : bool;
  sched_quality : float;
  isel_quality : float;
  spills : float;
  redundancy : float;
  tiled : bool;
  code_aligned : bool;
  profile_guided : bool;
  code_bytes : int;
}

let lanes = function Scalar -> 1 | W128 -> 2 | W256 -> 4
let width_name = function Scalar -> "S" | W128 -> "128" | W256 -> "256"

let summary t =
  let extras = ref [] in
  let add s = extras := s :: !extras in
  if t.unroll > 1 then add (Printf.sprintf "unroll%d" t.unroll);
  if t.isel_quality > 1.01 then add "IS";
  if t.sched_quality > 1.01 then add "IO";
  if t.spills > 0.05 then add "RS";
  String.concat ", " (width_name t.width :: List.rev !extras)

let equal = ( = )

let hash t =
  let q f = int_of_float (f *. 1000.0) in
  let b v = if v then 1 else 0 in
  let acc = ref 17 in
  let mix v = acc := (!acc * 1000003) + v in
  mix (lanes t.width);
  mix t.unroll;
  mix (b t.if_converted);
  mix t.prefetch;
  mix (b t.prefetch_far);
  mix (b t.streaming);
  mix (b t.inlined);
  mix (b t.fma_used);
  mix (q t.sched_quality);
  mix (q t.isel_quality);
  mix (q t.spills);
  mix (q t.redundancy);
  mix (b t.tiled);
  mix (b t.code_aligned);
  mix (b t.profile_guided);
  mix t.code_bytes;
  !acc land max_int
