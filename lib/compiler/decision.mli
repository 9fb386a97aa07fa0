(** Per-loop code-generation decisions.

    A decision record is what the simulated compiler actually emits for one
    region: which SIMD width, how far it unrolled, whether it used
    non-temporal stores, how good the instruction schedule is, how many
    values it spilled, and how big the resulting code is.  Table 3 of the
    paper describes exactly this record for five Cloverleaf kernels
    (S/128/256, unroll×N, IS, IO, RS); {!summary} renders the same compact
    notation.  The machine model prices a loop from its decision record and
    its (transformed) feature vector alone. *)

type width = Scalar | W128 | W256

type t = {
  width : width;
  unroll : int;  (** ≥ 1; 1 = not unrolled *)
  if_converted : bool;  (** divergent branches turned into masks/cmov *)
  prefetch : int;  (** effective software-prefetch level, 0–4 *)
  prefetch_far : bool;  (** distance tuned for DRAM-resident streams *)
  streaming : bool;  (** non-temporal stores emitted *)
  inlined : bool;  (** small callees inlined into the loop body *)
  fma_used : bool;  (** FMA contraction emitted (needs target support) *)
  sched_quality : float;
      (** instruction-reordering quality: 1.0 = O3 default schedule,
          > 1 extracts more ILP (the paper's "IO") *)
  isel_quality : float;
      (** instruction-selection quality: 1.0 = default (the paper's "IS") *)
  spills : float;  (** register-spill traffic per iteration ("RS") *)
  redundancy : float;
      (** dynamic-instruction bloat factor ≥ 1.0 when redundancy
          eliminations (GVN/LICM/scalar replacement) are disabled *)
  tiled : bool;  (** loop tiling applied *)
  code_aligned : bool;  (** loop head aligned to fetch boundary *)
  profile_guided : bool;  (** trip counts/branch profile were available *)
  code_bytes : int;  (** i-cache footprint of this region's code *)
}

val lanes : width -> int
(** SIMD lanes for 64-bit elements: 1, 2 or 4. *)

val width_name : width -> string
(** ["S"], ["128"] or ["256"] — Table 3 notation. *)

val summary : t -> string
(** Table 3-style compact rendering, e.g. ["256, unroll2, IS, IO"] or
    ["S, RS"].  Decisions matching the plain O3 schedule render as just the
    width. *)

val equal : t -> t -> bool

val hash : t -> int
(** Stable structural hash of the emitted code (floats quantized to 1e-3).
    Two modules with equal decision records produce identical object code,
    so link-time behaviour is keyed on this rather than on flag
    spellings. *)
