(** Deterministic per-loop micro-sensitivities to individual flag values.

    Real flag→performance landscapes are rugged: beyond the first-order
    effects (vectorization, unrolling, …) every loop has small idiosyncratic
    reactions to individual flag settings — code placement luck, uop-cache
    effects, store-buffer interactions.  This module provides that texture
    as a pure function of (platform, program, region, flag, value), so the
    landscape is rugged but perfectly reproducible: the same CV on the same
    loop always performs identically.

    The magnitude is small (each flag value contributes a factor within
    ±0.2 %); first-order model terms dominate, but top-X per-loop pruning
    has realistic fine structure to exploit.

    Each region's multipliers for every (flag, value) pair are computed
    once per process into a table shared by all domains: built under a
    lock on the region's first use, immutable afterwards, read without
    locking.  There is one table per (platform, program, region) priced,
    however many CVs are. *)

val factor :
  platform:Ft_prog.Platform.t ->
  program:string ->
  region:string ->
  Ft_flags.Cv.t ->
  float
(** Product of the per-flag multipliers for this CV on this region, taken
    in {!Ft_flags.Flag.all} order from 1.0 (so bit-identical to folding
    {!flag_factor} over the flags); always within
    [(1 - 0.002)^33, (1 + 0.002)^33] ≈ [0.936, 1.068], and within about
    ±1.5 % of 1.0 in practice (independent ± contributions cancel).  Safe to
    call from any domain; allocates only its result. *)

val flag_factor :
  platform:Ft_prog.Platform.t ->
  program:string ->
  region:string ->
  Ft_flags.Flag.id ->
  int ->
  float
(** The multiplier contributed by one flag value alone (exposed for tests:
    determinism and bounds). *)
