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
    however many CVs are, and {!regions} gathers a program's tables in
    region order, so pricing a whole binary looks its program up once. *)

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

type regions
(** One program's tables on one platform, by region position: 0 for the
    non-loop region, [i + 1] for loop [i] — the order of a
    {!Ft_compiler.Linker.binary}'s regions. *)

val regions : platform:Ft_prog.Platform.t -> Ft_prog.Program.t -> regions
(** Resolved once per (platform, program) per process and shared by all
    domains, and published as the per-region tables it indexes are: added
    under the same lock on the pair's first use, read without locking.  A
    later call walks the short list of pairs priced so far.  Safe to call
    from any domain. *)

val region_factor : regions -> int -> Ft_flags.Cv.t -> float
(** [region_factor (regions ~platform program) i cv] is {!factor} for
    region [i] of [program], bit for bit.  Allocates only its result. *)

val flag_factor :
  platform:Ft_prog.Platform.t ->
  program:string ->
  region:string ->
  Ft_flags.Flag.id ->
  int ->
  float
(** The multiplier contributed by one flag value alone (exposed for tests:
    determinism and bounds). *)
