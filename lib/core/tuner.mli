(** The end-to-end FuncyTuner pipeline.

    A {!session} fixes program, platform, input and seed, performs the
    Caliper profiling + outlining step once, and lazily shares the
    K-run per-loop collection between greedy combination and CFR (exactly
    as in the paper, where Fig. 4's collection feeds both §2.2.3 and
    §2.2.4).  [run_all] produces the five Fig. 5 series for one
    (benchmark, platform) cell. *)

type session = {
  ctx : Context.t;
  outline : Ft_outline.Outline.t;
  collection : Collection.t Lazy.t;
}

val make_session :
  ?pool_size:int ->
  ?engine:Ft_engine.Engine.t ->
  platform:Ft_prog.Platform.t ->
  program:Ft_prog.Program.t ->
  input:Ft_prog.Input.t ->
  seed:int ->
  unit ->
  session
(** Profile at O3, outline hot loops (≥ 1 % of the runtime), prepare the
    CV pool.  The collection happens on first use.  [pool_size] and
    [engine] are {!Context.make}'s: the engine defaults to a fresh
    sequential one, and reports are bit-identical on any engine. *)

type report = {
  random : Result.t;
  fr : Result.t;
  greedy : Greedy.t;
  cfr : Result.t;
}

val run_all : ?top_x:int -> session -> report
(** Run all four §2.2 algorithms (sharing one collection for G and CFR). *)

val run_cfr : ?top_x:int -> session -> Result.t
(** Just the collection + CFR (used by the baseline-comparison figures). *)

val searches : string list
(** The session searches by name, in table order: ["cfr"],
    ["cfr-adaptive"], ["adaptive-sh"], ["fr"], ["random"].  Each one's
    whole output is its {!Result.t}, so [funcy tune], [funcy selfcheck]
    and the tuning service run exactly these, through {!search}. *)

val search :
  ?top_x:int ->
  ?budget:int ->
  ?warm_start:string ->
  string ->
  session ->
  Result.t
(** [search name session] runs the search [name] of {!searches}.  An
    option goes only to the algorithms that take it, and an absent one
    keeps that algorithm's default: [top_x] to cfr, cfr-adaptive (both
    {!Cfr.default_top_x}) and adaptive-sh ({!Adaptive_sh.default_top_x});
    [budget] and [warm_start] (a cache file {!Ft_engine.Cache.load}
    reads, opened only when adaptive-sh runs) to adaptive-sh alone.
    @raise Invalid_argument if [name] is not in {!searches}. *)

val evaluate_configuration :
  session ->
  input:Ft_prog.Input.t ->
  rng:Ft_util.Rng.t ->
  Result.configuration ->
  float
(** Re-build a tuned configuration and time it on a (possibly different)
    input — the §4.3 generalization protocol: tune once on the tuning
    input, then measure the tuned binary on small/large/longer inputs. *)

val build_configuration :
  session -> Result.configuration -> Ft_compiler.Linker.binary
(** Rebuild a tuned configuration's binary (whole-program or per-module)
    without running it — used by the Fig. 9 / Table 3 case study, which
    inspects per-region times and post-link decisions. *)

val o3_seconds : session -> input:Ft_prog.Input.t -> float
(** Noise-free O3 baseline on an arbitrary input (denominator for
    generalization speedups). *)
