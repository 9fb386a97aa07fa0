(** Ablations of FuncyTuner's design choices (beyond the paper's figures,
    but directly implied by its §2.2.4 and §4.3/§4.4.1 discussions).

    - {b Top-X sweep}: within the unified framing, G is CFR with X = 1 and
      FR is CFR with X = K.  Sweeping X maps out the focus/diversity
      trade-off the paper argues for (1 < X << 1000).
    - {b Convergence}: the paper notes CFR finds its best variant in tens
      to hundreds of evaluations — the best-so-far traces quantify that.
    - {b Critical flags} (§4.4.1): iterative greedy elimination of flags
      from a winning CV, reverting every flag whose removal does not
      degrade performance, leaving the performance-critical ones. *)

val top_x_sweep : ?values:int list -> Lab.t -> Series.t
(** CFR on Cloverleaf/Broadwell with X ∈ {1, 5, 10, 20, 50, 200, 1000}
    by default (X = 1 ≈ measured greedy; X = K ≈ FR). *)

val convergence : Lab.t -> Ft_util.Table.t
(** Evaluations-to-best for Random / FR / CFR on every benchmark
    (Broadwell). *)

val critical_flags :
  Lab.t -> Ft_prog.Program.t -> (string * string list) list
(** Per top-5-kernel critical flags of the CFR assignment on Cloverleaf
    (kernel name → surviving flag settings, rendered); other programs use
    their hot loops. *)

val critical_flags_table : Lab.t -> Ft_util.Table.t
(** The §4.4.1 analysis for Cloverleaf's top-5 kernels. *)

val adaptive_budget : Lab.t -> Ft_util.Table.t
(** §4.3's overhead-reduction remark, quantified: full CFR vs
    early-stopping CFR ({!Funcytuner.Adaptive}) — achieved speedup and
    evaluations actually spent, per benchmark on Broadwell. *)

val quality_vs_budget : Lab.t -> Ft_util.Table.t
(** The adaptive-allocation claim, measured: successive-halving CFR
    ({!Funcytuner.Adaptive_sh}) at budgets K/16, K/8, K/4 and K/2 (K is
    the lab pool size, exactly full CFR's budget) against the
    full-budget CFR reference, per benchmark on Broadwell.  The K/4
    point is the tier-1 contract — within 2% of CFR — the smaller ones
    show where the curve falls off. *)

val elimination_variants : Lab.t -> Series.t
(** Pan & Eigenmann's three elimination algorithms (BE / IE / CE) on the
    Fig. 1 benchmarks with the ICC personality — how much the "combined"
    refinement matters at per-program granularity. *)
