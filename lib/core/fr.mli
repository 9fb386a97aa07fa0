(** Per-function random search (§2.2.2, Fig. 3).

    The program is outlined, then 1000 times a CV is drawn {e with
    replacement} from the pre-sampled pool for {e each} module, the
    modules are compiled and linked, and the assembled variant is timed.
    FR exists to test whether per-loop granularity {e alone} — without
    per-loop runtime information — suffices; the paper finds it does not
    (high variance, small gains). *)

val run : Context.t -> Ft_outline.Outline.t -> Result.t
(** K assembled-variant evaluations. *)

val try_measure_assignment :
  Context.t ->
  Ft_outline.Outline.t ->
  rng:Ft_util.Rng.t ->
  (string * Ft_flags.Cv.t) list ->
  Ft_engine.Engine.job_outcome
(** Compile modules under an explicit module→CV assignment, link, run once
    on the session input and return the outcome ([Ok] carries the noisy
    measurement; a faulted build or run is a typed non-[Ok] outcome). *)

val o3_assignment :
  Ft_outline.Outline.t -> (string * Ft_flags.Cv.t) list
(** Every module at O3 — the do-nothing configuration searches fall back
    to when every candidate they tried faulted. *)

val evaluate_assignment :
  Context.t ->
  Ft_outline.Outline.t ->
  (string * Ft_flags.Cv.t) list ->
  float
(** Noise-free runtime of an assembled assignment (winner reporting).
    Served from the session engine's cache when the binary has been
    evaluated before. *)

val search_assignments :
  Context.t ->
  Ft_outline.Outline.t ->
  algorithm:string ->
  label:string ->
  draw:(Ft_util.Rng.t -> (string * Ft_flags.Cv.t) list) ->
  Result.t
(** The sample-K-assignments-measure-batch skeleton shared by FR and CFR:
    draws K assignments sequentially from a [label]-derived stream, then
    measures them as one engine batch (each job on its own noise stream)
    and keeps the earliest best.  Faulted assignments score infinity and
    can never win; if {e all} K fault, the winner degrades to
    {!o3_assignment}.  @raise Invalid_argument on an empty pool. *)
