(** Search outcomes, shared by all algorithms.

    An outcome records the winning configuration (a whole-program CV or a
    per-module assignment), its measured runtime, the speedup over T_O3,
    and the best-so-far trace — the paper's §4.3 remark that "CFR finds the
    best code variant in tens or several hundreds of evaluations" is
    checked against that trace in the ablation experiments. *)

type configuration =
  | Whole_program of Ft_flags.Cv.t
      (** traditional model: one CV for every source file *)
  | Per_module of (string * Ft_flags.Cv.t) list
      (** per-module assignment: module name → CV (the residual module
          under {!Ft_outline.Outline.residual_module}) *)

type t = {
  algorithm : string;  (** e.g. ["Random"], ["CFR"] *)
  configuration : configuration;
  best_seconds : float;  (** measured runtime of the winning variant *)
  speedup : float;  (** T_O3 / best_seconds *)
  evaluations : int;  (** timed program runs consumed by the search *)
  trace : float list;
      (** best-so-far seconds after each evaluation, oldest first; length =
          [evaluations] for iterative searches, shorter for one-shot
          constructions *)
}

val make :
  algorithm:string ->
  configuration:configuration ->
  baseline_s:float ->
  evaluations:int ->
  trace:float list ->
  best_seconds:float ->
  t

val render : t -> string
(** The canonical human-readable rendering (headline line plus winning
    configuration), newline-terminated.  [funcy tune] prints exactly
    this, and the tuning server returns exactly this to clients, so a
    served result is byte-identical to a solo run's output. *)

val render_exact : t -> string
(** A one-line, bit-exact rendering for differential checks: label,
    best seconds, speedup, evaluations, the configuration as compact CVs
    and the trace, with every float in [%h].  Two renderings are equal
    exactly when the results are bit-identical. *)

val best_so_far : float list -> float list
(** Prefix-minimum of a measurement series — helper for traces. *)

val evaluations_to_best : t -> int
(** Index (1-based) of the first evaluation whose best-so-far time is
    within 0.5 % of the final best — the paper's convergence metric. *)
