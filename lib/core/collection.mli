(** FuncyTuner's per-loop runtime collection framework (§2.2.2, Fig. 4).

    The outlined program is compiled K times, each time with {e one} pool
    CV applied to {e every} module (uniform builds — the linker never
    perturbs these), instrumented with Caliper, and executed.  The result
    is the matrix T[j][k]: the runtime of module j under pool CV k, where
    module 0 is the residual module whose time is derived by subtracting
    the hot loops' aggregate from the end-to-end time (§3.3).

    This matrix is the shared substrate of greedy combination (§2.2.3) and
    Caliper-guided random search (§2.2.4). *)

type t = {
  outline : Ft_outline.Outline.t;
  pool : Ft_flags.Cv.t array;  (** the pool the columns index into *)
  modules : string array;  (** row names: residual module first, then the
                               hot loops in outline order *)
  times : float array array;  (** [times.(j).(k)] = T[j][k] in seconds *)
  totals : float array;  (** end-to-end time of uniform build k *)
  valid : bool array;
      (** [valid.(k)] is false when pool CV k faulted during collection
          (failed build, crash, miscompile or timeout); its column is
          [infinity] everywhere so selection helpers ignore it *)
}

val collect : Context.t -> Ft_outline.Outline.t -> t
(** K instrumented runs (one per pool CV).  Under an armed fault model,
    faulted columns are marked invalid instead of aborting the
    collection. *)

val module_index : t -> string -> int option
(** Row of a module name. *)

val best_cv_for : t -> string -> Ft_flags.Cv.t
(** The pool CV minimizing a module's collected time — greedy's per-module
    pick.  @raise Invalid_argument for unknown modules. *)

val top_k_for : t -> string -> int -> Ft_flags.Cv.t array
(** The X pool CVs with the smallest collected times for a module, best
    first — CFR's pruned per-loop space (Algorithm 1, line 11). *)
