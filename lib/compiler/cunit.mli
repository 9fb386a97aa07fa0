(** Compilation units: one compiled region (object file).

    FuncyTuner's per-loop model compiles each outlined hot loop — plus the
    aggregate non-loop module — as its own unit with its own CV (§2.1).  The
    traditional model is the special case where every unit shares one CV. *)

type t = {
  region_name : string;
  loop : Ft_prog.Loop.t;
      (** the region with its {e effective} (post-transformation) features *)
  cv : Ft_flags.Cv.t;
  decision : Decision.t;
}

val compile :
  profile:Cprofile.t ->
  target:Target.t ->
  language:Ft_prog.Program.language ->
  ?pgo:Pgo.region_profile option ->
  cv:Ft_flags.Cv.t ->
  Ft_prog.Loop.t ->
  t
(** Compile one region under one CV. *)

val compile_program :
  profile:Cprofile.t ->
  target:Target.t ->
  ?pgo:Pgo.t option ->
  cv_of:(int -> Ft_flags.Cv.t) ->
  Ft_prog.Program.t ->
  t list
(** Compile every region of a program — the non-loop module first, then the
    loops in program order — choosing each unit's CV with [cv_of index],
    where [index] is the region's position in that order (0 for the
    non-loop module, [i + 1] for loop [i]); a constant function is the
    traditional per-program model. *)
