(** A bundled build-and-run environment: compiler personality, compile
    target, and execution architecture for one platform.

    Every experiment in the paper fixes these three together (e.g. "ICC
    17.04 on Broadwell with -xCORE-AVX2"), so the higher layers pass this
    record around instead of three loose values. *)

type t = {
  cprofile : Ft_compiler.Cprofile.t;
  target : Ft_compiler.Target.t;
  arch : Arch.t;
}

val make : ?vendor:Ft_compiler.Cprofile.vendor -> Ft_prog.Platform.t -> t
(** Vendor defaults to [Icc] (the paper's main tool-chain; [Gcc] is used
    only in the Fig. 1 CE experiment). *)

val compile_uniform :
  t ->
  ?pgo:Ft_compiler.Pgo.t option ->
  cv:Ft_flags.Cv.t ->
  ?instrumented:bool ->
  Ft_prog.Program.t ->
  Ft_compiler.Linker.binary
(** Traditional per-program build: one CV for every region, then link. *)

val compile_assigned :
  t ->
  cv_of:(int -> Ft_flags.Cv.t) ->
  ?instrumented:bool ->
  Ft_prog.Program.t ->
  Ft_compiler.Linker.binary
(** Per-module build: each region compiled with [cv_of index], its
    position in program order as {!Ft_compiler.Cunit.compile_program}
    numbers it. *)
