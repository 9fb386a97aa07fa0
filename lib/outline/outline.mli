(** Hot-loop outlining: turning loops into compilation modules (§3.3).

    FuncyTuner converts every hot loop (≥ 1 % of O3 end-to-end runtime)
    into its own function in its own source file so it can be compiled with
    its own CV.  Cold loops stay in their original files and are therefore
    compiled with the non-loop module's CV.  An [outlined] value is the
    resulting partition: J hot-loop modules plus one residual module. *)

type t = private {
  program : Ft_prog.Program.t;
  hot : string list;  (** outlined loops, hottest first; J = length *)
  cold : string list;  (** loops left in the residual module *)
  baseline_report : Ft_caliper.Report.t;  (** the profile that decided *)
  region_module : int array;
      (** each program region's module, as an index into {!module_names}:
          the non-loop region first, then the loops in program order —
          the order {!Ft_compiler.Cunit.compile_program} numbers regions
          in.  Resolved once here, so a build looks a region's CV up by
          position instead of by name. *)
}

val residual_module : string
(** Name of the residual (non-loop + cold loops) module in CV
    assignments. *)

val of_report :
  program:Ft_prog.Program.t ->
  ?threshold:float ->
  Ft_caliper.Report.t ->
  t
(** Partition using an existing profile (threshold defaults to 1 %). *)

val outline :
  toolchain:Ft_machine.Toolchain.t ->
  program:Ft_prog.Program.t ->
  input:Ft_prog.Input.t ->
  ?threshold:float ->
  rng:Ft_util.Rng.t ->
  unit ->
  t
(** Profile with Caliper at O3, then partition. *)

val module_names : t -> string list
(** [residual_module :: hot] — one entry per independently compilable
    module; the CV-assignment domain for all per-loop algorithms. *)

val module_count : t -> int
(** J + 1 (the paper's J hot loops plus the residual module). *)

val compile_modules :
  toolchain:Ft_machine.Toolchain.t ->
  t ->
  cvs:Ft_flags.Cv.t array ->
  ?instrumented:bool ->
  unit ->
  Ft_compiler.Linker.binary
(** Compile + link the outlined program with module [j] of
    {!module_names} built under [cvs.(j)]: each region takes its
    module's CV through {!field-region_module}.
    @raise Invalid_argument unless [cvs] has {!module_count} entries. *)

val compile :
  toolchain:Ft_machine.Toolchain.t ->
  t ->
  assignment:(string -> Ft_flags.Cv.t) ->
  ?instrumented:bool ->
  unit ->
  Ft_compiler.Linker.binary
(** {!compile_modules} with [cvs] resolved by name: [assignment] is
    consulted once per entry of {!module_names}, in that order.  Hot loops
    get their own module's CV; cold loops and the non-loop region get the
    residual module's. *)
