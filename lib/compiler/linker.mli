(** The link step ([xild]-style), including cross-module interference.

    This is the heart of the paper's §4.4 finding: when compilation modules
    built with {e different} CVs are linked and any of them enables IPO, the
    link-time optimizer revisits per-module decisions using whole-program
    information — it may re-vectorize a loop at full width, unroll it
    further, de-vectorize it, or degrade its schedule while allocating
    across module boundaries.  The paper observed exactly this: G.realized's
    mom9 was re-vectorized to 256-bit AVX2 and unrolled twice even though
    its module was compiled for scalar code.

    The perturbation is a {e deterministic} function of the full
    module→CV assignment, so linking the same objects always yields the
    same binary (as with a real linker), and uniform builds — every module
    sharing one CV, as in the per-loop data-collection phase — are never
    perturbed.  Greedy combination is blind to this effect (it extrapolates
    from uniform builds), while CFR measures assembled binaries and
    therefore optimizes through it. *)

type region = {
  cunit : Cunit.t;  (** the object as compiled *)
  final : Decision.t;  (** the decision after link-time optimization *)
}

type binary = {
  program : Ft_prog.Program.t;
  target : Target.t;
  nonloop : region;
  regions : region list;  (** hot-loop regions, in program order *)
  uniform : bool;  (** all modules shared one CV *)
  data_padded : bool;  (** shared arrays padded/aligned (non-loop module) *)
  layout_hot : bool;  (** hot-grouped code layout (non-loop module) *)
  total_code_bytes : int;
  link_luck : float;
      (** whole-binary code-layout/LTO luck factor (≥ 1.0); exactly 1.0
          for uniform builds, a deterministic half-normal draw keyed on
          the module→CV assignment otherwise.  This is the part of
          cross-module interference that per-loop measurements cannot
          reveal: greedy combination eats an average draw blind, while
          CFR's 1000 measured assemblies let it keep a near-1.0 draw. *)
  instrumented : bool;  (** Caliper annotations compiled in *)
}

val link :
  target:Target.t ->
  program:Ft_prog.Program.t ->
  ?instrumented:bool ->
  Cunit.t list ->
  binary
(** Link units (non-loop module first, as produced by
    {!Cunit.compile_program}) into an executable.
    @raise Invalid_argument if the unit list is not exactly the program's
    regions in program order. *)

val assignment_fingerprint : Cunit.t list -> int
(** The deterministic hash of the module→object-code assignment that seeds
    link-time decisions (decision records, not flag spellings — a flag
    that changes no code-generation decision cannot change the link);
    exposed for tests. *)
