(** Fig. 7: do tuned configurations generalize to other work-set sizes?

    Protocol (§4.3): tune every approach on the Broadwell tuning input,
    then re-measure the {e same} tuned binaries on a smaller and a larger
    input (LULESH 180/250, AMG 20/30, Cloverleaf 1000/4000, Optewe
    384/768, SPEC test/ref), reporting speedup over O3 {e on that input}.

    Paper: little sensitivity overall (CFR GM +12.3 % small, +10.7 %
    large; AMG reaches +22 % on the large input); the one exception is
    swim's tiny "test" input, whose per-step profile no longer matches the
    tuning input (the work set drops into cache), where CFR trails the
    other approaches while still beating O3. *)

val columns : string list
(** ["Random"; "G.realized"; "COBAYN"; "PGO"; "OpenTuner"; "CFR"] —
    COBAYN is its best (static) variant, as in the paper's case study. *)

val panel : Lab.t -> small:bool -> Series.t
(** Fig. 7a ([small:true]) or 7b ([small:false]); GM row included. *)

val row :
  Lab.t -> Ft_prog.Program.t -> input:Ft_prog.Input.t -> float list
(** One benchmark's cells on an arbitrary input (shared with Fig. 8). *)
