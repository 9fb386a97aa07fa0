(** Fig. 5: the four §2.2 algorithms (plus G.Independent) on all seven
    benchmarks, one panel per platform, speedups normalized to O3.

    Paper values to compare against: CFR geometric means of 1.092 / 1.103 /
    1.094 on Opteron / Sandy Bridge / Broadwell, Random 1.034 / 1.050 /
    1.046, G.realized frequently below 1.0 (down to 0.34 for Optewe on
    Sandy Bridge), FR in between, G.Independent the hypothetical top. *)

val columns : string list
(** ["Random"; "G.realized"; "FR"; "CFR"; "G.Independent"]. *)

val panel : Lab.t -> Ft_prog.Platform.t -> Series.t
(** One platform's panel (Fig. 5a/b/c), GM row included. *)
