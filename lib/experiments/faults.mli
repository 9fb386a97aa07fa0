(** Search quality under injected faults.

    Sweeps the fault rate on one benchmark/platform cell (363.swim on
    Broadwell, the cheapest tier-1 cell) and reruns the engine-backed
    searches at each rate: every search must complete — faulty CVs are
    retried, quarantined and skipped — and return its best {e valid}
    configuration, so speedups degrade gracefully instead of crashing. *)

val rates : float list
(** The swept fault rates: 0, 5, 10, 20 and 30 %. *)

val columns : string list
(** ["Random"; "FR"; "CFR"]. *)

val run :
  engine:(Ft_fault.Fault.t option -> Ft_engine.Engine.t) ->
  ?fault_seed:int ->
  seed:int ->
  pool_size:int ->
  unit ->
  Series.t
(** One row per fault rate, one column per search, cell = speedup over O3
    of the best fault-free configuration found.  Each rate runs on the
    engine [engine model] returns, called once per rate in {!rates}
    order with the model [Ft_fault.Fault.make ~seed:fault_seed ~rate ()],
    or [None] at 0 %.  The rate engines may share a measurement cache,
    telemetry and trace: a noise-free summary is the same under any
    fault model, so a shared cache changes no result.  Each needs a
    quarantine of its own, since which builds fail depends on the
    model.  The table is bit-identical for any workers and backend. *)
