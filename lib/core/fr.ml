module Outline = Ft_outline.Outline
module Exec = Ft_machine.Exec
module Rng = Ft_util.Rng
module Engine = Ft_engine.Engine

let try_measure_assignment (ctx : Context.t) outline ~rng assignment =
  Engine.try_measure_one ctx.Context.engine ~toolchain:ctx.Context.toolchain
    ~outline ~program:ctx.Context.program ~input:ctx.Context.input
    { Engine.build = Engine.Assigned { assignment; instrumented = false }; rng }

let evaluate_assignment (ctx : Context.t) outline assignment =
  Engine.evaluate ctx.Context.engine ~toolchain:ctx.Context.toolchain ~outline
    ~program:ctx.Context.program ~input:ctx.Context.input
    (Engine.Assigned { assignment; instrumented = false })

let o3_assignment outline =
  List.map
    (fun m -> (m, Ft_flags.Cv.o3))
    (Outline.module_names outline)

(* Shared skeleton of FR and CFR: sample K per-module assignments from
   [draw] (sequentially, on the search's own stream — sampling is cheap),
   measure them as a batch of independent jobs, keep the earliest best.
   Faulted assignments score infinity, so they can never win; if every
   single assignment faults, the search falls back to all-modules-O3 —
   the configuration the user already had. *)
let search_assignments (ctx : Context.t) outline ~algorithm ~label ~draw =
  let rng = Context.stream ctx label in
  let noise = Context.stream ctx (label ^ ":noise") in
  let k = Array.length ctx.Context.pool in
  let assignments = Array.init k (fun _ -> draw rng) in
  let batch =
    Array.mapi
      (fun i assignment ->
        {
          Engine.build = Engine.Assigned { assignment; instrumented = false };
          rng = Rng.of_label noise (string_of_int i);
        })
      assignments
  in
  let engine = ctx.Context.engine in
  let outcomes =
    Ft_obs.Trace.span (Engine.trace engine) Ft_obs.Event.Search (fun () ->
        Engine.timed engine label (fun () ->
            Engine.try_measure_batch engine ~toolchain:ctx.Context.toolchain
              ~outline ~program:ctx.Context.program ~input:ctx.Context.input
              batch))
  in
  let times =
    Array.map
      (function Engine.Ok m -> m.Exec.elapsed_s | _ -> Float.infinity)
      outcomes
  in
  if k = 0 then invalid_arg (algorithm ^ ": empty pool");
  (* Stats.argmin, not a bare [<] scan: same first-on-ties winner, but a
     NaN sneaking into the times (it cannot, today — faults score
     infinity) fails loudly instead of silently handing index 0 the win. *)
  let best = Ft_util.Stats.argmin times in
  let winner =
    if Float.is_finite times.(best) then assignments.(best)
    else o3_assignment outline
  in
  let configuration = Result.Per_module winner in
  Result.make ~algorithm ~configuration ~baseline_s:ctx.Context.baseline_s
    ~evaluations:k
    ~trace:(Result.best_so_far (Array.to_list times))
    ~best_seconds:(evaluate_assignment ctx outline winner)

let run (ctx : Context.t) outline =
  let modules = Outline.module_names outline in
  search_assignments ctx outline ~algorithm:"FR" ~label:"fr" ~draw:(fun rng ->
      List.map (fun m -> (m, Rng.choose rng ctx.Context.pool)) modules)
