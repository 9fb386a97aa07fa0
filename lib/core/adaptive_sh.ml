module Rng = Ft_util.Rng
module Engine = Ft_engine.Engine
module Cache = Ft_engine.Cache
module Exec = Ft_machine.Exec
module Event = Ft_obs.Event
module Trace = Ft_obs.Trace

let default_budget (ctx : Context.t) =
  max 2 (Array.length ctx.Context.pool / 4)

(* A quarter of the budget calls for a sharper prune than CFR's top-20:
   with only ~budget/2 arms, draws from wide pools rarely land on the
   rare good combinations, while the top handful of each module's
   ranking concentrates them (measured across the examples corpus: at
   K/4 this width matches or beats full-budget CFR; 20 does not). *)
let default_top_x = 4

(* Mirror one allocator decision into the trace.  Decisions are pure
   functions of deterministic scores, so these events are part of the
   logical byte-identity contract. *)
let emit_decision trace decision =
  Trace.emit trace
    (match decision with
    | Allocator.Rung_opened { rung; arms; pulls } ->
        Event.Rung_opened { rung; arms; pulls }
    | Allocator.Rung_closed { rung; survivors } ->
        Event.Rung_closed { rung; survivors }
    | Allocator.Promoted { rung; arm } -> Event.Arm_promoted { rung; arm }
    | Allocator.Eliminated { rung; arm } -> Event.Arm_eliminated { rung; arm })

let run ?(top_x = default_top_x) ?(policy = Allocator.default_policy)
    ?budget ?warm (ctx : Context.t) (collection : Collection.t) =
  if Array.length ctx.Context.pool = 0 then
    invalid_arg "Adaptive_sh.run: empty pool";
  let outline = collection.Collection.outline in
  let pools = Cfr.traced_pruned_pools ~top_x ctx collection in
  let budget = match budget with Some b -> b | None -> default_budget ctx in
  (* Half the budget buys breadth (distinct arms), the other half buys
     depth (re-measurement of survivors).  Arm 0 is the greedy
     predicted-best combination; the rest re-sample the pruned pools
     exactly as CFR would. *)
  let arms = max 1 (min budget (max 2 (budget / 2))) in
  let rng = Context.stream ctx "adaptive-sh" in
  let assignments =
    Array.init arms (fun i ->
        if i = 0 then
          List.map (fun (m, _) -> (m, Collection.best_cv_for collection m)) pools
        else List.map (fun (m, pool) -> (m, Rng.choose rng pool)) pools)
  in
  let build a = Engine.Assigned { assignment = a; instrumented = false } in
  let priors =
    Option.map
      (fun cache ->
        Array.map
          (fun a ->
            let key =
              Engine.key ~toolchain:ctx.Context.toolchain
                ~program:ctx.Context.program ~input:ctx.Context.input (build a)
            in
            Option.map
              (fun s -> s.Exec.sum_total_s)
              (Cache.find cache key))
          assignments)
      warm
  in
  let alloc = ref (Allocator.create ~policy ?priors ~arms ~budget ()) in
  let emitted = ref 0 in
  let engine = ctx.Context.engine in
  let trace = Context.trace ctx in
  let flush_decisions () =
    let ds = Allocator.decisions !alloc in
    List.iteri (fun i d -> if i >= !emitted then emit_decision trace d) ds;
    emitted := List.length ds
  in
  let noise = Context.stream ctx "adaptive-sh:noise" in
  let times = ref [] in
  Trace.span trace Event.Search (fun () ->
      Engine.timed engine "adaptive-sh" (fun () ->
          flush_decisions ();
          let rec loop () =
            let pulls, awaiting = Allocator.next_batch !alloc in
            match pulls with
            | [] -> ()
            | pulls ->
                let batch =
                  Array.of_list
                    (List.map
                       (fun { Allocator.arm; repeat } ->
                         {
                           Engine.build = build assignments.(arm);
                           rng =
                             Rng.of_label noise
                               (string_of_int arm ^ ":" ^ string_of_int repeat);
                         })
                       pulls)
                in
                let outcomes =
                  Engine.try_measure_batch engine
                    ~toolchain:ctx.Context.toolchain ~outline
                    ~program:ctx.Context.program ~input:ctx.Context.input batch
                in
                let scores =
                  Array.to_list
                    (Array.map
                       (function
                         | Engine.Ok m -> m.Exec.elapsed_s
                         | _ -> Float.infinity)
                       outcomes)
                in
                times := List.rev_append scores !times;
                alloc := Allocator.observe awaiting scores;
                flush_decisions ();
                loop ()
          in
          loop ()));
  let winner =
    match Allocator.best !alloc with
    | Some a when Float.is_finite (Allocator.means !alloc).(a) ->
        assignments.(a)
    | _ ->
        (* Every pull of every surviving arm faulted: report the O3
           do-nothing assignment, as the other searches do. *)
        Fr.o3_assignment outline
  in
  let best_seconds = Fr.evaluate_assignment ctx outline winner in
  Result.make ~algorithm:"CFR-SH" ~configuration:(Result.Per_module winner)
    ~baseline_s:ctx.Context.baseline_s
    (* The confirmation measurement of the winner is budget spend too. *)
    ~evaluations:(Allocator.spent !alloc + 1)
    ~trace:(Result.best_so_far (List.rev !times))
    ~best_seconds
