module Outline = Ft_outline.Outline
module Exec = Ft_machine.Exec
module Engine = Ft_engine.Engine
module Rng = Ft_util.Rng

type t = {
  outline : Outline.t;
  pool : Ft_flags.Cv.t array;
  modules : string array;
  times : float array array;
  totals : float array;
  valid : bool array;
}

let collect (ctx : Context.t) (outline : Outline.t) =
  let rng = Context.stream ctx "collection" in
  let module_names = Outline.module_names outline in
  let modules = Array.of_list module_names in
  let k = Array.length ctx.Context.pool in
  let times = Array.make_matrix (Array.length modules) k 0.0 in
  let totals = Array.make k 0.0 in
  let valid = Array.make k true in
  (* Each of the K uniform instrumented builds is an independent job with
     its own noise stream, so the collected matrix does not depend on
     worker count or completion order. *)
  let batch =
    Array.mapi
      (fun i cv ->
        {
          Engine.build =
            Engine.Assigned
              {
                assignment = List.map (fun m -> (m, cv)) module_names;
                instrumented = true;
              };
          rng = Rng.of_label rng (string_of_int i);
        })
      ctx.Context.pool
  in
  let engine = ctx.Context.engine in
  let outcomes =
    Ft_obs.Trace.span (Engine.trace engine) Ft_obs.Event.Collect (fun () ->
        Engine.timed engine "collect" (fun () ->
            Engine.try_measure_batch engine ~toolchain:ctx.Context.toolchain
              ~outline ~program:ctx.Context.program ~input:ctx.Context.input
              batch))
  in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Engine.Ok m ->
          totals.(i) <- m.Exec.elapsed_s;
          (* Only outlined loops carry Caliper annotations; everything else
             is part of the residual, derived by subtraction as in the
             paper.  The samples are the program's loops in program order,
             so loop [p] is region [p + 1] of the outline. *)
          List.iteri
            (fun p (_, s) ->
              let j = outline.Outline.region_module.(p + 1) in
              if j > 0 then times.(j).(i) <- s)
            m.Exec.region_samples;
          let hot_sum = ref 0.0 in
          for j = 1 to Array.length modules - 1 do
            hot_sum := !hot_sum +. times.(j).(i)
          done;
          times.(0).(i) <- Float.max 0.0 (m.Exec.elapsed_s -. !hot_sum)
      | _ ->
          (* A faulted collection column contributes nothing: infinite
             times keep the matrix shape (indices still line up with the
             pool) while argmin/top-k sort the column dead last. *)
          valid.(i) <- false;
          totals.(i) <- Float.infinity;
          Array.iter (fun row -> row.(i) <- Float.infinity) times)
    outcomes;
  { outline; pool = ctx.Context.pool; modules; times; totals; valid }

let module_index t name =
  let found = ref None in
  Array.iteri (fun j m -> if m = name then found := Some j) t.modules;
  !found

let row t name =
  match module_index t name with
  | Some j -> t.times.(j)
  | None -> invalid_arg ("Collection: unknown module " ^ name)

let best_cv_for t name = t.pool.(Ft_util.Stats.argmin (row t name))

let top_k_for t name x =
  let indices = Ft_util.Stats.top_k_indices x (row t name) in
  Array.of_list (List.map (fun i -> t.pool.(i)) indices)
