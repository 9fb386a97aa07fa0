module Outline = Ft_outline.Outline
module Toolchain = Ft_machine.Toolchain
module Exec = Ft_machine.Exec

type session = {
  ctx : Context.t;
  outline : Outline.t;
  collection : Collection.t Lazy.t;
}

let make_session ?pool_size ?engine ~platform ~program ~input ~seed () =
  let toolchain = Toolchain.make platform in
  let ctx =
    Context.make ?pool_size ?engine ~toolchain ~program ~input ~seed ()
  in
  let outline =
    Ft_obs.Trace.span (Context.trace ctx) Ft_obs.Event.Profile (fun () ->
        Outline.outline ~toolchain ~program ~input
          ~rng:(Context.stream ctx "profile")
          ())
  in
  { ctx; outline; collection = lazy (Collection.collect ctx outline) }

type report = {
  random : Result.t;
  fr : Result.t;
  greedy : Greedy.t;
  cfr : Result.t;
}

let run_all ?top_x session =
  let collection = Lazy.force session.collection in
  {
    random = Random_search.run session.ctx;
    fr = Fr.run session.ctx session.outline;
    greedy = Greedy.run session.ctx collection;
    cfr = Cfr.run ?top_x session.ctx collection;
  }

let run_cfr ?top_x session =
  Cfr.run ?top_x session.ctx (Lazy.force session.collection)

(* The session searches, by name: each entry passes on only the options
   its algorithm takes, and an absent one keeps that algorithm's own
   default. *)
let table =
  let collection s = Lazy.force s.collection in
  [
    ("cfr", fun ~top_x ~budget:_ ~warm_start:_ s -> run_cfr ?top_x s);
    ( "cfr-adaptive",
      fun ~top_x ~budget:_ ~warm_start:_ s ->
        Adaptive.run ?top_x s.ctx (collection s) );
    ( "adaptive-sh",
      fun ~top_x ~budget ~warm_start s ->
        let warm = Option.map Ft_engine.Cache.load warm_start in
        Adaptive_sh.run ?top_x ?budget ?warm s.ctx (collection s) );
    ("fr", fun ~top_x:_ ~budget:_ ~warm_start:_ s -> Fr.run s.ctx s.outline);
    ( "random",
      fun ~top_x:_ ~budget:_ ~warm_start:_ s -> Random_search.run s.ctx );
  ]

let searches = List.map fst table

let search ?top_x ?budget ?warm_start name session =
  match List.assoc_opt name table with
  | Some run -> run ~top_x ~budget ~warm_start session
  | None -> invalid_arg ("Tuner.search: unknown search " ^ name)

let build_configuration session (configuration : Result.configuration) =
  match configuration with
  | Result.Whole_program cv ->
      Toolchain.compile_uniform session.ctx.Context.toolchain ~cv
        session.ctx.Context.program
  | Result.Per_module assignment ->
      Outline.compile ~toolchain:session.ctx.Context.toolchain session.outline
        ~assignment:(fun name -> List.assoc name assignment)
        ()

let evaluate_configuration session ~input ~rng configuration =
  let binary = build_configuration session configuration in
  let m =
    Exec.measure
      ~arch:session.ctx.Context.toolchain.Toolchain.arch
      ~input ~rng binary
  in
  m.Exec.elapsed_s

let o3_seconds session ~input =
  Ft_caliper.Profiler.baseline_seconds
    ~toolchain:session.ctx.Context.toolchain
    ~program:session.ctx.Context.program ~input
