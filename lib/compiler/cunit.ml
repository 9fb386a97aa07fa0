open Ft_prog

type t = {
  region_name : string;
  loop : Loop.t;
  cv : Ft_flags.Cv.t;
  decision : Decision.t;
}

let compile ~profile ~target ~language ?(pgo = None) ~cv (loop : Loop.t) =
  let decision, features_eff =
    Heuristics.decide ~profile ~target ~language ~pgo ~cv loop.Loop.features
  in
  let loop_eff = { loop with Loop.features = features_eff } in
  { region_name = loop.Loop.name; loop = loop_eff; cv; decision }

let compile_program ~profile ~target ?(pgo = None) ~cv_of
    (program : Program.t) =
  let language = program.Program.language in
  let compile_region index (loop : Loop.t) =
    let region_pgo =
      Option.bind pgo (fun db -> Pgo.lookup db loop.Loop.name)
    in
    compile ~profile ~target ~language ~pgo:region_pgo ~cv:(cv_of index) loop
  in
  compile_region 0 program.Program.nonloop
  :: List.mapi (fun i loop -> compile_region (i + 1) loop) program.Program.loops
