open Ft_prog

type t = {
  program : Program.t;
  hot : string list;
  cold : string list;
  baseline_report : Ft_caliper.Report.t;
  region_module : int array;
}

let residual_module = "<residual>"

(* A region's module is its own when it is hot (module [j + 1] for
   [hot]'s [j]-th name), the residual module 0 otherwise. *)
let region_modules (program : Program.t) hot =
  let hot = Array.of_list hot in
  let module_of (l : Loop.t) =
    let rec find j =
      if j = Array.length hot then 0
      else if String.equal hot.(j) l.Loop.name then j + 1
      else find (j + 1)
    in
    find 0
  in
  Array.of_list
    (List.map module_of (program.Program.nonloop :: program.Program.loops))

let of_report ~program ?(threshold = Ft_caliper.Profiler.default_hot_threshold)
    report =
  let hot = Ft_caliper.Report.hot_loops ~threshold report in
  let cold =
    List.filter_map
      (fun (l : Loop.t) ->
        if List.mem l.Loop.name hot then None else Some l.Loop.name)
      program.Program.loops
  in
  {
    program;
    hot;
    cold;
    baseline_report = report;
    region_module = region_modules program hot;
  }

let outline ~toolchain ~program ~input ?threshold ~rng () =
  let report =
    Ft_caliper.Profiler.run ~toolchain ~program ~input ~rng ()
  in
  of_report ~program ?threshold report

let module_names t = residual_module :: t.hot
let module_count t = 1 + List.length t.hot

let compile_modules ~toolchain t ~cvs ?(instrumented = false) () =
  if Array.length cvs <> module_count t then
    invalid_arg "Outline.compile_modules: one CV per module expected";
  Ft_machine.Toolchain.compile_assigned toolchain
    ~cv_of:(fun region -> cvs.(t.region_module.(region)))
    ~instrumented t.program

let compile ~toolchain t ~assignment ?instrumented () =
  compile_modules ~toolchain t
    ~cvs:(Array.of_list (List.map assignment (module_names t)))
    ?instrumented ()
