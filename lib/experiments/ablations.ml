open Ft_prog
module Tuner = Funcytuner.Tuner
module Result = Funcytuner.Result
module Cfr = Funcytuner.Cfr
module Cv = Ft_flags.Cv
module Flag = Ft_flags.Flag
module Exec = Ft_machine.Exec

let top_x_sweep ?(values = [ 1; 5; 10; 20; 50; 200; 1000 ]) lab =
  let program = Option.get (Ft_suite.Suite.find "Cloverleaf") in
  let session = Lab.session lab Platform.Broadwell program in
  let collection = Lazy.force session.Tuner.collection in
  let rows =
    List.map
      (fun x ->
        let r = Cfr.run ~top_x:x session.Tuner.ctx collection in
        (Printf.sprintf "X=%d" x, [ r.Result.speedup ]))
      values
  in
  Series.make
    ~title:
      "Ablation: CFR top-X space-focusing width (Cloverleaf, Broadwell)"
    ~columns:[ "CFR speedup" ] rows

let convergence lab =
  let table =
    Ft_util.Table.create
      ~title:
        "Ablation: evaluations until within 0.5% of the final best \
         (Broadwell)"
      [ "Benchmark"; "Random"; "FR"; "CFR" ]
  in
  List.iter
    (fun (p : Program.t) ->
      let r = Lab.report lab Platform.Broadwell p in
      Ft_util.Table.add_row table
        [
          p.Program.name;
          string_of_int (Result.evaluations_to_best r.Tuner.random);
          string_of_int (Result.evaluations_to_best r.Tuner.fr);
          string_of_int (Result.evaluations_to_best r.Tuner.cfr);
        ])
    Ft_suite.Suite.all;
  table

(* §4.4.1: starting from a tuned per-module assignment, repeatedly revert
   any flag of the focused module's CV to its O3 default if doing so does
   not degrade the (noise-free) end-to-end runtime. *)
let eliminate_for_module session assignment focus =
  let evaluate assignment =
    let binary =
      Tuner.build_configuration session (Result.Per_module assignment)
    in
    let input = session.Tuner.ctx.Funcytuner.Context.input in
    (Exec.evaluate
       ~arch:
         session.Tuner.ctx.Funcytuner.Context.toolchain
           .Ft_machine.Toolchain.arch
       ~input binary)
      .Exec.total_s
  in
  let set_cv assignment cv =
    List.map (fun (m, c) -> if m = focus then (m, cv) else (m, c)) assignment
  in
  let current = ref assignment in
  let current_s = ref (evaluate assignment) in
  let improved = ref true in
  while !improved do
    improved := false;
    Array.iter
      (fun flag ->
        let cv = List.assoc focus !current in
        let default = Flag.default_o3 flag in
        if Cv.get cv flag <> default then begin
          let trial = set_cv !current (Cv.set cv flag default) in
          let s = evaluate trial in
          (* "does not degrade": allow a hair of slack for coupling
             rounding. *)
          if s <= !current_s *. 1.002 then begin
            current := trial;
            current_s := Float.min s !current_s;
            improved := true
          end
        end)
      Flag.all
  done;
  let cv = List.assoc focus !current in
  Array.to_list Flag.all
  |> List.filter_map (fun flag ->
         if Cv.get cv flag <> Flag.default_o3 flag then
           Some
             (Printf.sprintf "%s=%s" (Flag.name flag) (Cv.value_name cv flag))
         else None)

let critical_flags lab (program : Program.t) =
  let session = Lab.session lab Platform.Broadwell program in
  let report = Lab.report lab Platform.Broadwell program in
  match report.Tuner.cfr.Result.configuration with
  | Result.Whole_program _ -> []
  | Result.Per_module assignment ->
      let hot = session.Tuner.outline.Ft_outline.Outline.hot in
      List.map
        (fun m -> (m, eliminate_for_module session assignment m))
        hot

let adaptive_budget lab =
  let table =
    Ft_util.Table.create
      ~title:
        "Ablation: early-stopping CFR vs full CFR (Broadwell) — speedup and \
         evaluations spent"
      [ "Benchmark"; "CFR"; "evals"; "CFR-adaptive"; "evals(adaptive)" ]
  in
  List.iter
    (fun (p : Program.t) ->
      let session = Lab.session lab Platform.Broadwell p in
      let collection = Lazy.force session.Tuner.collection in
      let full = (Lab.report lab Platform.Broadwell p).Tuner.cfr in
      let adaptive =
        Funcytuner.Adaptive.run session.Tuner.ctx collection
      in
      Ft_util.Table.add_row table
        [
          p.Program.name;
          Ft_util.Table.fmt_f full.Result.speedup;
          string_of_int full.Result.evaluations;
          Ft_util.Table.fmt_f adaptive.Result.speedup;
          string_of_int adaptive.Result.evaluations;
        ])
    Ft_suite.Suite.all;
  table

let quality_vs_budget lab =
  let k = Lab.pool_size lab in
  let budgets = List.map (fun d -> max 2 (k / d)) [ 16; 8; 4; 2 ] in
  let table =
    Ft_util.Table.create
      ~title:
        "Quality vs budget: adaptive-sh at K/16..K/2 measurements vs \
         full-budget CFR (Broadwell)"
      (("Benchmark" :: List.map (Printf.sprintf "SH@%d") budgets)
      @ [ "CFR (full)" ])
  in
  List.iter
    (fun (p : Program.t) ->
      let session = Lab.session lab Platform.Broadwell p in
      let collection = Lazy.force session.Tuner.collection in
      let cfr = (Lab.report lab Platform.Broadwell p).Tuner.cfr in
      let sh budget =
        (Funcytuner.Adaptive_sh.run ~budget session.Tuner.ctx collection)
          .Result.speedup
      in
      Ft_util.Table.add_row table
        ((p.Program.name
         :: List.map (fun b -> Ft_util.Table.fmt_f (sh b)) budgets)
        @ [ Ft_util.Table.fmt_f cfr.Result.speedup ]))
    Ft_suite.Suite.all;
  table

let elimination_variants lab =
  let toolchain = Ft_machine.Toolchain.make Platform.Broadwell in
  let cell algo (p : Program.t) =
    let input = Ft_suite.Suite.tuning_input Platform.Broadwell p in
    let rng = Lab.rng lab ("elim:" ^ p.Program.name) in
    let result =
      match algo with
      | `Be -> Ft_baselines.Ce.run_batch ~toolchain ~program:p ~input ~rng ()
      | `Ie ->
          Ft_baselines.Ce.run_iterative ~toolchain ~program:p ~input ~rng ()
      | `Ce -> Ft_baselines.Ce.run ~toolchain ~program:p ~input ~rng ()
    in
    result.Ft_baselines.Ce.speedup
  in
  let rows =
    List.map
      (fun name ->
        let p = Option.get (Ft_suite.Suite.find name) in
        (name, [ cell `Be p; cell `Ie p; cell `Ce p ]))
      [ "LULESH"; "Cloverleaf"; "AMG" ]
  in
  Series.make
    ~title:
      "Ablation: Pan & Eigenmann elimination variants over O3 (ICC, \
       Broadwell)"
    ~columns:[ "BE"; "IE"; "CE" ] rows

let critical_flags_table lab =
  let program = Option.get (Ft_suite.Suite.find "Cloverleaf") in
  let all = critical_flags lab program in
  let table =
    Ft_util.Table.create
      ~title:
        "4.4.1 analysis: performance-critical flags of CFR's per-loop CVs \
         (Cloverleaf, Broadwell)"
      [ "Kernel"; "Critical flags (vs O3 defaults)" ]
  in
  List.iter
    (fun kernel ->
      match List.assoc_opt kernel all with
      | None -> ()
      | Some flags ->
          Ft_util.Table.add_row table
            [
              kernel;
              (match flags with [] -> "(none)" | f -> String.concat " " f);
            ])
    Casestudy.kernels;
  table
