(* [suite]: every workload over several seeds, summarized as a
   funcytuner/bench/2 snapshot; [compare]: one snapshot against another
   under BENCHMARK.json's bounds. *)

module Json = Ft_obs.Json
module B = Benchfile

(* Python's [statistics.quantiles(xs, n=4)] (the exclusive method), so a
   spread read here is the one the benchmark's acceptance check computes. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "quartiles: no values"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* One run of this same executable, with the benchmark's own command line. *)
let run_once ~workload ~seed ~seconds ~trace =
  let args =
    [|
      Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let rec last acc = match input_line ic with l -> last (Some l) | exception End_of_file -> acc in
  let line = last None in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> (
      match Json.of_string l with
      | Ok j -> j
      | Error msg -> B.fail "%s seed %d: bad result line: %s" workload seed msg)
  | status, _ -> B.fail "%s seed %d: run failed (%s)" workload seed (Proc.status_to_string status)

let value run name =
  B.num (B.field "value" (B.field name (B.field "metrics" run)))

let int_field name j = int_of_float (B.num (B.field name j))

let summary (m : B.metric) values =
  let q1, med, q3 = quartiles values in
  Json.Obj
    [
      ("unit", Json.String m.B.unit_);
      ("median", Json.Float med);
      ("q1", Json.Float q1);
      ("q3", Json.Float q3);
      ("n", Json.Int (List.length values));
      ("values", Json.List (List.map (fun v -> Json.Float v) values));
    ]

let git_rev () =
  match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "--short"; "HEAD" |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown")

let main args =
  let bench = B.load () in
  let seconds = bench.B.run_seconds in
  let seeds = ref 10 and out = ref None in
  let rec go = function
    | [] -> ()
    | "--seeds" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> seeds := n
        | _ -> B.fail "suite: expected a positive integer, got %S" n);
        go rest
    | "--out" :: p :: rest -> out := Some p; go rest
    | a :: _ -> B.fail "suite: unexpected argument %S" a
  in
  go args;
  let out = match !out with Some p -> p | None -> B.fail "suite: --out FILE is required" in
  let seeds = List.init !seeds (fun i -> i + 1) in
  let workload w =
    let runs =
      List.map
        (fun seed ->
          Printf.eprintf "perfbench: %s seed %d\n%!" w seed;
          run_once ~workload:w ~seed ~seconds ~trace:false)
        seeds
    in
    let traced = run_once ~workload:w ~seed:1 ~seconds ~trace:true in
    let sum name = List.fold_left (fun acc r -> acc + int_field name r) 0 (traced :: runs) in
    Printf.printf "\n%s (%d seeds, %d s each)\n  %-16s %-6s %12s %12s %12s %3s\n" w
      (List.length seeds) seconds "metric" "unit" "q1" "median" "q3" "n";
    let e2e =
      List.map
        (fun (m : B.metric) ->
          let values = List.map (fun r -> value r m.B.name) runs in
          let q1, med, q3 = quartiles values in
          Printf.printf "  %-16s %-6s %12.4f %12.4f %12.4f %3d\n" m.B.name m.B.unit_ q1 med q3
            (List.length values);
          (m.B.name, summary m values))
        bench.B.end_to_end
    in
    Printf.printf "  per layer (traced run, seed 1):\n%!";
    let layers =
      List.map
        (fun (m : B.metric) ->
          let v = value traced m.B.name in
          Printf.printf "    %-30s %14.4f %s\n%!" m.B.name v m.B.unit_;
          (m.B.name, Json.Obj [ ("unit", Json.String m.B.unit_); ("value", Json.Float v) ]))
        bench.B.per_layer
    in
    let failed = sum "failed" in
    ( w,
      Json.Obj
        [
          ("correct", Json.Bool (failed = 0));
          ("attempted", Json.Int (sum "attempted"));
          ("failed", Json.Int failed);
          ("end_to_end", Json.Obj e2e);
          ("per_layer", Json.Obj layers);
        ] )
  in
  let workloads = List.map workload bench.B.workloads in
  let json =
    Json.Obj
      [
        ("schema", Json.String "funcytuner/bench/2");
        ("rev", Json.String (git_rev ()));
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("scratch_dir", Json.String ".perfbench (under the repository root)");
        ("seconds", Json.Int seconds);
        ("seeds", Json.List (List.map (fun s -> Json.Int s) seeds));
        ("workloads", Json.Obj workloads);
      ]
  in
  let oc = open_out out in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" out

(* -- compare -------------------------------------------------------------- *)

(* Per-layer counts that must repeat exactly on unchanged code. *)
let exact = [ "engine.jobs"; "engine.builds"; "engine.minor_words_per_job"; "scheduler.admitted" ]

let compare args =
  let a_path, b_path =
    match args with [ a; b ] -> (a, b) | _ -> B.fail "compare: expected A.json B.json"
  in
  let bench = B.load () in
  let a = B.read_json a_path and b = B.read_json b_path in
  let workload j w = B.field w (B.field "workloads" j) in
  let regressed = ref 0 in
  Printf.printf "%-12s %-16s %12s %12s %8s %7s  %s\n" "workload" "metric" "A median" "B median"
    "change" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (m : B.metric) ->
          let s j = B.field m.B.name (B.field "end_to_end" (workload j w)) in
          let get k j = B.num (B.field k (s j)) in
          let values j = List.map B.num (B.items (B.field "values" (s j))) in
          let spread j = (get "q3" j -. get "q1" j) /. Float.abs (get "median" j) in
          let ma = get "median" a and mb = get "median" b in
          (* positive = worse *)
          let worse = (if m.B.higher_better then ma -. mb else mb -. ma) /. Float.abs ma in
          let better x y = if m.B.higher_better then x > y else x < y in
          let all_better =
            List.for_all (fun vb -> List.for_all (fun va -> better vb va) (values a)) (values b)
          in
          let noise = Float.max (spread a) (spread b) in
          let verdict =
            if all_better then "improved"
            else if noise > m.B.bound then "unresolved"
            else if worse > m.B.bound then (incr regressed; "REGRESSED")
            else if -.worse > noise then "improved"
            else "unchanged"
          in
          Printf.printf "%-12s %-16s %12.4f %12.4f %+7.1f%% %6.0f%%  %s\n" w m.B.name ma mb
            (100.0 *. (mb -. ma) /. Float.abs ma)
            (100.0 *. m.B.bound) verdict)
        bench.B.end_to_end;
      List.iter
        (fun name ->
          let v j = B.num (B.field "value" (B.field name (B.field "per_layer" (workload j w)))) in
          if v a <> v b then Printf.printf "%-12s exact count %s changed: %g -> %g\n" w name (v a) (v b))
        exact)
    bench.B.workloads;
  if !regressed > 0 then exit 1
