(* BENCHMARK.json, the one list of workloads, metrics, units and bounds:
   runs emit exactly its metrics, [compare] applies its bounds. *)

module Json = Ft_obs.Json

let fail fmt =
  Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 1) fmt

type metric = { name : string; unit_ : string; higher_better : bool; bound : float }

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let read_json path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error msg -> fail "%s: %s" path msg
  | exception Sys_error msg -> fail "%s" msg

let field name j =
  match Json.member name j with Some v -> v | None -> fail "missing field %S" name

let str j = match Json.to_str j with Some s -> s | None -> fail "expected a string"
let num j = match Json.to_float j with Some f -> f | None -> fail "expected a number"
let items = function Json.List l -> l | _ -> fail "expected a list"

let load () =
  let j = read_json "BENCHMARK.json" in
  let metric m =
    {
      name = str (field "name" m);
      unit_ = str (field "unit" m);
      higher_better = str (field "better" m) = "higher";
      bound = (match Json.member "bound" m with Some b -> num b | None -> 0.0);
    }
  in
  {
    run_seconds = int_of_float (num (field "run_seconds" j));
    workloads = List.map (fun w -> str (field "name" w)) (items (field "workloads" j));
    end_to_end = List.map metric (items (field "end_to_end" j));
    per_layer = List.map metric (items (field "per_layer" j));
  }
