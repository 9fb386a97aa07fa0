type configuration =
  | Whole_program of Ft_flags.Cv.t
  | Per_module of (string * Ft_flags.Cv.t) list

type t = {
  algorithm : string;
  configuration : configuration;
  best_seconds : float;
  speedup : float;
  evaluations : int;
  trace : float list;
}

let make ~algorithm ~configuration ~baseline_s ~evaluations ~trace
    ~best_seconds =
  {
    algorithm;
    configuration;
    best_seconds;
    speedup = baseline_s /. best_seconds;
    evaluations;
    trace;
  }

(* The one canonical rendering of a search outcome: `funcy tune` prints
   it, and the tuning server ships the same bytes to every client of a
   coalesced search — byte-identity between a served result and a solo
   run is part of the serve contract, so there must be exactly one
   formatter. *)
let render r =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "%s: speedup %.3f over O3 (%s) after %d evaluations\n"
    r.algorithm r.speedup
    (Ft_util.Table.fmt_pct r.speedup)
    r.evaluations;
  (match r.configuration with
  | Whole_program cv ->
      Printf.bprintf buf "  winning CV: %s\n" (Ft_flags.Cv.render cv)
  | Per_module assignment ->
      Buffer.add_string buf "  winning per-module assignment:\n";
      List.iter
        (fun (m, cv) ->
          Printf.bprintf buf "    %-20s %s\n" m (Ft_flags.Cv.render cv))
        assignment);
  Buffer.contents buf

(* Floats in %h, so two renderings are equal exactly when the results
   are bit-identical, never merely close. *)
let render_exact r =
  let config =
    match r.configuration with
    | Whole_program cv -> "uniform:" ^ Ft_flags.Cv.to_compact cv
    | Per_module assignment ->
        String.concat ","
          (List.map
             (fun (m, cv) -> m ^ "=" ^ Ft_flags.Cv.to_compact cv)
             assignment)
  in
  Printf.sprintf "%s|%h|%h|%d|%s|%s" r.algorithm r.best_seconds r.speedup
    r.evaluations config
    (String.concat "," (List.map (Printf.sprintf "%h") r.trace))

let best_so_far series =
  let folder (best, acc) x =
    let best' = match best with None -> x | Some b -> Float.min b x in
    (Some best', best' :: acc)
  in
  let _, reversed = List.fold_left folder (None, []) series in
  List.rev reversed

let evaluations_to_best t =
  match t.trace with
  | [] -> 0
  | trace ->
      let final = List.fold_left Float.min infinity trace in
      let threshold = final *. 1.005 in
      let rec find i = function
        | [] -> i (* unreachable for non-empty traces *)
        | x :: rest -> if x <= threshold then i else find (i + 1) rest
      in
      find 1 trace
