module Telemetry = Ft_obs.Telemetry
module Trace = Ft_obs.Trace

type divergence = { stage : string; part : string; diff : string list }

type outcome = {
  label : string;
  evaluations : int;
  kill_points : int list;
  checks : int;
  divergences : divergence list;
}

(* What one run leaves behind, everything rendered to comparable lines:
   the result string, the cache and quarantine contents, and the
   resume-invariant skeleton of the logical trace. *)
type artifacts = {
  result : string;
  cache_lines : string list;
  quarantine_lines : string list;
  trace_lines : string list;
}

(* One line per binding in key order: the key, total and non-loop
   seconds, then [name=seconds] per loop, tab-separated.  Floats in %h,
   so two lines are equal exactly when the summaries are bit-identical,
   and a divergence diff stays human-readable. *)
let cache_lines cache =
  List.map
    (fun (key, (s : Ft_machine.Exec.summary)) ->
      String.concat "\t"
        (key
        :: Printf.sprintf "%h" s.sum_total_s
        :: Printf.sprintf "%h" s.sum_nonloop_s
        :: List.map
             (fun (name, seconds) -> Printf.sprintf "%s=%h" name seconds)
             s.sum_loops))
    (Cache.bindings cache)

(* Likewise one line per quarantined key: the key, a reason letter and
   its detail, a timeout in %h. *)
let quarantine_lines quarantine =
  List.map
    (fun (key, (reason : Quarantine.reason)) ->
      String.concat "\t"
        (key
        ::
        (match reason with
        | Build_failed m -> [ "B"; m ]
        | Crashed d -> [ "C"; d ]
        | Wrong_answer -> [ "W" ]
        | Timed_out s -> [ "T"; Printf.sprintf "%h" s ])))
    (Quarantine.bindings quarantine)

let snapshot engine trace result =
  let quarantine = Engine.quarantine engine in
  {
    result;
    cache_lines = cache_lines (Engine.cache engine);
    quarantine_lines = quarantine_lines quarantine;
    trace_lines =
      Trace.normalized_lines
        ~is_quarantined:(fun key -> Quarantine.find quarantine key <> None)
        trace;
  }

(* A positional line diff — the compared renderings are all in canonical
   (sorted or trace) order, so position-by-position is the honest shape. *)
let diff_lines ~expected ~actual =
  let ea = Array.of_list expected and aa = Array.of_list actual in
  let ne = Array.length ea and na = Array.length aa in
  let out = ref [] in
  let add line = out := line :: !out in
  if ne <> na then
    add (Printf.sprintf "reference has %d lines, this run %d" ne na);
  let n = min ne na in
  let shown = ref 0 and suppressed = ref 0 in
  for i = 0 to n - 1 do
    if ea.(i) <> aa.(i) then
      if !shown < 6 then begin
        incr shown;
        add (Printf.sprintf "line %d:" (i + 1));
        add ("  reference: " ^ ea.(i));
        add ("  this run:  " ^ aa.(i))
      end
      else incr suppressed
  done;
  if !suppressed > 0 then
    add (Printf.sprintf "... and %d more differing lines" !suppressed);
  if ne > n then add (Printf.sprintf "reference has %d extra trailing lines" (ne - n));
  if na > n then add (Printf.sprintf "this run has %d extra trailing lines" (na - n));
  List.rev !out

let compare_part ~stage ~part ~expected ~actual acc =
  if expected = actual then acc
  else { stage; part; diff = diff_lines ~expected ~actual } :: acc

let compare_artifacts ~stage ~reference ~candidate =
  []
  |> compare_part ~stage ~part:"result" ~expected:[ reference.result ]
       ~actual:[ candidate.result ]
  |> compare_part ~stage ~part:"cache" ~expected:reference.cache_lines
       ~actual:candidate.cache_lines
  |> compare_part ~stage ~part:"quarantine"
       ~expected:reference.quarantine_lines
       ~actual:candidate.quarantine_lines
  |> compare_part ~stage ~part:"trace" ~expected:reference.trace_lines
       ~actual:candidate.trace_lines
  |> List.rev

let run ?kill_points ~scratch ~label ~make_engine ~search () =
  (* Reference: uninterrupted, fresh stores, logical trace. *)
  let ref_trace = Trace.create ~clock:Trace.Logical () in
  let ref_engine =
    make_engine ~cache:(Cache.create ()) ~quarantine:(Quarantine.create ())
      ~checkpoint:None ~trace:(Some ref_trace)
  in
  let ref_result = search ref_engine in
  let evaluations = Telemetry.completed (Engine.telemetry ref_engine) in
  let reference = snapshot ref_engine ref_trace ref_result in
  let kill_points =
    (match kill_points with
    | Some explicit -> explicit
    | None -> [ 1; (evaluations + 1) / 2; evaluations ])
    |> List.filter (fun n -> n >= 1 && n <= evaluations)
    |> List.sort_uniq compare
  in
  (* One kill point: flush a checkpoint at exactly [n] completed jobs of a
     fresh ("doomed") run, discard everything the doomed run did after
     that flush, and resume a third run from the snapshot.  The doomed
     engine gets no attached checkpoint — periodic ticks after [n] would
     overwrite the kill-point state — just the one-shot flush below,
     which is precisely what --die-after leaves on disk before exit 99. *)
  let check_kill n =
    let stage = Printf.sprintf "kill@%d" n in
    let snap = Filename.concat scratch (Printf.sprintf "kill%d.snap" n) in
    let ck = Checkpoint.create ~path:snap () in
    if Sys.file_exists snap then Sys.remove snap;
    let doomed =
      make_engine ~cache:(Cache.create ()) ~quarantine:(Quarantine.create ())
        ~checkpoint:None ~trace:None
    in
    Telemetry.set_progress (Engine.telemetry doomed)
      (fun ~completed ->
        if completed = n then
          ignore
            (Checkpoint.flush ck ~cache:(Engine.cache doomed)
               ~quarantine:(Engine.quarantine doomed)
              : bool));
    ignore (search doomed : string);
    match Checkpoint.load ck with
    | None ->
        ( [ { stage; part = "checkpoint";
              diff = [ "no snapshot reached the disk at this kill point" ] } ],
          None )
    | Some (cache, quarantine) ->
        let trace = Trace.create ~clock:Trace.Logical () in
        let resumed_engine =
          make_engine ~cache ~quarantine
            ~checkpoint:(Some (Checkpoint.create ~path:snap ()))
            ~trace:(Some trace)
        in
        let result = search resumed_engine in
        let candidate = snapshot resumed_engine trace result in
        ( compare_artifacts ~stage ~reference ~candidate,
          Some (Engine.cache resumed_engine) )
  in
  let kill_divs, last_resumed_cache =
    List.fold_left
      (fun (divs, last) n ->
        let d, cache = check_kill n in
        (divs @ d, match cache with Some _ -> cache | None -> last))
      ([], None) kill_points
  in
  (* Cache-merge round-trip: adopting the resumed cache into the reference
     cache, and vice versa, must commute — and since a resumed search
     recomputes exactly the reference's key set, both unions must
     serialize to the reference snapshot itself. *)
  let merge_divs, merge_checks =
    match last_resumed_cache with
    | None -> ([], 0)
    | Some resumed_cache ->
        let adopt base extra =
          let union = Cache.create () in
          ignore (Cache.merge union ~from:base : int);
          ignore (Cache.merge union ~from:extra : int);
          union
        in
        let ab = cache_lines (adopt (Engine.cache ref_engine) resumed_cache) in
        let ba = cache_lines (adopt resumed_cache (Engine.cache ref_engine)) in
        ( []
          |> compare_part ~stage:"cache-merge" ~part:"order-independence"
               ~expected:ab ~actual:ba
          |> compare_part ~stage:"cache-merge" ~part:"union-vs-reference"
               ~expected:reference.cache_lines ~actual:ab
          |> List.rev,
          2 )
  in
  {
    label;
    evaluations;
    kill_points;
    checks = (4 * List.length kill_points) + merge_checks;
    divergences = kill_divs @ merge_divs;
  }

let passed o = o.divergences = []

let render o =
  let b = Buffer.create 512 in
  Printf.bprintf b "selfcheck %s: %d evaluations, kill points [%s]\n" o.label
    o.evaluations
    (String.concat "; " (List.map string_of_int o.kill_points));
  List.iter
    (fun d ->
      Printf.bprintf b "  DIVERGENCE at %s in %s:\n" d.stage d.part;
      List.iter (fun line -> Printf.bprintf b "    %s\n" line) d.diff)
    o.divergences;
  if passed o then
    Printf.bprintf b
      "  %d checks passed: every resume reproduced the result, cache, \
       quarantine and normalized trace byte-for-byte; cache merge is \
       order-independent\n\
      \  PASS\n"
      o.checks
  else
    Printf.bprintf b "  FAIL: %d of %d checks diverged\n"
      (List.length o.divergences)
      o.checks;
  Buffer.contents b
