module Table = Ft_util.Table

type entry = { ts : float; event : Event.t }
type t = { clock : string; entries : entry list }

(* --- loading ---------------------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | line -> loop (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      loop [])

let load path =
  match read_lines path with
  | exception Sys_error msg -> Error msg
  | [] -> Error "empty trace file"
  | header :: rest -> (
      let ( let* ) = Result.bind in
      let* header_json =
        Result.map_error (fun e -> "malformed header line: " ^ e)
          (Json.of_string header)
      in
      let* () =
        match Option.bind (Json.member "trace" header_json) Json.to_str with
        | Some "funcytuner/1" -> Ok ()
        | Some other -> Error ("unsupported trace format: " ^ other)
        | None ->
            Error
              "not a funcytuner trace (missing \"trace\" header field — was \
               this exported with --trace-format chrome?)"
      in
      let clock =
        Option.value ~default:"wall"
          (Option.bind (Json.member "clock" header_json) Json.to_str)
      in
      let* () =
        match Option.bind (Json.member "events" header_json) Json.to_int with
        | Some n when n = List.length rest -> Ok ()
        | Some n ->
            Error
              (Printf.sprintf
                 "truncated trace: header declares %d events, file has %d" n
                 (List.length rest))
        | None -> Ok ()
      in
      let parse_line i line =
        let* json =
          Result.map_error
            (fun e -> Printf.sprintf "line %d: %s" (i + 2) e)
            (Json.of_string line)
        in
        let* event =
          Result.map_error
            (fun e -> Printf.sprintf "line %d: %s" (i + 2) e)
            (Event.of_json json)
        in
        let ts =
          Option.value ~default:0.0
            (Option.bind (Json.member "ts" json) Json.to_float)
        in
        Ok { ts; event }
      in
      let* entries =
        List.fold_left
          (fun acc (i, line) ->
            let* acc = acc in
            let* e = parse_line i line in
            Ok (e :: acc))
          (Ok [])
          (List.mapi (fun i l -> (i, l)) rest)
      in
      Ok { clock; entries = List.rev entries })

(* --- the sequential schedule ------------------------------------------- *)

(* A logical trace records each cache lookup as a [Cache_query].  Its
   canonical order is the [--jobs 1] order, under which the first query
   of a key misses, then builds and runs it, and every later query hits.
   Replaying that schedule lets one counting rule, {!Telemetry.count},
   serve both clocks; a wall trace has no queries and passes unchanged. *)
let sequential events =
  let seen = Hashtbl.create 256 in
  List.concat_map
    (function
      | Event.Cache_query { key } when Hashtbl.mem seen key ->
          [ Event.Cache_hit { key } ]
      | Event.Cache_query { key } ->
          Hashtbl.add seen key ();
          [
            Event.Cache_miss { key };
            Event.Build_done { key };
            Event.Run_done { key };
          ]
      | e -> [ e ])
    events

(* --- per-phase breakdown ---------------------------------------------- *)

type phase_acc = {
  mutable spans : int;
  mutable events : int;
  mutable jobs : int;
  mutable ok : int;
  mutable faults : int;
  mutable seconds : float;
}

let phase_breakdown t =
  let order = ref [] in
  let table : (string, phase_acc) Hashtbl.t = Hashtbl.create 8 in
  let acc name =
    match Hashtbl.find_opt table name with
    | Some a -> a
    | None ->
        let a =
          { spans = 0; events = 0; jobs = 0; ok = 0; faults = 0; seconds = 0.0 }
        in
        Hashtbl.add table name a;
        order := name :: !order;
        a
  in
  let stack = ref [] in
  List.iter
    (fun { ts; event } ->
      match event with
      | Event.Phase_begin { phase } ->
          let a = acc (Event.phase_name phase) in
          a.spans <- a.spans + 1;
          stack := (Event.phase_name phase, ts) :: !stack
      | Event.Phase_end { phase } -> (
          match !stack with
          | (name, t0) :: rest when name = Event.phase_name phase ->
              (acc name).seconds <- (acc name).seconds +. (ts -. t0);
              stack := rest
          | _ -> (* unbalanced span: ignore rather than fail the report *) ())
      | event -> (
          match !stack with
          | [] -> ()
          | (name, _) :: _ -> (
              let a = acc name in
              a.events <- a.events + 1;
              match event with
              | Event.Job_finished { outcome; _ } ->
                  a.jobs <- a.jobs + 1;
                  if outcome = "ok" then a.ok <- a.ok + 1
              | Event.Fault_injected _ -> a.faults <- a.faults + 1
              | _ -> ())))
    t.entries;
  List.rev_map (fun name -> (name, Hashtbl.find table name)) !order
  |> List.rev

(* --- sections --------------------------------------------------------- *)

let section buf title =
  Buffer.add_string buf "\n";
  Buffer.add_string buf title;
  Buffer.add_string buf "\n"

let render_phases buf t =
  let wall = t.clock = "wall" in
  let phases = phase_breakdown t in
  if phases <> [] then begin
    section buf "Per-phase breakdown:";
    let headers =
      [ "phase"; "spans"; "events"; "jobs"; "ok" ]
      @ if wall then [ "seconds" ] else []
    in
    let table = Table.create ~title:"" headers in
    List.iter
      (fun (name, a) ->
        Table.add_row table
          ([
             name;
             string_of_int a.spans;
             string_of_int a.events;
             string_of_int a.jobs;
             string_of_int a.ok;
           ]
          @ if wall then [ Table.fmt_f a.seconds ] else []))
      phases;
    Buffer.add_string buf (Table.render table);
    Buffer.add_char buf '\n'
  end

let render_cache buf events =
  let lookups =
    List.filter_map
      (function
        | Event.Cache_hit _ -> Some true
        | Event.Cache_miss _ -> Some false
        | _ -> None)
      events
  in
  let n = List.length lookups in
  if n > 0 then begin
    section buf "Cache hit-rate over time:";
    let buckets = min 10 n in
    let arr = Array.of_list lookups in
    for b = 0 to buckets - 1 do
      let lo = b * n / buckets and hi = ((b + 1) * n / buckets) - 1 in
      let hits = ref 0 in
      for i = lo to hi do
        if arr.(i) then incr hits
      done;
      let width = hi - lo + 1 in
      let pct = 100.0 *. float_of_int !hits /. float_of_int width in
      Buffer.add_string buf
        (Printf.sprintf "  lookups %5d-%-5d  %5.1f%%  %s\n" (lo + 1) (hi + 1)
           pct
           (Table.bar ~width:30 ~scale:100.0 pct))
    done
  end

let render_convergence buf t =
  let measurements =
    List.filter_map
      (fun e ->
        match e.event with
        | Event.Job_finished { outcome = "ok"; elapsed_s = Some s; _ } -> Some s
        | _ -> None)
      t.entries
  in
  match measurements with
  | [] -> ()
  | first :: rest ->
      section buf "Convergence (best-so-far seconds vs evaluations):";
      let best_curve =
        List.rev
          (List.fold_left
             (fun acc s ->
               match acc with
               | best :: _ -> Float.min best s :: acc
               | [] -> [ s ])
             [ first ] rest)
      in
      let arr = Array.of_list best_curve in
      let n = Array.length arr in
      let scale = arr.(0) in
      let rows = min 12 n in
      let shown = Hashtbl.create 16 in
      for r = 0 to rows - 1 do
        let i = if rows = 1 then 0 else r * (n - 1) / (rows - 1) in
        if not (Hashtbl.mem shown i) then begin
          Hashtbl.add shown i ();
          Buffer.add_string buf
            (Printf.sprintf "  %5d  %10.3f s  %s\n" (i + 1) arr.(i)
               (Table.bar ~width:40 ~scale arr.(i)))
        end
      done

let render_faults buf (c : Telemetry.snapshot) =
  let total = c.build_failures + c.crashes + c.wrong_answers + c.timeouts in
  if total > 0 || c.retries > 0 || c.quarantine_hits > 0 || c.worker_crashes > 0
  then begin
    section buf "Faults and recovery:";
    let table = Table.create ~title:"" [ "event"; "count" ] in
    List.iter
      (fun (name, count) ->
        if count > 0 then Table.add_row table [ name; string_of_int count ])
      [
        ("build failures (ICE)", c.build_failures);
        ("crashes", c.crashes);
        ("wrong answers", c.wrong_answers);
        ("timeouts", c.timeouts);
        ("worker crashes", c.worker_crashes);
        ("retries", c.retries);
        ("outlier measurements", c.outliers);
        ("quarantined", c.quarantined);
        ("quarantine hits", c.quarantine_hits);
      ];
    Buffer.add_string buf (Table.render table);
    Buffer.add_char buf '\n'
  end

let render_prune buf t =
  let kept =
    List.filter_map
      (fun e ->
        match e.event with
        | Event.Prune_kept { module_name; kept } -> Some (module_name, kept)
        | _ -> None)
      t.entries
  in
  if kept <> [] then begin
    section buf "Per-loop focused pools (top-X after pruning):";
    let shown, rest =
      if List.length kept > 40 then
        (List.filteri (fun i _ -> i < 40) kept, List.length kept - 40)
      else (kept, 0)
    in
    let table = Table.create ~title:"" [ "module"; "kept CVs" ] in
    List.iter
      (fun (m, k) -> Table.add_row table [ m; string_of_int k ])
      shown;
    Buffer.add_string buf (Table.render table);
    Buffer.add_char buf '\n';
    if rest > 0 then
      Buffer.add_string buf (Printf.sprintf "  ... and %d more modules\n" rest)
  end

(* --- server section ---------------------------------------------------- *)

(* A server trace interleaves request-lifecycle events with the engine
   events of every search it ran.  Every count here is a counter of the
   re-counted snapshot, the one the daemon's [stats] reply reads; the
   events add only what no counter holds: the tenants and rejection
   reasons seen, the recovery gauges, and the groups' shapes. *)
let render_serve buf (c : Telemetry.snapshot) events =
  if c.received + c.rejected + c.replayed > 0 then begin
    let distinct f = List.sort_uniq compare (List.filter_map f events) in
    let tenants =
      distinct (function
        | Event.Request_received { tenant; _ } -> Some tenant
        | _ -> None)
    in
    let reasons =
      distinct (function
        | Event.Request_rejected { reason; _ } -> Some reason
        | _ -> None)
    in
    (* One Server_recovered per boot; the last one carries the gauges. *)
    let recovery =
      List.fold_left
        (fun acc -> function
          | Event.Server_recovered { restarts; poisoned; _ } ->
              Some (restarts, poisoned)
          | _ -> acc)
        None events
    in
    let sizes, run_s =
      List.fold_left
        (fun ((sizes, run_s) as acc) -> function
          | Event.Group_finished { members; run_s = s; _ } ->
              (members :: sizes, run_s +. s)
          | _ -> acc)
        ([], 0.0) events
    in
    let line fmt = Printf.bprintf buf fmt in
    let pct n =
      if c.received = 0 then 0.0
      else 100.0 *. float_of_int n /. float_of_int c.received
    in
    section buf "Server requests:";
    line "  received    %d (from %d tenants)\n" c.received (List.length tenants);
    line "  admitted    %d fresh searches\n" c.admitted;
    line "  coalesced   %d (%.1f%% of received — single-flight)\n" c.coalesced
      (pct c.coalesced);
    line "  result-cache hits  %d (%.1f%%)\n" c.memoized (pct c.memoized);
    Option.iter
      (fun (restarts, poisoned) ->
        line "  recovery    %d restarts, %d requests replayed, %d poisoned specs\n"
          restarts c.replayed poisoned)
      recovery;
    if c.expired > 0 || c.cancelled > 0 then
      line "  abandoned   %d expired requests, %d cancelled groups\n" c.expired
        c.cancelled;
    if c.rejected > 0 then
      line "  rejected    %d (%s)\n" c.rejected (String.concat "; " reasons);
    if c.groups_completed > 0 then
      line "  groups run  %d (mean size %.1f, max %d; %.3f s searching)\n"
        c.groups_completed
        (float_of_int (List.fold_left ( + ) 0 sizes)
        /. float_of_int c.groups_completed)
        (List.fold_left max 0 sizes)
        run_s;
    if tenants <> [] then
      line "  tenants     %s\n" (String.concat ", " tenants)
  end

let render_counters buf (c : Telemetry.snapshot) =
  section buf "Derived engine counters:";
  Buffer.add_string buf
    (Printf.sprintf "  builds      %d\n  runs        %d\n" c.builds c.runs);
  let lookups = c.cache_hits + c.cache_misses in
  let pct =
    if lookups = 0 then 0.0
    else 100.0 *. float_of_int c.cache_hits /. float_of_int lookups
  in
  Buffer.add_string buf
    (Printf.sprintf "  cache       %d hits / %d misses (%.1f%% hit rate)\n"
       c.cache_hits c.cache_misses pct);
  List.iter
    (fun (name, seconds) ->
      Buffer.add_string buf (Printf.sprintf "  %-11s %.3f s\n" name seconds))
    c.timers

let render t =
  let buf = Buffer.create 4096 in
  let events = sequential (List.map (fun e -> e.event) t.entries) in
  let c = Telemetry.snapshot (Telemetry.of_events events) in
  let span_s =
    match (t.clock, List.rev t.entries) with
    | "wall", last :: _ -> Printf.sprintf ", %.3f s" last.ts
    | _ -> ""
  in
  Buffer.add_string buf
    (Printf.sprintf "trace: %d events, clock=%s%s\n" (List.length t.entries)
       t.clock span_s);
  render_serve buf c events;
  render_phases buf t;
  render_cache buf events;
  render_convergence buf t;
  render_faults buf c;
  render_prune buf t;
  render_counters buf c;
  Buffer.contents buf
