(* Harness spans: one per call into a layer (name, start, end, parent,
   spec id), kept in memory and written as JSONL when the run ends.  A
   span's self time is its duration minus the part its child spans cover;
   the harness is single-threaded, so children never overlap and that part
   is the sum of their durations. *)

module Clock = Ft_util.Clock
module Json = Ft_obs.Json

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  spec : int;  (** workload spec index, -1 when none *)
  start : float;
  stop : float;
}

type t = {
  on : bool;
  mutable next : int;
  mutable stack : (int * int) list;  (** open (id, spec), innermost first *)
  mutable closed : span list;
}

let create ~on = { on; next = 0; stack = []; closed = [] }

(* [spec] defaults to the enclosing span's. *)
let record t ?spec name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent, inherited =
      match t.stack with (p, s) :: _ -> (p, s) | [] -> (-1, -1)
    in
    let spec = Option.value spec ~default:inherited in
    t.stack <- (id, spec) :: t.stack;
    let start = Clock.now () in
    Fun.protect f ~finally:(fun () ->
        t.stack <- List.tl t.stack;
        t.closed <-
          { id; name; parent; spec; start; stop = Clock.now () } :: t.closed)
  end

let spans t = List.rev t.closed

(* Total self seconds per span name. *)
let self_times spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          ((s.stop -. s.start)
          +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)
      in
      Hashtbl.replace totals s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt totals s.name)))
    spans;
  totals

let write_jsonl path spans =
  let epoch = match spans with s :: _ -> s.start | [] -> 0.0 in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Int s.id);
                ("name", Json.String s.name);
                ("parent", Json.Int s.parent);
                ("spec", Json.Int s.spec);
                ("start_s", Json.Float (s.start -. epoch));
                ("end_s", Json.Float (s.stop -. epoch));
              ]));
      output_char oc '\n')
    spans
