(* Tests for the serving stack, bottom-up: Framing (wire format and the
   incremental decoder), Protocol (JSON codecs, version gate), Scheduler
   (coalescing / fairness / admission as pure state), and — in
   [suite_e2e], registered only in the fork-legal test binary — a real
   daemon exercised over its socket: single-flight coalescing under
   concurrency, mid-run joins, per-tenant fairness, backpressure,
   drain semantics, and byte-identity of served results against a solo
   search. *)

module Framing = Ft_framing.Framing
module Protocol = Ft_serve.Protocol
module Scheduler = Ft_serve.Scheduler
module Runner = Ft_serve.Runner
module Server = Ft_serve.Server
module Client = Ft_serve.Client
module Journal = Ft_serve.Journal
module Supervisor = Ft_serve.Supervisor
module Json = Ft_obs.Json
module Telemetry = Ft_obs.Telemetry
module Trace = Ft_obs.Trace

let check = Alcotest.check
let checki = check Alcotest.int
let checks = check Alcotest.string
let checkb = check Alcotest.bool

(* --- framing ----------------------------------------------------------- *)

let sockpair () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (a, b)

let test_framing_roundtrip () =
  let a, b = sockpair () in
  let payloads = [ ""; "x"; String.make 70000 'q'; "{\"k\":1}" ] in
  List.iter (fun p -> Framing.write_bytes a (Bytes.of_string p)) payloads;
  List.iter
    (fun expected ->
      match Framing.read_bytes b with
      | Ok got -> checks "payload" expected (Bytes.to_string got)
      | Error e -> Alcotest.failf "read failed: %s" (Framing.error_to_string e))
    payloads;
  Unix.close a;
  (match Framing.read_bytes b with
  | Error Framing.Eof -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected clean Eof after close");
  Unix.close b

let test_framing_torn () =
  let a, b = sockpair () in
  (* a full header promising 100 bytes, then only 10, then death *)
  let header = Bytes.create 8 in
  Bytes.set_int64_be header 0 100L;
  ignore (Unix.write a header 0 8);
  ignore (Unix.write_substring a (String.make 10 'z') 0 10);
  Unix.close a;
  (match Framing.read_bytes b with
  | Error (Framing.Torn { got = 10; expected = 100; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Framing.error_to_string e)
  | Ok _ -> Alcotest.fail "torn frame read succeeded");
  Unix.close b

let test_framing_oversized () =
  let a, b = sockpair () in
  let header = Bytes.create 8 in
  Bytes.set_int64_be header 0 (Int64.of_int (10 * 1024 * 1024));
  ignore (Unix.write a header 0 8);
  (match Framing.read_bytes ~max_bytes:1024 b with
  | Error (Framing.Oversized { claimed; limit = 1024 }) ->
      checki "claimed" (10 * 1024 * 1024) claimed
  | Error e -> Alcotest.failf "wrong error: %s" (Framing.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized frame read succeeded");
  Unix.close a;
  Unix.close b

(* write_all on a nonblocking fd: a frame far larger than the kernel
   socket buffer forces EAGAIN mid-write; write_all must poll for
   writability and resume until every byte is out, never raising and
   never tearing the frame.  The reader drains concurrently from a
   forked child so the writer genuinely fills the buffer first. *)
let test_write_all_nonblocking () =
  let a, b = sockpair () in
  Unix.set_nonblock a;
  let payload =
    String.init 1_000_000 (fun i -> Char.chr (((i * 31) + (i / 251)) mod 256))
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* Child: slow reader — let the writer hit a full buffer, then
         drain and echo a digest back on exit status. *)
      (try
         Unix.close a;
         Unix.sleepf 0.05;
         (match Framing.read_bytes b with
         | Ok got when Bytes.to_string got = payload -> Unix._exit 0
         | Ok _ -> Unix._exit 1
         | Error _ -> Unix._exit 2)
       with _ -> Unix._exit 3)
  | pid ->
      Unix.close b;
      Framing.write_bytes a (Bytes.of_string payload);
      Unix.close a;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED 1 -> Alcotest.fail "payload corrupted across EAGAIN"
      | _, Unix.WEXITED c -> Alcotest.failf "reader failed (exit %d)" c
      | _, _ -> Alcotest.fail "reader killed")

(* The decoder must reassemble frames from arbitrarily fragmented reads:
   drip a 3-frame stream through a nonblocking socket one odd-sized
   chunk at a time. *)
let test_decoder_reassembly () =
  let a, b = sockpair () in
  Unix.set_nonblock b;
  let payloads = [ "alpha"; String.make 9000 'w'; "" ] in
  let buf = Buffer.create 16384 in
  List.iter
    (fun p ->
      let h = Bytes.create 8 in
      Bytes.set_int64_be h 0 (Int64.of_int (String.length p));
      Buffer.add_bytes buf h;
      Buffer.add_string buf p)
    payloads;
  let stream = Buffer.contents buf in
  let dec = Framing.Decoder.create () in
  let got = ref [] in
  let closed = ref false in
  let pos = ref 0 in
  while not !closed do
    (if !pos < String.length stream then begin
       let n = min 577 (String.length stream - !pos) in
       ignore (Unix.write_substring a stream !pos n);
       pos := !pos + n;
       if !pos >= String.length stream then Unix.close a
     end);
    let { Framing.Decoder.frames; state } = Framing.Decoder.pump dec b in
    got := !got @ List.map Bytes.to_string frames;
    match state with
    | `Open -> ()
    | `Closed -> closed := true
    | `Error e -> Alcotest.failf "decoder error: %s" (Framing.error_to_string e)
  done;
  check (Alcotest.list Alcotest.string) "frames" payloads !got;
  Unix.close b

(* --- protocol ---------------------------------------------------------- *)

let spec ?(algorithm = "cfr") ?(seed = 1) ?top_x benchmark =
  { Protocol.benchmark; platform = "bdw"; algorithm; seed; pool = 10; top_x }

let roundtrip_request r =
  match Protocol.request_of_json (Protocol.request_to_json r) with
  | Ok r' -> checkb "request roundtrip" true (r = r')
  | Error e -> Alcotest.failf "decode failed: %s" (Protocol.decode_error_to_string e)

let roundtrip_response r =
  match Protocol.response_of_json (Protocol.response_to_json r) with
  | Ok r' -> checkb "response roundtrip" true (r = r')
  | Error e -> Alcotest.failf "decode failed: %s" (Protocol.decode_error_to_string e)

let test_protocol_roundtrip () =
  List.iter roundtrip_request
    [
      Protocol.Tune
        { id = "r1"; tenant = "t0"; spec = spec "swim"; deadline_ms = None };
      Protocol.Tune
        {
          id = "r2";
          tenant = "t1";
          spec = spec ~top_x:5 ~seed:9 "lulesh";
          deadline_ms = Some 1500;
        };
      Protocol.Ping;
      Protocol.Stats;
      Protocol.Shutdown;
    ];
  List.iter roundtrip_response
    [
      Protocol.Admitted { id = "r1"; queue_depth = 3 };
      Protocol.Coalesced { id = "r2"; leader = "r1" };
      Protocol.Started { id = "r1" };
      Protocol.Progress { id = "r1"; ticks = 50 };
      Protocol.Result
        {
          id = "r1";
          fingerprint = "abc";
          origin = Protocol.Fresh;
          group_size = 4;
          speedup = 1.25;
          evaluations = 100;
          run_s = 0.5;
          text = "CFR: speedup 1.250\n  line two\n";
        };
      Protocol.Result
        {
          id = "r2";
          fingerprint = "abc";
          origin = Protocol.Coalesced_with "r1";
          group_size = 4;
          speedup = 1.25;
          evaluations = 100;
          run_s = 0.5;
          text = "t\n";
        };
      Protocol.Rejected
        { id = "r3"; reason = Protocol.Queue_full { limit = 64 } };
      Protocol.Rejected { id = "r4"; reason = Protocol.Draining };
      Protocol.Rejected
        { id = "r5"; reason = Protocol.Unsupported "unknown benchmark 'x'" };
      Protocol.Rejected { id = "r6"; reason = Protocol.Bad_version { got = 9 } };
      Protocol.Rejected { id = "r7"; reason = Protocol.Malformed "not json" };
      Protocol.Rejected { id = "r9"; reason = Protocol.Deadline_exceeded };
      Protocol.Rejected
        { id = "r10"; reason = Protocol.Poisoned { crashes = 3 } };
      Protocol.Server_error { id = "r8"; message = "boom" };
      Protocol.Pong;
      Protocol.Stats_reply [ ("received", 10); ("admitted", 2) ];
      Protocol.Bye;
    ]

let test_protocol_version_gate () =
  let wrong = Json.Obj [ ("v", Json.Int 99); ("kind", Json.String "ping") ] in
  (match Protocol.request_of_json wrong with
  | Error (Protocol.Version_mismatch { got = 99 }) -> ()
  | _ -> Alcotest.fail "v=99 not flagged as version mismatch");
  let missing = Json.Obj [ ("kind", Json.String "ping") ] in
  (match Protocol.request_of_json missing with
  | Error (Protocol.Malformed_frame _) -> ()
  | _ -> Alcotest.fail "missing v not flagged as malformed");
  (match Protocol.request_of_frame (Bytes.of_string "not json at all") with
  | Error (Protocol.Malformed_frame _) -> ()
  | _ -> Alcotest.fail "garbage frame not flagged as malformed");
  (* protocol v1 peers are still spoken to: both accepted versions pass
     the gate, and a v1 tune (no deadline_ms field) decodes *)
  let downgrade = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function "v", _ -> ("v", Json.Int 1) | kv -> kv)
             (List.filter (fun (k, _) -> k <> "deadline_ms") fields))
    | j -> j
  in
  let v1_tune =
    downgrade
      (Protocol.request_to_json
         (Protocol.Tune
            { id = "r1"; tenant = "t0"; spec = spec "swim"; deadline_ms = None }))
  in
  match Protocol.request_of_json v1_tune with
  | Ok (Protocol.Tune { id = "r1"; deadline_ms = None; _ }) -> ()
  | Ok _ -> Alcotest.fail "v1 tune decoded to something else"
  | Error e ->
      Alcotest.failf "v1 tune refused: %s" (Protocol.decode_error_to_string e)

let test_fingerprint () =
  let base = spec "swim" in
  checks "stable" (Protocol.fingerprint base) (Protocol.fingerprint (spec "swim"));
  let variants =
    [
      spec "lulesh";
      spec ~seed:2 "swim";
      spec ~algorithm:"fr" "swim";
      spec ~top_x:3 "swim";
      { base with Protocol.pool = 11 };
      { base with Protocol.platform = "snb" };
    ]
  in
  List.iter
    (fun v ->
      checkb "distinct" true
        (Protocol.fingerprint base <> Protocol.fingerprint v))
    variants

(* --- scheduler --------------------------------------------------------- *)

let member ?deadline id tenant = { Scheduler.id; tenant; deadline; payload = () }

let submit sched ?(tenant = "t") s id =
  Scheduler.submit sched ~spec:s ~fingerprint:(Protocol.fingerprint s)
    (member id tenant)

let outcome text = { Scheduler.text; speedup = 1.5; evaluations = 10 }

let test_scheduler_coalescing () =
  let sched = Scheduler.create ~max_queue:16 in
  let s = spec "swim" in
  (match submit sched s "a" with
  | Scheduler.Fresh -> ()
  | _ -> Alcotest.fail "first submit not Fresh");
  (match submit sched s "b" with
  | Scheduler.Joined { leader = "a" } -> ()
  | _ -> Alcotest.fail "second submit not Joined onto a");
  (* joining survives the group going in-flight *)
  (match Scheduler.next sched with
  | Some (_, fp) -> checks "fp" (Protocol.fingerprint s) fp
  | None -> Alcotest.fail "no group to run");
  (match submit sched s "c" with
  | Scheduler.Joined { leader = "a" } -> ()
  | _ -> Alcotest.fail "mid-run submit not Joined");
  let members =
    Scheduler.complete sched ~fingerprint:(Protocol.fingerprint s)
      (outcome "T\n")
  in
  check (Alcotest.list Alcotest.string) "submission order" [ "a"; "b"; "c" ]
    (List.map (fun m -> m.Scheduler.id) members);
  (* a resubmission is answered from the memo without queueing *)
  (match submit sched s "d" with
  | Scheduler.Memoized { text = "T\n"; _ } -> ()
  | _ -> Alcotest.fail "resubmit not Memoized");
  checkb "idle" true (Scheduler.idle sched);
  checki "queue empty" 0 (Scheduler.queue_depth sched)

let test_scheduler_admission () =
  let sched = Scheduler.create ~max_queue:2 in
  ignore (submit sched (spec "swim") "a");
  ignore (submit sched (spec "lulesh") "b");
  (match submit sched (spec "cl") "c" with
  | Scheduler.Refused (Protocol.Queue_full { limit = 2 }) -> ()
  | _ -> Alcotest.fail "third waiting request not refused");
  (* draining refuses everything, even known fingerprints *)
  Scheduler.drain sched;
  (match submit sched (spec "swim") "d" with
  | Scheduler.Refused Protocol.Draining -> ()
  | _ -> Alcotest.fail "post-drain submit not refused");
  checki "refusals hold no place" 2 (Scheduler.queue_depth sched)

let test_scheduler_fairness () =
  let sched = Scheduler.create ~max_queue:64 in
  (* tenant a floods four distinct searches, then b and c one each *)
  ignore (submit sched ~tenant:"a" (spec ~seed:1 "swim") "a1");
  ignore (submit sched ~tenant:"a" (spec ~seed:2 "swim") "a2");
  ignore (submit sched ~tenant:"a" (spec ~seed:3 "swim") "a3");
  ignore (submit sched ~tenant:"a" (spec ~seed:4 "swim") "a4");
  ignore (submit sched ~tenant:"b" (spec ~seed:1 "cl") "b1");
  ignore (submit sched ~tenant:"c" (spec ~seed:1 "amg") "c1");
  let order = ref [] in
  let rec drain_all () =
    match Scheduler.next sched with
    | None -> ()
    | Some (_, fp) ->
        let leader =
          match Scheduler.members sched ~fingerprint:fp with
          | m :: _ -> m.Scheduler.id
          | [] -> "?"
        in
        order := leader :: !order;
        ignore (Scheduler.complete sched ~fingerprint:fp (outcome "T\n"));
        drain_all ()
  in
  drain_all ();
  (* round-robin over tenants: the flooding tenant gets one slot per
     turn of the ring, so b1 and c1 run long before a's backlog clears *)
  check (Alcotest.list Alcotest.string) "round-robin order"
    [ "a1"; "b1"; "c1"; "a2"; "a3"; "a4" ]
    (List.rev !order)

let test_scheduler_drop () =
  let sched = Scheduler.create ~max_queue:8 in
  let s = spec "swim" in
  let fp = Protocol.fingerprint s in
  ignore (submit sched s "a");
  ignore (submit sched s "b");
  Scheduler.drop_member sched ~fingerprint:fp ~id:"a";
  checki "depth after drop" 1 (Scheduler.queue_depth sched);
  Scheduler.drop_member sched ~fingerprint:fp ~id:"b";
  (* last member gone while still queued: the group is cancelled *)
  checkb "idle" true (Scheduler.idle sched);
  checkb "nothing to run" true (Scheduler.next sched = None)

let test_scheduler_expire () =
  let sched = Scheduler.create ~max_queue:8 in
  let s1 = spec "swim" and s2 = spec "cl" in
  let fp1 = Protocol.fingerprint s1 and fp2 = Protocol.fingerprint s2 in
  ignore
    (Scheduler.submit sched ~spec:s1 ~fingerprint:fp1
       (member ~deadline:100.0 "a" "t"));
  ignore (Scheduler.submit sched ~spec:s1 ~fingerprint:fp1 (member "b" "t"));
  ignore
    (Scheduler.submit sched ~spec:s2 ~fingerprint:fp2
       (member ~deadline:50.0 "c" "t"));
  checkb "nothing due yet" true (Scheduler.expire sched ~now:10.0 = []);
  (* c expires while queued; its emptied group is dropped outright *)
  (match Scheduler.expire sched ~now:60.0 with
  | [ (fp, m) ] ->
      checks "expired fp" fp2 fp;
      checks "expired member" "c" m.Scheduler.id
  | l -> Alcotest.failf "expected 1 expiry, got %d" (List.length l));
  (match Scheduler.next sched with
  | Some (_, fp) -> checks "only s1 left" fp1 fp
  | None -> Alcotest.fail "s1 group vanished");
  checkb "no second group" true (Scheduler.next sched = None);
  (* a expires while its group runs; b keeps the group alive *)
  (match Scheduler.expire sched ~now:150.0 with
  | [ (fp, m) ] ->
      checks "expired fp" fp1 fp;
      checks "expired member" "a" m.Scheduler.id
  | l -> Alcotest.failf "expected 1 expiry, got %d" (List.length l));
  (match Scheduler.members sched ~fingerprint:fp1 with
  | [ m ] -> checks "survivor" "b" m.Scheduler.id
  | _ -> Alcotest.fail "running group lost its deadline-less member");
  ignore (Scheduler.complete sched ~fingerprint:fp1 (outcome "T\n"));
  checki "queue empty" 0 (Scheduler.queue_depth sched)

let test_scheduler_cancel () =
  let sched = Scheduler.create ~max_queue:8 in
  let s = spec "swim" in
  let fp = Protocol.fingerprint s in
  ignore
    (Scheduler.submit sched ~spec:s ~fingerprint:fp
       (member ~deadline:100.0 "a" "t"));
  ignore (Scheduler.next sched);
  ignore (Scheduler.expire sched ~now:200.0);
  (* the running group lost everyone: the server cancels it at its next
     tick; nobody saw a result, so nothing is memoized *)
  checkb "empty but alive" true (Scheduler.members sched ~fingerprint:fp = []);
  checkb "still running" true (not (Scheduler.idle sched));
  checkb "no stragglers" true (Scheduler.fail sched ~fingerprint:fp = []);
  checkb "gone" true (Scheduler.idle sched);
  checkb "not memoized" true (Scheduler.known sched ~fingerprint:fp = None);
  match Scheduler.submit sched ~spec:s ~fingerprint:fp (member "b" "t") with
  | Scheduler.Fresh -> ()
  | _ -> Alcotest.fail "cancelled fingerprint not rerunnable"

let test_scheduler_remember () =
  let sched = Scheduler.create ~max_queue:4 in
  let s = spec "swim" in
  let fp = Protocol.fingerprint s in
  checkb "unknown before seeding" true (Scheduler.known sched ~fingerprint:fp = None);
  Scheduler.remember sched ~fingerprint:fp (outcome "T\n");
  (match Scheduler.known sched ~fingerprint:fp with
  | Some { Scheduler.text = "T\n"; _ } -> ()
  | _ -> Alcotest.fail "seeded memo not retrievable");
  (* restart recovery seeds the memo this way: a resubmission is
     answered without queueing anything *)
  match submit sched s "a" with
  | Scheduler.Memoized { text = "T\n"; _ } -> ()
  | _ -> Alcotest.fail "seeded memo not served on submit"

(* --- journal ------------------------------------------------------------ *)

let temp_journal () =
  let path = Filename.temp_file "funcy-journal" ".j" in
  Sys.remove path;
  path

let o1 = { Scheduler.text = "RESULT one\n"; speedup = 1.25; evaluations = 12 }

let write_journal path records =
  if Sys.file_exists path then Sys.remove path;
  let j = Journal.open_ path in
  List.iter (Journal.append j) records;
  Journal.close j

let test_journal_replay () =
  let path = temp_journal () in
  let s1 = spec "swim" and s2 = spec "lulesh" in
  let fp1 = Protocol.fingerprint s1 and fp2 = Protocol.fingerprint s2 in
  write_journal path
    [
      Journal.Boot;
      Journal.Accepted
        { id = "r1"; tenant = "t0"; fingerprint = fp1; spec = s1;
          deadline = Some 123.5 };
      Journal.Started { fingerprint = fp1 };
      Journal.Completed { fingerprint = fp1; outcome = o1 };
      Journal.Accepted
        { id = "r2"; tenant = "t1"; fingerprint = fp2; spec = s2;
          deadline = None };
      Journal.Started { fingerprint = fp2 };
    ];
  let r = Journal.load path in
  checki "boots" 1 r.Journal.boots;
  (* r1 completed: answered from the memo, not owed *)
  check
    (Alcotest.list Alcotest.string)
    "pending ids" [ "r2" ]
    (List.map (fun p -> p.Journal.p_id) r.Journal.pending);
  (match r.Journal.pending with
  | [ p ] ->
      checks "pending tenant" "t1" p.Journal.p_tenant;
      checks "pending fp" fp2 p.Journal.p_fingerprint;
      checkb "pending spec" true (p.Journal.p_spec = s2)
  | _ -> Alcotest.fail "pending shape");
  (match r.Journal.memo with
  | [ (fp, o) ] ->
      checks "memo fp" fp1 fp;
      checkb "memo outcome" true (o = o1)
  | _ -> Alcotest.fail "memo shape");
  (* fp2 was in flight when the log ended: the load witnesses the death *)
  checkb "crashes" true (r.Journal.crashes = [ (fp2, 1) ]);
  checkb "nothing poisoned" true (r.Journal.poisoned = [])

let test_journal_crashes () =
  let path = temp_journal () in
  let s = spec "swim" in
  let fp = Protocol.fingerprint s in
  let accepted =
    Journal.Accepted
      { id = "r1"; tenant = "t0"; fingerprint = fp; spec = s; deadline = None }
  in
  (* three incarnations each died mid-search: two witnessed by the next
     Boot, the third by the end of the log *)
  write_journal path
    [
      Journal.Boot; accepted; Journal.Started { fingerprint = fp };
      Journal.Boot; Journal.Started { fingerprint = fp };
      Journal.Boot; Journal.Started { fingerprint = fp };
    ];
  let r = Journal.load path in
  checki "boots" 3 r.Journal.boots;
  checkb "three crashes" true (r.Journal.crashes = [ (fp, 3) ]);
  checki "still owed" 1 (List.length r.Journal.pending);
  (* quarantine is itself journaled: after Poisoned the fingerprint is
     no longer owed and replay reports it as quarantined *)
  let j = Journal.open_ path in
  Journal.append j (Journal.Poisoned { fingerprint = fp; crashes = 3 });
  Journal.close j;
  let r = Journal.load path in
  checkb "poisoned" true (r.Journal.poisoned = [ (fp, 3) ]);
  checkb "no longer pending" true (r.Journal.pending = []);
  (* a deliberate cancellation is terminal, never a crash *)
  let path2 = temp_journal () in
  write_journal path2
    [
      Journal.Boot; accepted; Journal.Started { fingerprint = fp };
      Journal.Cancelled { fingerprint = fp };
    ];
  let r2 = Journal.load path2 in
  checkb "cancel is not a crash" true (r2.Journal.crashes = []);
  checkb "cancel clears the debt" true (r2.Journal.pending = [])

(* S4: the torn-tail law, at every byte offset.  A journal truncated at
   any byte must load as exactly the longest prefix of fully committed
   records — never an exception (a torn header is the one legal
   [Corrupt]), never a misparse. *)
let journal_truncation_property =
  let s1 = spec "swim" and s2 = spec "lulesh" in
  let fp1 = Protocol.fingerprint s1 and fp2 = Protocol.fingerprint s2 in
  let records =
    [
      Journal.Boot;
      Journal.Accepted
        { id = "r1"; tenant = "t0"; fingerprint = fp1; spec = s1;
          deadline = Some 42.0 };
      Journal.Started { fingerprint = fp1 };
      Journal.Completed { fingerprint = fp1; outcome = o1 };
      Journal.Boot;
      Journal.Accepted
        { id = "r2"; tenant = "t1"; fingerprint = fp2; spec = s2;
          deadline = None };
      Journal.Started { fingerprint = fp2 };
      Journal.Poisoned { fingerprint = fp2; crashes = 3 };
      Journal.Dropped { id = "r2" };
      Journal.Cancelled { fingerprint = fp1 };
      Journal.Failed { fingerprint = fp1 };
    ]
  in
  let line_len r =
    String.length (Ft_obs.Json.to_string (Journal.record_to_json r)) + 1
  in
  let header_len = String.length Journal.format_magic + 1 in
  let full = temp_journal () in
  write_journal full records;
  let bytes = In_channel.with_open_bin full In_channel.input_all in
  let total = String.length bytes in
  (* sanity: the offset arithmetic matches what append actually wrote *)
  assert (total = header_len + List.fold_left (fun a r -> a + line_len r) 0 records);
  let records_within k =
    let rec go off acc = function
      | [] -> List.rev acc
      | r :: rest ->
          let off = off + line_len r in
          if off <= k then go off (r :: acc) rest else List.rev acc
    in
    go header_len [] records
  in
  let torn = temp_journal () in
  let clean = temp_journal () in
  let prop k =
    Out_channel.with_open_bin torn (fun oc ->
        Out_channel.output_string oc (String.sub bytes 0 k));
    if k < header_len then
      (* the magic line itself is torn: refused loudly, not misread *)
      match Journal.load torn with
      | exception Journal.Corrupt _ -> true
      | _ -> false
    else begin
      write_journal clean (records_within k);
      Journal.load torn = Journal.load clean
    end
  in
  QCheck.Test.make ~count:500
    ~name:"journal truncated at any byte loads the longest valid prefix"
    QCheck.(int_range 0 total)
    prop

(* --- durable runner ----------------------------------------------------- *)

let test_durable_state_dir_clean () =
  (* A served search keeps its checkpoint log, and the log's lock
     sidecar, only while it is in flight: once it completes the state
     directory holds nothing of it, while a failed search keeps its log. *)
  let state_dir = Test_helpers.temp_dir "durable" in
  Fun.protect ~finally:(fun () -> Test_helpers.remove_tree state_dir)
  @@ fun () ->
  let runner =
    Runner.make_durable
      ~make_engine:(fun ?cache ?quarantine ?checkpoint () ->
        Ft_engine.Engine.create ~jobs:1 ?cache ?quarantine ?checkpoint ())
      ~state_dir ~checkpoint_every:4 ()
  in
  let files_of fingerprint =
    List.filter
      (String.starts_with ~prefix:fingerprint)
      (List.sort compare (Array.to_list (Sys.readdir state_dir)))
  in
  let spec =
    { Protocol.benchmark = "swim"; platform = "bdw"; algorithm = "cfr";
      seed = 11; pool = 40; top_x = None }
  in
  let in_flight = ref [] in
  let tick () =
    match files_of "fp-done" with [] -> () | files -> in_flight := files
  in
  (match runner.Runner.run spec ~fingerprint:"fp-done" ~tick with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "search failed: %s" e);
  checki "a log and its lock while in flight" 2 (List.length !in_flight);
  check
    Alcotest.(list string)
    "nothing of a completed search is left" [] (files_of "fp-done");
  (* A zero-width CFR phase fails only after the collection phase has
     been logged. *)
  (match
     runner.Runner.run
       { spec with Protocol.top_x = Some 0 }
       ~fingerprint:"fp-failed" ~tick:ignore
   with
  | Ok _ -> Alcotest.fail "a zero-width CFR search succeeded"
  | Error _ -> ());
  checkb "a failed search keeps its log" true
    (List.mem "fp-failed.snap" (files_of "fp-failed"))

(* --- cancellation through a real engine ----------------------------------- *)

(* The server cancels a search by raising [Runner.Cancelled] from its
   tick.  On a real engine that must unwind the whole search, on every
   backend and after either kind of job: a batch job (cfr's search
   batch) or a single evaluation (cfr-adaptive's loop, past its
   40-job collection batch). *)
let test_runner_cancel ~backend ~jobs () =
  List.iter
    (fun (algorithm, cancel_at) ->
      let runner =
        Runner.make ~engine:(Ft_engine.Engine.create ~jobs ~backend ())
      in
      let ticks = ref 0 in
      let tick () =
        incr ticks;
        if !ticks = cancel_at then raise (Runner.Cancelled "fp")
      in
      match
        runner.Runner.run
          { (spec ~algorithm "swim") with Protocol.pool = 40 }
          ~fingerprint:"fp" ~tick
      with
      | Ok _ -> Alcotest.failf "%s: the cancelled search returned a result" algorithm
      | Error e -> Alcotest.failf "%s: the cancelled search failed: %s" algorithm e
      | exception Runner.Cancelled "fp" -> ())
    [ ("cfr", 50); ("cfr-adaptive", 45) ]

(* --- supervisor / client backoff laws ----------------------------------- *)

let test_supervisor_delays () =
  let c = { Supervisor.default_config with respawn_budget = 10; seed = 7 } in
  let d1 = Supervisor.delays c 10 in
  checki "length" 10 (List.length d1);
  checkb "deterministic" true (Supervisor.delays c 10 = d1);
  List.iteri
    (fun k d ->
      let base = c.Supervisor.backoff_base_s *. (2.0 ** float_of_int k) in
      checkb "capped" true (d <= c.Supervisor.backoff_cap_s +. 1e-9);
      checkb "at least half the exponential" true
        (d >= Float.min c.Supervisor.backoff_cap_s (0.5 *. base) -. 1e-9);
      checkb "at most 1.5x the exponential" true (d <= (1.5 *. base) +. 1e-9))
    d1;
  (* a different seed reshuffles the jitter, so respawning herds spread *)
  checkb "seed matters" true (Supervisor.delays { c with seed = 8 } 10 <> d1)

let test_client_backoff () =
  let d1 = Client.backoff_schedule ~seed:3 8 in
  checki "length" 8 (List.length d1);
  checkb "deterministic" true (Client.backoff_schedule ~seed:3 8 = d1);
  List.iteri
    (fun k d ->
      let base = 0.01 *. (2.0 ** float_of_int k) in
      checkb "capped" true (d <= 0.5 +. 1e-9);
      checkb "at least half the exponential" true
        (d >= Float.min 0.5 (0.5 *. base) -. 1e-9);
      checkb "at most 1.5x the exponential" true (d <= (1.5 *. base) +. 1e-9))
    d1;
  checkb "seed matters" true (Client.backoff_schedule ~seed:4 8 <> d1)

let suite =
  ( "serve",
    [
      Alcotest.test_case "framing roundtrip + clean eof" `Quick
        test_framing_roundtrip;
      Alcotest.test_case "framing torn frame" `Quick test_framing_torn;
      Alcotest.test_case "framing oversized prefix" `Quick
        test_framing_oversized;
      Alcotest.test_case "decoder reassembles split frames" `Quick
        test_decoder_reassembly;
      Alcotest.test_case "protocol json roundtrip" `Quick
        test_protocol_roundtrip;
      Alcotest.test_case "protocol version gate" `Quick
        test_protocol_version_gate;
      Alcotest.test_case "fingerprint canonicalization" `Quick
        test_fingerprint;
      Alcotest.test_case "scheduler single-flight coalescing" `Quick
        test_scheduler_coalescing;
      Alcotest.test_case "scheduler admission control" `Quick
        test_scheduler_admission;
      Alcotest.test_case "scheduler per-tenant round-robin" `Quick
        test_scheduler_fairness;
      Alcotest.test_case "scheduler drops vanished members" `Quick
        test_scheduler_drop;
      Alcotest.test_case "scheduler deadline sweep" `Quick
        test_scheduler_expire;
      Alcotest.test_case "scheduler cancels abandoned groups" `Quick
        test_scheduler_cancel;
      Alcotest.test_case "scheduler memo seeding (restart replay)" `Quick
        test_scheduler_remember;
      Alcotest.test_case "journal replay owes unfinished work" `Quick
        test_journal_replay;
      Alcotest.test_case "journal crash accounting and quarantine" `Quick
        test_journal_crashes;
      QCheck_alcotest.to_alcotest journal_truncation_property;
      Alcotest.test_case "durable runner leaves a clean state dir" `Quick
        test_durable_state_dir_clean;
      Alcotest.test_case "tick cancels a real search (domains jobs=1)" `Quick
        (test_runner_cancel ~backend:Ft_engine.Backend.Domains ~jobs:1);
      Alcotest.test_case "tick cancels a real search (domains jobs=2)" `Quick
        (test_runner_cancel ~backend:Ft_engine.Backend.Domains ~jobs:2);
      Alcotest.test_case "supervisor backoff schedule law" `Quick
        test_supervisor_delays;
      Alcotest.test_case "client connect backoff law" `Quick
        test_client_backoff;
    ] )

(* --- end-to-end daemon tests (fork-legal binary only) ------------------ *)

(* A deterministic fake runner: [ticks] engine jobs of [tick_sleep]
   seconds each, result text derived from the spec.  Slow enough that
   the e2e tests can join searches mid-run. *)
let fake_runner ?(ticks = 40) ?(tick_sleep = 0.005) () =
  {
    Runner.validate =
      (fun s ->
        if s.Protocol.benchmark = "bad" then Error "unknown benchmark 'bad'"
        else Ok ());
    run =
      (fun s ~fingerprint:_ ~tick ->
        for _ = 1 to ticks do
          Unix.sleepf tick_sleep;
          tick ()
        done;
        Ok
          {
            Scheduler.text =
              Printf.sprintf "RESULT %s seed %d\n" s.Protocol.benchmark
                s.Protocol.seed;
            speedup = 1.5;
            evaluations = ticks;
          });
  }

let with_daemon ?(max_queue = 256) runner f =
  let socket_path = Filename.temp_file "funcy-serve" ".sock" in
  Sys.remove socket_path;
  match Unix.fork () with
  | 0 ->
      (* Child: serve until drained.  Unix._exit, never Stdlib.exit —
         the child inherited the parent's channel buffers (and
         Alcotest's at_exit) and must run neither. *)
      (try
         ignore
           (Server.serve
              { (Server.default_config ~socket_path) with max_queue;
                progress_every = 10 }
              runner)
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      Fun.protect ~finally:(fun () ->
          (match Client.shutdown ~retry_for:1.0 socket_path with
          | Ok () -> ()
          | Error _ -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
          ignore (Unix.waitpid [] pid);
          try Sys.remove socket_path with Sys_error _ -> ())
      @@ fun () ->
      (match Client.ping ~retry_for:10.0 socket_path with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "daemon never came up: %s" (Client.failure_to_string e));
      f socket_path

(* Raw parallel clients: open a connection and park the request, read
   the streamed responses later.  The daemon serves all of them
   concurrently; reading sequentially afterwards does not change what
   it did. *)
let park socket_path ?(tenant = "t0") ?deadline_ms s id =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  Protocol.write_request fd (Protocol.Tune { id; tenant; spec = s; deadline_ms });
  fd

let read_terminal fd =
  let rec go events =
    match Protocol.read_response fd with
    | Error (`Framing e) ->
        Alcotest.failf "stream died: %s" (Framing.error_to_string e)
    | Error (`Decode e) ->
        Alcotest.failf "undecodable: %s" (Protocol.decode_error_to_string e)
    | Ok ((Protocol.Admitted _ | Coalesced _ | Started _ | Progress _) as ev)
      ->
        go (ev :: events)
    | Ok terminal -> (List.rev events, terminal)
  in
  let r = go [] in
  Unix.close fd;
  r

let expect_result = function
  | _, Protocol.Result p -> p
  | _, Protocol.Rejected { reason; _ } ->
      Alcotest.failf "rejected: %s" (Protocol.reject_reason_to_string reason)
  | _ -> Alcotest.fail "no result"

let test_e2e_coalescing () =
  with_daemon (fake_runner ()) @@ fun sock ->
  let s = spec "swim" in
  let n = 8 in
  let fds =
    List.init n (fun i -> park sock s (Printf.sprintf "r%d" i))
  in
  let results = List.map (fun fd -> expect_result (read_terminal fd)) fds in
  let texts = List.map (fun p -> p.Protocol.text) results in
  List.iter (fun t -> checks "identical text" (List.hd texts) t) texts;
  checki "fresh results" 1
    (List.length
       (List.filter (fun p -> p.Protocol.origin = Protocol.Fresh) results));
  checki "coalesced results" (n - 1)
    (List.length
       (List.filter
          (fun p ->
            match p.Protocol.origin with
            | Protocol.Coalesced_with _ -> true
            | _ -> false)
          results));
  List.iter (fun p -> checki "group size" n p.Protocol.group_size) results;
  (* exactly one search ran: the daemon's own counters say so *)
  match Client.stats sock with
  | Ok counters ->
      checki "admitted" 1 (List.assoc "admitted" counters);
      checki "coalesced" (n - 1) (List.assoc "coalesced" counters);
      checki "groups_completed" 1 (List.assoc "groups_completed" counters)
  | Error e -> Alcotest.failf "stats failed: %s" (Client.failure_to_string e)

let test_e2e_midrun_join () =
  with_daemon (fake_runner ~ticks:120 ~tick_sleep:0.005 ()) @@ fun sock ->
  let s = spec "swim" in
  let leader = park sock s "leader" in
  (* wait until the search is actually running *)
  let rec await_started () =
    match Protocol.read_response leader with
    | Ok (Protocol.Started _) -> ()
    | Ok (Protocol.Admitted _) -> await_started ()
    | Ok _ | Error _ -> Alcotest.fail "leader did not reach Started"
  in
  await_started ();
  (* now join the in-flight search *)
  let joiner = park sock s "joiner" in
  let jp = expect_result (read_terminal joiner) in
  (match jp.Protocol.origin with
  | Protocol.Coalesced_with "leader" -> ()
  | o -> Alcotest.failf "joiner origin %s" (Protocol.origin_to_string o));
  checki "group of two" 2 jp.Protocol.group_size;
  let lp = expect_result (read_terminal leader) in
  checkb "leader fresh" true (lp.Protocol.origin = Protocol.Fresh);
  checks "same bytes" lp.Protocol.text jp.Protocol.text

(* Flooding tenant a queues five searches before tenant b submits one;
   round-robin must complete b's long before a's backlog.  Arrival
   times are compared, so the assertion survives a slow machine: if b
   were starved its result would arrive last, making the margin ~0. *)
let test_e2e_fairness () =
  with_daemon (fake_runner ~ticks:10 ~tick_sleep:0.005 ()) @@ fun sock ->
  let flood =
    List.init 5 (fun i ->
        park sock ~tenant:"a" (spec ~seed:(i + 1) "swim")
          (Printf.sprintf "a%d" i))
  in
  let b = park sock ~tenant:"b" (spec ~seed:1 "cl") "b0" in
  ignore (expect_result (read_terminal b));
  let t_b = Unix.gettimeofday () in
  List.iter (fun fd -> ignore (expect_result (read_terminal fd))) flood;
  let t_last_a = Unix.gettimeofday () in
  checkb "b finished well before the flood cleared" true
    (t_last_a -. t_b > 0.05)

let test_e2e_rejections () =
  with_daemon ~max_queue:2 (fake_runner ~ticks:60 ~tick_sleep:0.005 ())
  @@ fun sock ->
  (* unsupported spec: typed Unsupported reject *)
  (match Client.tune ~socket_path:sock ~id:"x" ~tenant:"t" (spec "bad") with
  | Error (Client.Rejected (Protocol.Unsupported _)) -> ()
  | _ -> Alcotest.fail "invalid spec not rejected as unsupported");
  (* backpressure: two waiting requests fill the queue; a third bounces *)
  let w1 = park sock (spec ~seed:1 "swim") "w1" in
  let w2 = park sock (spec ~seed:2 "swim") "w2" in
  ignore (Unix.select [] [] [] 0.1);
  (match Client.tune ~socket_path:sock ~id:"w3" ~tenant:"t" (spec ~seed:3 "swim") with
  | Error (Client.Rejected (Protocol.Queue_full { limit = 2 })) -> ()
  | Ok _ -> Alcotest.fail "over-quota request admitted"
  | Error f -> Alcotest.failf "wrong failure: %s" (Client.failure_to_string f));
  (* raw protocol garbage: typed Malformed reject, connection survives
     server-side bookkeeping *)
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Framing.write_bytes fd (Bytes.of_string "this is not json");
  (match Protocol.read_response fd with
  | Ok (Protocol.Rejected { reason = Protocol.Malformed _; _ }) -> ()
  | _ -> Alcotest.fail "garbage frame not rejected as malformed");
  Unix.close fd;
  (* wrong protocol version: typed Bad_version reject *)
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Framing.write_bytes fd
    (Bytes.of_string (Json.to_string
       (Json.Obj [ ("v", Json.Int 9); ("kind", Json.String "ping") ])));
  (match Protocol.read_response fd with
  | Ok (Protocol.Rejected { reason = Protocol.Bad_version { got = 9 }; _ }) ->
      ()
  | _ -> Alcotest.fail "wrong version not rejected as bad_version");
  Unix.close fd;
  ignore (expect_result (read_terminal w1));
  ignore (expect_result (read_terminal w2))

let test_e2e_drain () =
  with_daemon (fake_runner ~ticks:80 ~tick_sleep:0.005 ()) @@ fun sock ->
  let running = park sock (spec ~seed:1 "swim") "r0" in
  ignore (Unix.select [] [] [] 0.1);
  (* shutdown while the search runs: acknowledged immediately ... *)
  (match Client.shutdown sock with
  | Ok () -> ()
  | Error e -> Alcotest.failf "shutdown failed: %s" (Client.failure_to_string e));
  (* ... new work is refused as draining ... *)
  (match Client.tune ~socket_path:sock ~id:"late" ~tenant:"t" (spec ~seed:2 "swim") with
  | Error (Client.Rejected Protocol.Draining) -> ()
  | Error (Client.Transport _) ->
      (* the daemon may already have exited — equally a refusal *)
      ()
  | _ -> Alcotest.fail "post-shutdown request not refused");
  (* ... and the in-flight search still completes for its client *)
  let p = expect_result (read_terminal running) in
  checks "drained result" "RESULT swim seed 1\n" p.Protocol.text

(* Like [with_daemon], but the runner (and its engine) is built only in
   the daemon child, so the parent stays domain-free and fork-legal. *)
let with_daemon_lazy make_runner f =
  let socket_path = Filename.temp_file "funcy-serve" ".sock" in
  Sys.remove socket_path;
  match Unix.fork () with
  | 0 ->
      (try
         ignore
           (Server.serve (Server.default_config ~socket_path) (make_runner ()))
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      Fun.protect ~finally:(fun () ->
          (match Client.shutdown ~retry_for:1.0 socket_path with
          | Ok () -> ()
          | Error _ -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
          ignore (Unix.waitpid [] pid);
          try Sys.remove socket_path with Sys_error _ -> ())
      @@ fun () ->
      (match Client.ping ~retry_for:30.0 socket_path with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "daemon never came up: %s" (Client.failure_to_string e));
      f socket_path

(* The serve contract: a served result is byte-identical to the same
   search run solo, and a memoized replay returns the same bytes with
   origin=cached.  Runs the real runner (engine jobs=1, fork-legal). *)
let test_e2e_byte_identity () =
  let real () = Runner.make ~engine:(Ft_engine.Engine.create ~jobs:1 ()) in
  let s =
    { Protocol.benchmark = "swim"; platform = "bdw"; algorithm = "cfr";
      seed = 42; pool = 80; top_x = None }
  in
  let served, cached =
    with_daemon_lazy real @@ fun sock ->
    let p1 =
      match Client.tune ~socket_path:sock ~id:"c1" ~tenant:"t" s with
      | Ok p -> p
      | Error e -> Alcotest.failf "tune failed: %s" (Client.failure_to_string e)
    in
    let p2 =
      match Client.tune ~socket_path:sock ~id:"c2" ~tenant:"t" s with
      | Ok p -> p
      | Error e -> Alcotest.failf "tune failed: %s" (Client.failure_to_string e)
    in
    (p1, p2)
  in
  checkb "replay cached" true (cached.Protocol.origin = Protocol.Cached);
  checks "replay bytes" served.Protocol.text cached.Protocol.text;
  (* solo reference, computed only after every fork is done *)
  let program = Option.get (Ft_suite.Suite.find "swim") in
  let platform = Ft_prog.Platform.Broadwell in
  let session =
    Funcytuner.Tuner.make_session ~pool_size:80
      ~engine:(Ft_engine.Engine.create ~jobs:1 ())
      ~platform ~program
      ~input:(Ft_suite.Suite.tuning_input platform program)
      ~seed:42 ()
  in
  let solo =
    Funcytuner.Result.render
      (Funcytuner.Tuner.run_cfr ~top_x:Funcytuner.Cfr.default_top_x session)
  in
  checks "served = solo bytes" solo served.Protocol.text

(* A small in-process loadgen burst against a fake daemon: zero errors,
   zero divergence, coalescing doing its job under zipfian skew. *)
let test_e2e_loadgen () =
  with_daemon (fake_runner ~ticks:5 ~tick_sleep:0.002 ()) @@ fun sock ->
  let config =
    {
      (Ft_serve.Loadgen.default_config ~socket_path:sock) with
      Ft_serve.Loadgen.clients = 80;
      concurrency = 20;
      benchmarks = [ "swim"; "cl"; "amg" ];
      seeds_per_benchmark = 2;
    }
  in
  let o = Ft_serve.Loadgen.run config in
  checki "all completed" 80 Ft_serve.Loadgen.(o.completed);
  checki "no errors" 0 Ft_serve.Loadgen.(o.errors);
  checki "no divergence" 0 Ft_serve.Loadgen.(o.inconsistent);
  checkb "coalescing helped" true (Ft_serve.Loadgen.(o.coalesce_rate) > 0.5)

(* --- crash recovery, deadlines, cancellation (e2e) ---------------------- *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let reap pid = snd (Unix.waitpid [] pid)

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signalled %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

let expect_killed pid =
  match reap pid with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | st -> Alcotest.failf "daemon should have been SIGKILLed, %s" (status_to_string st)

(* A daemon with a durable journal (and optionally the chaos hook),
   forked so the parent can watch it die and boot a successor on the
   same state directory. *)
let fork_state_daemon ?die_after ?trace_path ~socket_path ~state_dir runner =
  match Unix.fork () with
  | 0 ->
      (try
         let trace =
           Option.map (fun _ -> Trace.create ~clock:Trace.Wall ()) trace_path
         in
         ignore
           (Server.serve ?trace
              {
                (Server.default_config ~socket_path) with
                state_dir = Some state_dir;
                die_after_requests = die_after;
                progress_every = 10;
              }
              runner);
         match (trace, trace_path) with
         | Some trace, Some path -> Ft_obs.Export.write_jsonl ~path trace
         | _ -> ()
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid -> pid

let stop_daemon ~socket_path pid =
  (match Client.shutdown ~retry_for:5.0 socket_path with
  | Ok () -> ()
  | Error _ -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (reap pid)

(* The tentpole, end to end: the daemon journals an accepted request,
   SIGKILLs itself at the ack boundary (chaos hook), and a successor on
   the same state directory replays the debt, runs it unattended, and
   answers the re-sent id with the bytes the dead daemon owed. *)
let test_e2e_kill_restart () =
  let dir = temp_dir "funcy-recover" in
  let socket_path = Filename.concat dir "sock" in
  let state_dir = Filename.concat dir "state" in
  let runner = fake_runner ~ticks:20 ~tick_sleep:0.005 () in
  let s = spec ~seed:7 "swim" in
  let pid1 = fork_state_daemon ~die_after:1 ~socket_path ~state_dir runner in
  (match Client.tune ~retry_for:10.0 ~socket_path ~id:"k1" ~tenant:"t0" s with
  | Error (Client.Transport _) -> ()
  | Ok _ -> Alcotest.fail "chaos daemon answered instead of dying"
  | Error f -> Alcotest.failf "wrong failure: %s" (Client.failure_to_string f));
  expect_killed pid1;
  (* the journal survived the corpse and owes exactly k1 *)
  let r = Journal.load (Filename.concat state_dir "journal") in
  checki "boots" 1 r.Journal.boots;
  (match r.Journal.pending with
  | [ p ] -> checks "owed id" "k1" p.Journal.p_id
  | ps -> Alcotest.failf "expected 1 pending, got %d" (List.length ps));
  let pid2 = fork_state_daemon ~socket_path ~state_dir runner in
  Fun.protect ~finally:(fun () -> stop_daemon ~socket_path pid2) @@ fun () ->
  (match Client.tune ~retry_for:10.0 ~socket_path ~id:"k1" ~tenant:"t0" s with
  | Ok p -> checks "recovered result" "RESULT swim seed 7\n" p.Protocol.text
  | Error f -> Alcotest.failf "resend failed: %s" (Client.failure_to_string f));
  match Client.stats socket_path with
  | Ok cs ->
      checki "restarts" 1 (List.assoc "restarts" cs);
      checki "replayed" 1 (List.assoc "replayed" cs)
  | Error e -> Alcotest.failf "stats failed: %s" (Client.failure_to_string e)

(* The daemon's counters have one source: each counter of a [stats]
   reply equals the same counter re-counted from the daemon's exported
   wall trace, through a journal replay and an unparseable frame.  A
   replay counts once, as [replayed]; a frame that never parsed as a
   tune request counts only as [rejected]. *)
let test_e2e_stats_recount () =
  let dir = temp_dir "funcy-recount" in
  let socket_path = Filename.concat dir "sock" in
  let state_dir = Filename.concat dir "state" in
  let trace_path = Filename.concat dir "trace.jsonl" in
  let runner = fake_runner ~ticks:20 ~tick_sleep:0.002 () in
  let s = spec ~seed:7 "swim" in
  let pid1 = fork_state_daemon ~die_after:1 ~socket_path ~state_dir runner in
  (match Client.tune ~retry_for:10.0 ~socket_path ~id:"k1" ~tenant:"t0" s with
  | Error (Client.Transport _) -> ()
  | _ -> Alcotest.fail "chaos daemon answered instead of dying");
  expect_killed pid1;
  let pid2 = fork_state_daemon ~trace_path ~socket_path ~state_dir runner in
  let stats =
    Fun.protect ~finally:(fun () -> stop_daemon ~socket_path pid2) @@ fun () ->
    (match Client.ping ~retry_for:10.0 socket_path with
    | Ok () -> ()
    | Error e -> Alcotest.failf "daemon never came up: %s" (Client.failure_to_string e));
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket_path);
    Framing.write_bytes fd (Bytes.of_string "this is not json");
    (match Protocol.read_response fd with
    | Ok (Protocol.Rejected { reason = Protocol.Malformed _; _ }) -> ()
    | _ -> Alcotest.fail "garbage frame not rejected as malformed");
    Unix.close fd;
    (match Client.tune ~socket_path ~id:"k1" ~tenant:"t0" s with
    | Ok p -> checks "replayed result" "RESULT swim seed 7\n" p.Protocol.text
    | Error f -> Alcotest.failf "resend failed: %s" (Client.failure_to_string f));
    (match Client.tune ~socket_path ~id:"n1" ~tenant:"t1" (spec ~seed:8 "cl") with
    | Ok _ -> ()
    | Error f -> Alcotest.failf "tune failed: %s" (Client.failure_to_string f));
    match Client.stats socket_path with
    | Ok cs -> cs
    | Error e -> Alcotest.failf "stats failed: %s" (Client.failure_to_string e)
  in
  let trace =
    match Ft_obs.Report.load trace_path with
    | Ok t -> t
    | Error e -> Alcotest.failf "trace unreadable: %s" e
  in
  let recount =
    Telemetry.of_events
      (List.map (fun e -> e.Ft_obs.Report.event) trace.Ft_obs.Report.entries)
  in
  let gauges = [ "queue_depth"; "restarts"; "poisoned" ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "stats counters = the trace's re-count"
    (Telemetry.counters (Telemetry.snapshot recount))
    (List.filter (fun (k, _) -> not (List.mem k gauges)) stats);
  checki "received" 2 (List.assoc "received" stats);
  checki "replayed" 1 (List.assoc "replayed" stats);
  checki "rejected" 1 (List.assoc "rejected" stats);
  checki "restarts" 1 (List.assoc "restarts" stats);
  let report = Ft_obs.Report.render trace in
  List.iter
    (fun line ->
      checkb ("funcy report prints " ^ line) true
        (Test_helpers.contains report line))
    [
      "  received    2 (from 2 tenants)\n";
      "  recovery    1 restarts, 1 requests replayed, 0 poisoned specs\n";
    ]

(* A queued request whose deadline lapses while another search holds the
   engine gets the typed [Deadline_exceeded] answer mid-run. *)
let test_e2e_deadline () =
  with_daemon (fake_runner ~ticks:100 ~tick_sleep:0.01 ()) @@ fun sock ->
  let busy = park sock (spec ~seed:1 "swim") "busy" in
  ignore (Unix.select [] [] [] 0.1);
  let doomed = park sock ~deadline_ms:80 (spec ~seed:2 "lulesh") "doomed" in
  (match read_terminal doomed with
  | _, Protocol.Rejected { id = "doomed"; reason = Protocol.Deadline_exceeded }
    -> ()
  | _, t ->
      Alcotest.failf "expected deadline rejection, got %s"
        (match t with
        | Protocol.Result _ -> "a result"
        | Protocol.Rejected { reason; _ } ->
            Protocol.reject_reason_to_string reason
        | _ -> "another response"));
  ignore (expect_result (read_terminal busy));
  match Client.stats sock with
  | Ok cs -> checki "expired" 1 (List.assoc "expired" cs)
  | Error e -> Alcotest.failf "stats failed: %s" (Client.failure_to_string e)

(* A running search whose only subscriber expires is cancelled at the
   next evaluation boundary; the daemon stays healthy. *)
let test_e2e_cancel_expired () =
  with_daemon (fake_runner ~ticks:100 ~tick_sleep:0.005 ()) @@ fun sock ->
  let fd = park sock ~deadline_ms:100 (spec ~seed:3 "swim") "solo" in
  (match read_terminal fd with
  | _, Protocol.Rejected { reason = Protocol.Deadline_exceeded; _ } -> ()
  | _ -> Alcotest.fail "expired subscriber not answered with the deadline");
  (* the abandoned search did not wedge the daemon *)
  (match Client.tune ~socket_path:sock ~id:"after" ~tenant:"t1" (spec ~seed:4 "cl") with
  | Ok p -> checks "next result" "RESULT cl seed 4\n" p.Protocol.text
  | Error f -> Alcotest.failf "follow-up failed: %s" (Client.failure_to_string f));
  match Client.stats sock with
  | Ok cs ->
      checki "expired" 1 (List.assoc "expired" cs);
      checki "cancelled" 1 (List.assoc "cancelled" cs)
  | Error e -> Alcotest.failf "stats failed: %s" (Client.failure_to_string e)

(* Same cancellation path via disconnection: the sole subscriber's
   socket closes mid-search. *)
let test_e2e_cancel_disconnect () =
  with_daemon (fake_runner ~ticks:100 ~tick_sleep:0.005 ()) @@ fun sock ->
  let fd = park sock (spec ~seed:5 "swim") "ghost" in
  let rec await_started () =
    match Protocol.read_response fd with
    | Ok (Protocol.Started _) -> ()
    | Ok _ -> await_started ()
    | Error _ -> Alcotest.fail "ghost never reached Started"
  in
  await_started ();
  Unix.close fd;
  (match Client.tune ~socket_path:sock ~id:"after" ~tenant:"t1" (spec ~seed:6 "cl") with
  | Ok p -> checks "next result" "RESULT cl seed 6\n" p.Protocol.text
  | Error f -> Alcotest.failf "follow-up failed: %s" (Client.failure_to_string f));
  match Client.stats sock with
  | Ok cs -> checki "cancelled" 1 (List.assoc "cancelled" cs)
  | Error e -> Alcotest.failf "stats failed: %s" (Client.failure_to_string e)

(* S1: a SIGKILLed daemon leaves its socket file behind; a successor
   probes the corpse and reclaims the path — but never steals a live
   daemon's socket. *)
let test_e2e_stale_socket () =
  let dir = temp_dir "funcy-stale" in
  let socket_path = Filename.concat dir "sock" in
  let runner = fake_runner ~ticks:5 ~tick_sleep:0.002 () in
  let fork_plain () =
    match Unix.fork () with
    | 0 ->
        (try
           ignore
             (Server.serve
                { (Server.default_config ~socket_path) with progress_every = 10 }
                runner)
         with _ -> Unix._exit 1);
        Unix._exit 0
    | pid -> pid
  in
  let pid1 = fork_plain () in
  (match Client.ping ~retry_for:10.0 socket_path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "daemon 1 never up: %s" (Client.failure_to_string e));
  Unix.kill pid1 Sys.sigkill;
  expect_killed pid1;
  checkb "socket file left behind" true (Sys.file_exists socket_path);
  let pid2 = fork_plain () in
  Fun.protect ~finally:(fun () -> stop_daemon ~socket_path pid2) @@ fun () ->
  (match Client.ping ~retry_for:10.0 socket_path with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "stale socket not reclaimed: %s" (Client.failure_to_string e));
  (* a third daemon probes, finds daemon 2 alive, and refuses *)
  let pid3 = fork_plain () in
  (match reap pid3 with
  | Unix.WEXITED 1 -> ()
  | st -> Alcotest.failf "live socket stolen (%s)" (status_to_string st));
  (* ... without harming the live daemon *)
  match Client.tune ~socket_path ~id:"s1" ~tenant:"t" (spec ~seed:8 "swim") with
  | Ok p -> checks "survivor result" "RESULT swim seed 8\n" p.Protocol.text
  | Error f -> Alcotest.failf "daemon 2 damaged: %s" (Client.failure_to_string f)

(* Poison quarantine: a spec that kills the daemon every time it runs is
   condemned by journal crash accounting after 3 deaths (two of them
   unattended replay crashes) and answered with the typed rejection,
   leaving the daemon healthy for everyone else. *)
let test_e2e_poison () =
  let dir = temp_dir "funcy-poison" in
  let socket_path = Filename.concat dir "sock" in
  let state_dir = Filename.concat dir "state" in
  let base = fake_runner ~ticks:3 ~tick_sleep:0.002 () in
  let runner =
    {
      base with
      Runner.run =
        (fun s ~fingerprint ~tick ->
          if s.Protocol.benchmark = "cl" then
            Unix.kill (Unix.getpid ()) Sys.sigkill;
          base.Runner.run s ~fingerprint ~tick);
    }
  in
  let bad = spec ~seed:1 "cl" and good = spec ~seed:2 "swim" in
  (* boot 1: the poison spec is accepted, then kills the daemon *)
  let pid1 = fork_state_daemon ~socket_path ~state_dir runner in
  (match Client.tune ~retry_for:10.0 ~socket_path ~id:"p1" ~tenant:"t0" bad with
  | Error (Client.Transport _) -> ()
  | _ -> Alcotest.fail "poison spec did not kill the daemon");
  expect_killed pid1;
  (* boots 2 and 3: replay re-runs the ghost unattended and dies again *)
  expect_killed (fork_state_daemon ~socket_path ~state_dir runner);
  expect_killed (fork_state_daemon ~socket_path ~state_dir runner);
  (* boot 4: three crashes on record — quarantined, daemon survives *)
  let pid4 = fork_state_daemon ~socket_path ~state_dir runner in
  Fun.protect ~finally:(fun () -> stop_daemon ~socket_path pid4) @@ fun () ->
  (match Client.tune ~retry_for:10.0 ~socket_path ~id:"p1" ~tenant:"t0" bad with
  | Error (Client.Rejected (Protocol.Poisoned { crashes = 3 })) -> ()
  | Ok _ -> Alcotest.fail "poisoned spec served a result"
  | Error f -> Alcotest.failf "wrong answer: %s" (Client.failure_to_string f));
  (match Client.tune ~socket_path ~id:"g1" ~tenant:"t0" good with
  | Ok p -> checks "good spec unharmed" "RESULT swim seed 2\n" p.Protocol.text
  | Error f -> Alcotest.failf "good spec failed: %s" (Client.failure_to_string f));
  match Client.stats socket_path with
  | Ok cs ->
      checki "poisoned" 1 (List.assoc "poisoned" cs);
      checki "restarts" 3 (List.assoc "restarts" cs)
  | Error e -> Alcotest.failf "stats failed: %s" (Client.failure_to_string e)

(* S4b: the full oracle on a real search — supervised respawns, a kill
   at the ack boundary, a SIGKILL between evaluations (checkpoint
   resume), a crash-looping poison spec, and solo byte-equivalence. *)
let test_e2e_servecheck () =
  let scratch = temp_dir "funcy-servecheck" in
  let make_runner ~state_dir =
    Runner.make_durable
      ~make_engine:(fun ?cache ?quarantine ?checkpoint () ->
        Ft_engine.Engine.create ~jobs:1 ?cache ?quarantine ?checkpoint ())
      ~state_dir ~checkpoint_every:4 ()
  in
  let s =
    { Protocol.benchmark = "swim"; platform = "bdw"; algorithm = "cfr";
      seed = 11; pool = 40; top_x = None }
  in
  let o =
    Ft_serve.Servecheck.run ~kill_points:[ 1 ] ~mid_run_tick:9 ~scratch
      ~make_runner
      ~specs:[ ("sv-1", "t0", s) ]
      ~poison:("sv-p", "t0", { s with Protocol.benchmark = "cl"; seed = 12 })
      ()
  in
  if not (Ft_serve.Servecheck.passed o) then
    Alcotest.failf "servecheck failed:\n%s" (Ft_serve.Servecheck.render o)

let suite_e2e =
  ( "serve-e2e",
    [
      (* Forks a reader, so it lives in the fork-legal binary despite
         being a framing-layer test. *)
      Alcotest.test_case "write_all completes across EAGAIN" `Quick
        test_write_all_nonblocking;
      Alcotest.test_case "single-flight coalescing over the wire" `Quick
        test_e2e_coalescing;
      Alcotest.test_case "mid-run join of an in-flight search" `Quick
        test_e2e_midrun_join;
      Alcotest.test_case "per-tenant fairness under flooding" `Quick
        test_e2e_fairness;
      Alcotest.test_case "typed rejections (unsupported/backpressure/\
                          malformed/version)" `Quick test_e2e_rejections;
      Alcotest.test_case "graceful drain on shutdown" `Quick test_e2e_drain;
      Alcotest.test_case "served result byte-identical to solo tune" `Quick
        test_e2e_byte_identity;
      Alcotest.test_case "loadgen burst: zero errors, coalesced" `Quick
        test_e2e_loadgen;
      Alcotest.test_case "kill at ack, restart replays the journal" `Quick
        test_e2e_kill_restart;
      Alcotest.test_case "stats counters = the trace's re-count" `Quick
        test_e2e_stats_recount;
      Alcotest.test_case "queued request expires with typed rejection" `Quick
        test_e2e_deadline;
      Alcotest.test_case "expired sole subscriber cancels the search" `Quick
        test_e2e_cancel_expired;
      Alcotest.test_case "disconnected sole subscriber cancels the search"
        `Quick test_e2e_cancel_disconnect;
      Alcotest.test_case "stale socket reclaimed, live socket refused" `Quick
        test_e2e_stale_socket;
      Alcotest.test_case "crash-looping spec is quarantined" `Quick
        test_e2e_poison;
      Alcotest.test_case "kill-restart equivalence oracle (real search)"
        `Quick test_e2e_servecheck;
      Alcotest.test_case "tick cancels a real search (processes jobs=2)"
        `Quick
        (test_runner_cancel ~backend:Ft_engine.Backend.Processes ~jobs:2);
    ] )
