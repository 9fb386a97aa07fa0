(* Child processes and scratch files.

   Every measured unit of work runs in a fork of the harness: each gets a
   fresh heap and its own peak RSS, and the forking process never holds a
   domain (fork after [Domain.spawn] is undefined), so a child may itself
   fork procpool workers, shard nodes or a daemon. *)

module Framing = Ft_framing.Framing

let rec waitpid_noeintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

type 'a child = { pid : int; reply : Unix.file_descr }

(* Fork and run [f] in the child, which ships its (closure-free) result
   back over a pipe.  The child's stdout is redirected to stderr: the
   harness's stdout carries only the final JSON line. *)
let spawn (f : unit -> 'a) : 'a child =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      Unix.dup2 Unix.stderr Unix.stdout;
      let reply =
        match f () with
        | v -> Ok v
        | exception e -> Error (Printexc.to_string e)
      in
      let code =
        match Framing.write_value w (reply : ('a, string) result) with
        | () -> 0
        | exception _ -> 3
      in
      flush_all ();
      Unix._exit code
  | pid ->
      Unix.close w;
      { pid; reply = r }

(* Wait for the child's result and reap it. *)
let collect (c : 'a child) : 'a =
  let reply : (('a, string) result, Framing.error) result = Framing.read_value c.reply in
  Unix.close c.reply;
  let status = waitpid_noeintr c.pid in
  match (reply, status) with
  | Ok (Ok v), Unix.WEXITED 0 -> v
  | Ok (Error msg), _ -> failwith ("child failed: " ^ msg)
  | _ -> failwith ("child died without a result: " ^ status_to_string status)

let in_child f = collect (spawn f)

(* Peak resident set of the calling process, in MiB ([VmHWM] is in kB). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  scan ()

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* How many runs fill [seconds] when one usually takes [run_s] on the
   reference machine ({!Calib}), at least two.  The count depends on
   nothing measured, so two commits compared on one machine take the best
   of the same number of runs however fast each is. *)
let runs ~seconds ~run_s = max 2 (Float.to_int (Float.round (seconds /. run_s)))

(* [f ~traced n] for n = 0 .. [times] - 1; with [trace], odd runs are
   traced.  Returns the untraced and the traced results, each in run
   order. *)
let repeat ~times ~trace f =
  let rec loop n untraced traced =
    if n = times then (List.rev untraced, List.rev traced)
    else if trace && n mod 2 = 1 then loop (n + 1) untraced (f ~traced:true n :: traced)
    else loop (n + 1) (f ~traced:false n :: untraced) traced
  in
  loop 0 [] []
