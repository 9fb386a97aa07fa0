(* Shared helpers for the test suites — one home for the small utilities
   every suite_*.ml used to re-invent. *)

(* Substring test (no external string library needed). *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  if n = 0 then true
  else
    let rec at i =
      if i + n > h then false
      else if String.sub haystack i n = needle then true
      else at (i + 1)
    in
    at 0

(* A fresh path in a throwaway temp directory, for tests exercising
   on-disk persistence (cache files, checkpoints, traces). *)
let temp_path prefix suffix =
  let path = Filename.temp_file ("funcytuner-" ^ prefix) suffix in
  Sys.remove path;
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

(* A v1 text cache as the text writer wrote it: 20 entries [v1-key-<k>]
   (see [summary_of_seed] in suite_backend.ml).  v1 is read but never
   written, so the tests of the v1 reader and migration read this file.
   Relative to the directory dune runs the test binaries in. *)
let v1_cache_fixture = "golden/cache-v1.txt"

(* Likewise a v2 binary cache as the v2 writer wrote it: 20 entries
   [v2-key-<k>], with [summary_of_seed k] as their summaries. *)
let v2_cache_fixture = "golden/cache-v2.bin"

(* A fresh empty directory under the system temp dir; the caller owns
   cleanup (tests that crash leave it for the OS to reap). *)
let temp_dir prefix =
  let path = Filename.temp_file ("funcytuner-" ^ prefix) ".d" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* [in_child f] runs [f] in a forked child and returns its result,
   marshalled back over a pipe; an exception in the child is re-raised in
   the parent as [Failure].  The runtime refuses [Unix.fork] in any
   process that has ever spawned a domain, so a test process that must
   keep forking runs domain-spawning work this way.  The result must be
   plain data (no closures). *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let reply =
        match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (reply : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let reply =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            ignore (Unix.waitpid [] pid))
          (fun () -> (Marshal.from_channel ic : ('a, string) result))
      in
      (match reply with Ok v -> v | Error msg -> failwith ("in child: " ^ msg))
