module Rng = Ft_util.Rng
module Flag = Ft_flags.Flag
module Cv = Ft_flags.Cv

let amplitude = 0.002

let flag_factor ~platform ~program ~region (flag : Flag.id) value =
  let key =
    Printf.sprintf "quirk:%s:%s:%s:%s=%d"
      (Ft_prog.Platform.short_name platform)
      program region (Flag.name flag) value
  in
  let rng = Rng.create (Rng.hash_string key) in
  1.0 +. ((Rng.float rng 2.0 -. 1.0) *. amplitude)

(* Pricing a CV on a region multiplies 33 per-(flag, value) factors, and
   a search prices the same few hundred regions hundreds of thousands of
   times, so each region's factors are computed once: one flat table of
   every (flag, value) multiplier, [offsets.(i) + v] being flag [i]'s
   value [v].  Seed strings and hashes are paid only there.

   The tables are process-wide and copy-on-write.  Readers take the
   current snapshot (an immutable bucket array) with one [Atomic.get] and
   never lock; a miss builds the table under [lock], re-checking first,
   and publishes a new snapshot holding it.  A table never changes once
   published, so every domain shares it.  The number of tables is the
   number of distinct (platform, program, region) triples priced — fixed
   by the suite, not by how many CVs a search evaluates.

   The product itself is recomputed on every call, in [Flag.all] order
   from 1.0, so every factor is bit-identical to the in-order product of
   {!flag_factor}; the CV is read by position in that order too. *)
let offsets, width =
  let o = Array.make Flag.count 0 and w = ref 0 in
  Array.iteri
    (fun i flag ->
      o.(i) <- !w;
      w := !w + Flag.arity flag)
    Flag.all;
  (o, !w)

type entry = {
  platform : Ft_prog.Platform.t;
  program : string;
  region : string;
  table : float array;
}

let buckets = 256
let snapshot : entry list array Atomic.t = Atomic.make (Array.make buckets [])
let lock = Mutex.create ()

let bucket ~program ~region =
  (Rng.hash_string program + (31 * Rng.hash_string region)) land (buckets - 1)

(* [[||]] when absent; a real table is never empty. *)
let rec lookup ~platform ~program ~region = function
  | [] -> [||]
  | e :: rest ->
      if
        e.platform = platform
        && String.equal e.region region
        && String.equal e.program program
      then e.table
      else lookup ~platform ~program ~region rest

let build_table ~platform ~program ~region =
  let table = Array.make width 1.0 in
  Array.iteri
    (fun i flag ->
      for v = 0 to Flag.arity flag - 1 do
        table.(offsets.(i) + v) <- flag_factor ~platform ~program ~region flag v
      done)
    Flag.all;
  table

let table ~platform ~program ~region =
  let b = bucket ~program ~region in
  let found = lookup ~platform ~program ~region (Atomic.get snapshot).(b) in
  if Array.length found > 0 then found
  else
    Mutex.protect lock (fun () ->
        let snap = Atomic.get snapshot in
        let found = lookup ~platform ~program ~region snap.(b) in
        if Array.length found > 0 then found
        else begin
          let table = build_table ~platform ~program ~region in
          let snap = Array.copy snap in
          snap.(b) <- { platform; program; region; table } :: snap.(b);
          Atomic.set snapshot snap;
          table
        end)

let product table cv =
  let f = ref 1.0 in
  for i = 0 to Flag.count - 1 do
    f :=
      !f
      *. Array.unsafe_get table
           (Array.unsafe_get offsets i + Cv.slot cv i)
  done;
  !f

let factor ~platform ~program ~region cv =
  product (table ~platform ~program ~region) cv

(* [Exec.evaluate] prices every region of a binary, and a binary's regions
   are its program's: the non-loop region, then the loops in program
   order.  So each (platform, program) also gets its regions' tables in
   that order, found once per evaluation instead of once per region.
   They are published like the tables: readers take the current list
   with one [Atomic.get]; a miss gathers the tables (each built, if need
   be, by [table]) and adds the entry under [lock], re-checking first.
   The list holds one entry per (platform, program) pair priced. *)
type regions = float array array

type program_entry = {
  p_platform : Ft_prog.Platform.t;
  p_program : Ft_prog.Program.t;
  p_tables : regions;
}

let programs : program_entry list Atomic.t = Atomic.make []

(* The suite has one program per name, but tests build their own: the
   region names must match too. *)
let same_program (a : Ft_prog.Program.t) (b : Ft_prog.Program.t) =
  a == b
  || String.equal a.Ft_prog.Program.name b.Ft_prog.Program.name
     && List.equal
          (fun (l : Ft_prog.Loop.t) (l' : Ft_prog.Loop.t) ->
            String.equal l.Ft_prog.Loop.name l'.Ft_prog.Loop.name)
          (a.Ft_prog.Program.nonloop :: a.Ft_prog.Program.loops)
          (b.Ft_prog.Program.nonloop :: b.Ft_prog.Program.loops)

(* [[||]] when absent; a program has at least its non-loop region. *)
let rec find_program ~platform program = function
  | [] -> [||]
  | e :: rest ->
      if e.p_platform = platform && same_program e.p_program program then
        e.p_tables
      else find_program ~platform program rest

let regions ~platform (program : Ft_prog.Program.t) =
  let found = find_program ~platform program (Atomic.get programs) in
  if Array.length found > 0 then found
  else
    let tables =
      Array.of_list
        (List.map
           (fun (l : Ft_prog.Loop.t) ->
             table ~platform ~program:program.Ft_prog.Program.name
               ~region:l.Ft_prog.Loop.name)
           (program.Ft_prog.Program.nonloop :: program.Ft_prog.Program.loops))
    in
    Mutex.protect lock (fun () ->
        let known = Atomic.get programs in
        let found = find_program ~platform program known in
        if Array.length found > 0 then found
        else begin
          Atomic.set programs
            ({ p_platform = platform; p_program = program; p_tables = tables }
            :: known);
          tables
        end)

let region_factor regions index cv = product regions.(index) cv
