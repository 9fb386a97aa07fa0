type t = int array
(* Invariant: length = Flag.count and every slot is within its flag's
   domain.  Enforced by every constructor; never mutated after creation. *)

let check id v =
  if v < 0 || v >= Flag.arity id then
    invalid_arg
      (Printf.sprintf "Cv: value %d out of domain for %s" v (Flag.name id))

let make f =
  Array.map
    (fun id ->
      let v = f id in
      check id v;
      v)
    Flag.all

let o3 = make Flag.default_o3
let o2 = make Flag.default_o2
let get t id = t.(Flag.index id)

(* [make] fills slot [i] with flag [Flag.all.(i)], and [get] finds it
   there. *)
let () = assert (Array.for_all (fun id -> Flag.all.(Flag.index id) = id) Flag.all)
let slot (t : t) i = t.(i)

let set t id v =
  check id v;
  let t' = Array.copy t in
  t'.(Flag.index id) <- v;
  t'

let value_name t id = (Flag.values id).(get t id)
(* Every CV has [Flag.count] slots, so equality is one monomorphic walk;
   the linker compares each unit's CV with the first, often the same
   array. *)
let equal (a : t) b =
  a == b
  ||
  let rec from i =
    i = Flag.count || (Array.unsafe_get a i = Array.unsafe_get b i && from (i + 1))
  in
  from 0

let compare = compare

let render_flag id v =
  let value = (Flag.values id).(v) in
  match id with
  | Flag.Base_opt -> "-O" ^ value
  | _ -> Flag.name id ^ "=" ^ value

let render t =
  let differing =
    Array.to_list Flag.all
    |> List.filter_map (fun id ->
           let v = get t id in
           if id = Flag.Base_opt || v <> Flag.default_o3 id then
             Some (render_flag id v)
           else None)
  in
  String.concat " " differing

let render_full t =
  Array.to_list Flag.all
  |> List.map (fun id -> render_flag id (get t id))
  |> String.concat " "

(* Every domain has at most 10 values, so each value is one digit and
   the compact form is a fixed-width block: digits at even offsets, dots
   between them. *)
let () = assert (Array.for_all (fun id -> Flag.arity id <= 10) Flag.all)
let compact_length = (2 * Flag.count) - 1

let digit t i = Char.unsafe_chr (Char.code '0' + Array.unsafe_get t i)

let blit_compact t dst pos =
  if pos < 0 || pos > Bytes.length dst - compact_length then
    invalid_arg "Cv.blit_compact: destination too short";
  Bytes.unsafe_set dst pos (digit t 0);
  for i = 1 to Flag.count - 1 do
    Bytes.unsafe_set dst (pos + (2 * i) - 1) '.';
    Bytes.unsafe_set dst (pos + (2 * i)) (digit t i)
  done

let to_compact t =
  let b = Bytes.create compact_length in
  blit_compact t b 0;
  Bytes.unsafe_to_string b

let of_compact s =
  let parts = String.split_on_char '.' s in
  if List.length parts <> Flag.count then None
  else
    match List.map int_of_string_opt parts with
    | exception _ -> None
    | ints ->
        if List.exists (fun v -> v = None) ints then None
        else
          let values = Array.of_list (List.map Option.get ints) in
          let ok = ref true in
          Array.iteri
            (fun i id ->
              let v = values.(i) in
              if v < 0 || v >= Flag.arity id then ok := false)
            Flag.all;
          if !ok then Some values else None

type simd_pref = Width_auto | Width_128 | Width_256
type three_level = Level_low | Level_default | Level_high
type streaming = Stream_auto | Stream_always | Stream_never
type isel = Isel_default | Isel_advanced | Isel_size
type code_layout = Layout_default | Layout_hot | Layout_size

let base_opt_level t = get t Base_opt + 1
let bool_of t id = get t id = 1
let vec_enabled t = bool_of t Vec

let simd_pref t =
  match get t Simd_width with
  | 0 -> Width_auto
  | 1 -> Width_128
  | _ -> Width_256

let unroll_bound t =
  match get t Unroll with
  | 0 -> None
  | 1 -> Some 0
  | 2 -> Some 2
  | 3 -> Some 4
  | 4 -> Some 8
  | _ -> Some 16

let unroll_aggressive t = bool_of t Unroll_aggressive
let ipo t = bool_of t Ipo

let inline_factor t =
  match get t Inline_threshold with
  | 0 -> 25
  | 1 -> 50
  | 2 -> 100
  | 3 -> 200
  | _ -> 400

let ansi_alias t = bool_of t Ansi_alias

let streaming_stores t =
  match get t Streaming_stores with
  | 0 -> Stream_auto
  | 1 -> Stream_always
  | _ -> Stream_never

let prefetch_level t = get t Prefetch

let prefetch_distance t =
  match get t Prefetch_distance with
  | 0 -> None
  | 1 -> Some Level_low
  | 2 -> Some Level_default
  | _ -> Some Level_high

let fma t = bool_of t Fma
let interchange t = bool_of t Interchange
let fusion t = bool_of t Fusion
let distribution t = bool_of t Distribution

let tile_size t =
  match get t Tile with
  | 0 -> None
  | 1 -> Some 8
  | 2 -> Some 16
  | 3 -> Some 32
  | _ -> Some 64

let three_level_of = function
  | 0 -> Level_low
  | 1 -> Level_default
  | _ -> Level_high

let sched t = three_level_of (get t Sched)

let isel t =
  match get t Isel with
  | 0 -> Isel_default
  | 1 -> Isel_advanced
  | _ -> Isel_size

let regalloc_aggressive t = bool_of t Regalloc
let spill_opt t = bool_of t Spill_opt
let align_loops t = bool_of t Align_loops
let pad_arrays t = bool_of t Pad
let branch_conv t = bool_of t Branch_conv
let cmov t = bool_of t Cmov
let scalar_rep t = bool_of t Scalar_rep
let gvn t = bool_of t Gvn
let licm t = bool_of t Licm
let func_split t = bool_of t Func_split
let jump_tables t = bool_of t Jump_tables
let dep_analysis t = three_level_of (get t Dep_analysis)

let code_layout t =
  match get t Code_layout with
  | 0 -> Layout_default
  | 1 -> Layout_hot
  | _ -> Layout_size

let vector_cost t = three_level_of (get t Vector_cost)
let heap_arrays t = bool_of t Heap_arrays

(* The designated two-value view of each flag ("allowing it to have two
   values", paper 4.2.1).  Multi-valued flags binarize to their natural
   on/off reading (e.g. prefetching: default level vs disabled), not to a
   hand-picked best setting — the binarized searchers (CE, COBAYN) only
   see this reduced space. *)
let binary_alternative (id : Flag.id) =
  match id with
  | Base_opt -> 1 (* O2 *)
  | Vec -> 0 (* off *)
  | Simd_width -> 2 (* 256 *)
  | Unroll -> 4 (* 8 *)
  | Unroll_aggressive -> 1
  | Ipo -> 1
  | Inline_threshold -> 4 (* 400 *)
  | Ansi_alias -> 0
  | Streaming_stores -> 1 (* always *)
  | Prefetch -> 0 (* off *)
  | Prefetch_distance -> 1 (* near *)
  | Fma -> 0
  | Interchange -> 0
  | Fusion -> 0
  | Distribution -> 1
  | Tile -> 3 (* 32 *)
  | Sched -> 0 (* conservative *)
  | Isel -> 2 (* size *)
  | Regalloc -> 1
  | Spill_opt -> 0
  | Align_loops -> 0
  | Pad -> 1
  | Branch_conv -> 0
  | Cmov -> 0
  | Scalar_rep -> 0
  | Gvn -> 0
  | Licm -> 0
  | Func_split -> 1
  | Jump_tables -> 0
  | Dep_analysis -> 2 (* aggressive *)
  | Code_layout -> 1 (* hot *)
  | Vector_cost -> 2 (* unlimited *)
  | Heap_arrays -> 1

let of_bits bits =
  if Array.length bits <> Flag.count then
    invalid_arg "Cv.of_bits: wrong number of bits";
  make (fun id ->
      if bits.(Flag.index id) then binary_alternative id
      else Flag.default_o3 id)

let to_bits t =
  let bits = Array.make Flag.count false in
  let ok = ref true in
  Array.iter
    (fun id ->
      let v = get t id in
      if v = Flag.default_o3 id then bits.(Flag.index id) <- false
      else if v = binary_alternative id then bits.(Flag.index id) <- true
      else ok := false)
    Flag.all;
  if !ok then Some bits else None
