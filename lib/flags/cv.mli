(** Compilation vectors (CVs).

    A CV is one point of the compiler optimization space: an instantiated
    value for each of the 33 flags (§2.1 of the paper).  CVs are immutable;
    [set] returns a fresh vector.  The typed accessors below are the only
    interface the simulated compiler's heuristics use, so flag semantics are
    encoded once, here. *)

type t
(** An immutable assignment of a value index to every {!Flag.id}. *)

val o3 : t
(** The paper's baseline: [-O3 -qopenmp -fp-model source]. *)

val o2 : t
(** The simulated [-O2] reference point. *)

val make : (Flag.id -> int) -> t
(** [make f] builds a CV taking value [f id] for each flag.
    @raise Invalid_argument if any value is outside the flag's domain. *)

val get : t -> Flag.id -> int
(** Raw value index of a flag. *)

val slot : t -> int -> int
(** [slot t i] is [get t Flag.all.(i)], read by position: for loops over
    every flag in {!Flag.all} order.  @raise Invalid_argument unless
    [0 <= i < Flag.count]. *)

val set : t -> Flag.id -> int -> t
(** Functional update.  @raise Invalid_argument on out-of-domain values. *)

val value_name : t -> Flag.id -> string
(** Printable value, e.g. [value_name o3 Flag.Unroll = "auto"]. *)

val equal : t -> t -> bool
(** Slot-by-slot equality, with a physical-equality fast path. *)

val compare : t -> t -> int

val render : t -> string
(** Human-readable command line showing only flags that differ from O3,
    e.g. ["-O3 -unroll=4 -qopt-streaming-stores=always"].  [render o3] is
    ["-O3"]. *)

val render_full : t -> string
(** Full command line with every flag spelled out. *)

val to_compact : t -> string
(** Compact machine-readable encoding (dot-separated value indices). *)

val compact_length : int
(** [String.length (to_compact t)] for every [t]: every flag value is one
    digit, so the encoding has a fixed width. *)

val blit_compact : t -> bytes -> int -> unit
(** [blit_compact t dst pos] writes exactly {!to_compact} into
    [dst] at [pos], as one block and without building the intermediate
    string (cache-key construction is an evaluation hot path).
    @raise Invalid_argument if [dst] has no room for {!compact_length}
    bytes at [pos]. *)

val of_compact : string -> t option
(** Inverse of {!to_compact}; [None] on malformed or out-of-domain input. *)

(** {1 Typed flag semantics} *)

type simd_pref = Width_auto | Width_128 | Width_256
type three_level = Level_low | Level_default | Level_high
type streaming = Stream_auto | Stream_always | Stream_never
type isel = Isel_default | Isel_advanced | Isel_size
type code_layout = Layout_default | Layout_hot | Layout_size

val base_opt_level : t -> int
(** 1, 2 or 3. *)

val vec_enabled : t -> bool
val simd_pref : t -> simd_pref

val unroll_bound : t -> int option
(** [None] = compiler decides; [Some n] forces an unroll bound of
    n ∈ {0 (disable), 2, 4, 8, 16}. *)

val unroll_aggressive : t -> bool
val ipo : t -> bool

val inline_factor : t -> int
(** Inliner budget in percent of default: 25, 50, 100, 200 or 400. *)

val ansi_alias : t -> bool
val streaming_stores : t -> streaming

val prefetch_level : t -> int
(** 0 (off) .. 4 (most aggressive). *)

val prefetch_distance : t -> three_level option
(** [None] = auto. *)

val fma : t -> bool
val interchange : t -> bool
val fusion : t -> bool
val distribution : t -> bool

val tile_size : t -> int option
(** [None] = no tiling, otherwise 8, 16, 32 or 64. *)

val sched : t -> three_level
(** Instruction-scheduling effort — the paper's "IO" (instruction
    reordering) knob in Table 3. *)

val isel : t -> isel
(** Instruction selection — the paper's "IS" knob in Table 3. *)

val regalloc_aggressive : t -> bool
val spill_opt : t -> bool
val align_loops : t -> bool
val pad_arrays : t -> bool
val branch_conv : t -> bool
val cmov : t -> bool
val scalar_rep : t -> bool
val gvn : t -> bool
val licm : t -> bool
val func_split : t -> bool
val jump_tables : t -> bool

val dep_analysis : t -> three_level
(** Dependence-analysis precision; [Level_high] can prove more loops
    vectorizable but may mis-speculate. *)

val code_layout : t -> code_layout
val vector_cost : t -> three_level
val heap_arrays : t -> bool

(** {1 Binarized view}

    COBAYN can only infer binary flags, and Combined Elimination operates on
    on/off switches; the paper binarizes each multi-valued ICC flag by
    allowing it exactly two values (§4.2.1).  [binary_alternative] designates
    the non-default value used for that purpose. *)

val binary_alternative : Flag.id -> int
(** The designated alternative value index (≠ the O3 default). *)

val of_bits : bool array -> t
(** [of_bits b] maps each flag to its O3 default when [b.(i)] is false and
    to its {!binary_alternative} when true.
    @raise Invalid_argument unless [Array.length b = Flag.count]. *)

val to_bits : t -> bool array option
(** Inverse of {!of_bits}; [None] if some flag holds a value that is neither
    the default nor the alternative. *)
