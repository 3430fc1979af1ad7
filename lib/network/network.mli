(** Boolean networks of lookup tables.

    A network is a DAG of nodes: primary inputs, constants and LUTs.
    Each LUT carries its local function as a dense truth table over its
    fanins ({!Bv.t}, fanin [k] = truth-table variable [k]).  Nodes with
    at most [k] fanins model [k]-input lookup tables; with [k = 2] the
    same structure models two-input gate networks (Figures 2 and 3 of
    the paper).

    Networks are the output format of the decomposition engine and the
    carrier for BLIF exchange, statistics and equivalence checking. *)

type t
type signal

(** {1 Construction} *)

val create : unit -> t
val add_input : t -> string -> signal
val const : t -> bool -> signal

val add_lut : t -> fanins:signal list -> tt:Bv.t -> signal
(** [tt] must have as many variables as there are fanins.  Structurally
    identical LUTs (same fanins, same table) are shared.  LUTs whose
    table is constant or a projection/complement of a single fanin are
    simplified away where possible. *)

val set_output : t -> string -> signal -> unit

(** {1 Gate helpers (2-input network construction)} *)

val not_gate : t -> signal -> signal
val and_gate : t -> signal -> signal -> signal
val or_gate : t -> signal -> signal -> signal
val xor_gate : t -> signal -> signal -> signal
val xnor_gate : t -> signal -> signal -> signal
val mux_gate : t -> sel:signal -> hi:signal -> lo:signal -> signal
(** A 3-input LUT; in 2-input gate counting it expands to 3 gates. *)

(** {1 Access} *)

val inputs : t -> (string * signal) list
val outputs : t -> (string * signal) list
val signal_equal : signal -> signal -> bool

val signal_id : signal -> int
(** Stable integer id of a node, usable as a hash key or a name seed. *)

val node_count : t -> int
(** Number of allocated nodes (including dead ones); valid signal ids
    are [0 .. node_count - 1]. *)

val signal_of_id : t -> int -> signal
(** Inverse of {!signal_id}.
    @raise Invalid_argument when the id is out of range. *)

val level : t -> signal -> int
(** LUT level of a node: 0 for inputs and constants, one above the
    deepest fanin for a LUT.  Maintained incrementally as nodes are
    added, so it is valid {e during} construction — the arrival-time
    input of delay-aware bound-set scoring.  On a finished network,
    [stats.depth] is the maximum [level] over the outputs.  Only
    meaningful on networks built through the checked constructors
    ({!Unsafe} mutations leave downstream levels stale).
    @raise Invalid_argument when the signal is out of range. *)

val view : t -> signal -> [ `Input of string | `Const of bool | `Lut of signal array * Bv.t ]
(** Raw node contents, for analyzers ({!Check} passes).  The fanin array
    is a copy; the signals in it are {e not} validated — a corrupted
    network may reference ids outside [0 .. node_count - 1]. *)

(** Deliberately unchecked mutations.  These can (and are meant to)
    corrupt a network: they exist so that the static-analysis passes of
    [Check] can be exercised on seeded faults in tests.  Never use them
    in synthesis code — all invariants maintained by the checked
    constructors (arity, range, topological order, name uniqueness,
    structural hashing) are bypassed. *)
module Unsafe : sig
  val signal : int -> signal
  (** Forge a signal from a raw id, without range validation. *)

  val set_lut : t -> signal -> fanins:signal array -> tt:Bv.t -> unit
  (** Overwrite a node in place with an arbitrary LUT. *)

  val alias_input : t -> string -> signal -> unit
  (** Append an input-list entry, allowing duplicate names. *)

  val alias_output : t -> string -> signal -> unit
  (** Append an output-list entry, allowing duplicate names. *)

  val redirect_output : t -> string -> signal -> unit
  (** Repoint a declared output at an arbitrary (unvalidated) signal. *)
end

val fanins : t -> signal -> signal list
(** Empty for inputs and constants. *)

val local_tt : t -> signal -> Bv.t option
(** The local function of a LUT node; [None] for inputs/constants. *)

val const_value : t -> signal -> bool option
(** [Some b] for constant nodes, [None] otherwise. *)

val input_name : t -> signal -> string option
(** The name of a primary-input node, [None] otherwise. *)

val lut_signals : t -> signal list
(** All LUT nodes reachable from the outputs, in topological order. *)

val iter_cone : t -> (signal -> unit) -> unit
(** Visit every node reachable from some output — inputs, constants and
    LUTs — exactly once, every fanin strictly before its fanouts.  The
    traversal backbone of the dataflow analyzers ({!Check} semantic
    passes).  Only meaningful on structurally sound networks (fanins
    in range and preceding their LUTs); run the structural [Net_check]
    passes first on untrusted input. *)

(** {1 Statistics} *)

type stats = {
  input_count : int;
  output_count : int;
  lut_count : int;  (** nodes with at least one fanin *)
  max_fanin : int;
  depth : int;  (** LUT levels on the longest input-to-output path *)
  two_input_gates : int;
      (** LUTs with exactly 2 fanins; meaningful for networks built with
          gate helpers only *)
  inverters : int;  (** single-fanin LUTs *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** {1 Semantics} *)

val eval : t -> (string -> bool) -> (string * bool) list
(** Evaluate all outputs under an assignment of the primary inputs. *)

val output_bdds : t -> Bdd.manager -> var_of_input:(string -> int) -> (string * Bdd.t) list
(** Global BDDs of the outputs, inputs mapped to BDD variables. *)

val equivalent : t -> t -> bool
(** Combinational equivalence: same input/output names, and every output
    computes the same function (checked via BDDs on a fresh manager). *)

val equivalent_to_spec :
  t -> Bdd.manager -> var_of_input:(string -> int) -> (string * Bdd.t) list -> bool
(** Check the network against specification BDDs, by output name. *)

val sweep : t -> t
(** Structural cleanup: drop LUTs not reachable from any output. *)

(** {1 Output} *)

val to_dot : t -> string
