(** Lattice-based abstract interpretation over LUT networks — the
    cheap screening tier in front of the exact engines.

    The check stack has two expensive oracles: the exact BDD dataflow
    ({!Careflow}) and the windowed SAT engine ({!Complete_dc}).  This
    module is the tier below them: a generic worklist fixpoint solver
    over {!Network.t} with pluggable lattice domains, plus the three
    shipped analyses the {!Semantics} report uses to decide where the
    expensive engines' effort is actually needed:

    - {e ternary constant propagation} (forward): 0/1/X values, seeded
      from constant nodes and optional per-input care assumptions — a
      proven constant is a sound [SEM003] fact;
    - {e functional support} (forward): an over-approximation of each
      node's primary-input support — the structural support minus
      fanins the local truth table ignores (those no cube of the
      table's prime cover mentions), the source of the
      [SUP001]/[SUP002] redundant-fanin diagnostics;
    - {e observability} (backward): an under-approximation of
      observability as the set of primary outputs a node {e pointwise}
      drives — through chains of single-fanout arcs into
      totally-sensitive table positions, a dominator-style pass over
      the fanout cone.  A node with a non-empty set is certainly
      observable at {e every} input vector.

    A deterministic bit-parallel simulation refines the forward
    domains with witnesses: a fanin code observed in simulation is
    certainly reachable, so a node whose codes are all witnessed and
    whose observability is proven can be skipped by the SAT fallback
    without losing a single finding.

    Each analysis computes every LUT's on-set cover ({!Isop.cover})
    once: the support domain reads the fanins it mentions and the
    simulation evaluates it ({!eval_cover}).

    Every fact is {e sound} (never wrong, possibly missing): the
    screening tier is a pure observer, and disabling it
    ([Semantics.analyze_report ~dataflow:false]) must not change any
    finding.

    Precondition as for {!Careflow.analyze}: structurally sound
    networks only. *)

(** {1 The generic solver} *)

type direction = Forward | Backward

type env
(** Per-network precomputation shared by every domain solved on it:
    topological ranks, LUT fanout arcs, output bindings, and the
    primary-input index space. *)

val env : Network.t -> env
(** One {!Network.iter_cone} pass. *)

val env_network : env -> Network.t

val fanout_arcs : env -> Network.signal -> Network.signal list
(** The LUT nodes reading a signal, {e with multiplicity} (one entry
    per fanin arc), in deterministic topological order. *)

val outputs_of : env -> Network.signal -> string list
(** Names of the primary outputs bound directly to this signal. *)

(** A join-semilattice domain with its transfer function.  [transfer]
    must be monotone in the looked-up facts; [join] must be the least
    upper bound (or any sound upper bound); [widen] is applied once a
    node's fact has changed more than [height_bound] times and must
    return an upper bound of both arguments that stops the ascent
    (typically the domain's top). *)
module type DOMAIN = sig
  type fact

  val name : string
  val direction : direction
  val bottom : fact
  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact

  val height_bound : int
  (** Maximum changes per node before {!widen} kicks in.  Domains
      whose height exceeds any network's diameter set it to the
      lattice height; artificial domains (tests) may set it low. *)

  val widen : fact -> fact -> fact
  (** [widen old proposed]: the accelerated fact. *)

  val transfer : env -> (Network.signal -> fact) -> Network.signal -> fact
  (** [transfer env lookup s]: recompute [s]'s fact from its
      dependencies — fanins under [Forward], fanout arcs (and output
      bindings) under [Backward]. *)
end

module Fixpoint (D : DOMAIN) : sig
  type result = {
    fact_of : Network.signal -> D.fact;
    iterations : int;  (** transfer applications until the fixpoint *)
    widenings : int;  (** nodes accelerated past the height bound *)
  }

  val run : env -> result
  (** Worklist fixpoint: every reachable node seeded in priority order
      (topological for [Forward], reverse for [Backward]), dependents
      re-queued whenever a fact grows.  Terminates on any network for
      any lawful domain: facts only ascend, and the height bound caps
      the ascent per node. *)
end

(** {1 The shipped ternary domain} *)

module Ternary : sig
  type fact = Bot | Zero | One | Any

  val domain : ?input_env:(string -> bool option) -> unit -> (module DOMAIN with type fact = fact)
  (** [input_env name] pins a primary input to a constant under the
      specification's care assumptions (e.g. a PLA input column that
      is constant across the care cubes); the default pins nothing. *)
end

(** {1 Bit-parallel simulation}

    The word-level primitives behind {!analyze}'s witness simulation,
    shared with the simulation pre-pass of {!Complete_dc}.  A word
    holds one bit per lane; lane [i] is bit [i], and only the low 62
    bits are read, so a lane mask is a positive int. *)

val all_lanes : int
(** The mask of all 62 lanes. *)

val noise : int -> int -> int
(** [noise round idx]: the lanes of a free variable in a round, a fixed
    splitmix-style hash of [(round, idx)] — no global state, the same
    bits on every run and platform. *)

val eval_cover : Isop.cube array -> int array -> int array -> int
(** [eval_cover cubes words slots]: the output word, on every lane, of
    the LUT whose on-set [cubes] covers ({!Isop.cover}) and whose
    fanin [j] reads [words.(slots.(j))] — the OR of the cubes, each the
    AND of its literals' words, with no bit set above the lanes.  This
    is the one LUT evaluator of both simulations, and each computes a
    LUT's cover once per analysis. *)

val iter_codes : int array -> int array -> (int -> int -> unit) -> unit
(** [iter_codes words slots f] calls [f code mask] once for every fanin
    code some lane takes (fanin [j] giving bit [j] of the code), with
    the non-empty mask of the lanes taking it. *)

(** {1 The bundled analysis for the screening tier} *)

type node_facts = {
  nf_signal : Network.signal;
  nf_const : bool option;
      (** ternary-proven constant value of the node, on every input
          vector permitted by the input environment *)
  nf_vacuous : int list;
      (** fanin positions the local truth table provably ignores
          (cofactor-equal) — [SUP001]: dropping them is always sound *)
  nf_contained : int list;
      (** non-vacuous fanin positions whose over-approximated support
          is contained in the union of the other fanins' supports —
          [SUP002]: reconvergent, a candidate for exact pruning *)
  nf_obs_outputs : string list;
      (** primary outputs this node pointwise drives: complementing
          the node complements each of them at {e every} input vector *)
  nf_codes_seen : int;  (** distinct fanin codes witnessed by simulation *)
  nf_all_codes : bool;
      (** every one of the [2^k] codes was witnessed — each table row
          is certainly reachable *)
  nf_both_values : bool;  (** both output values were witnessed *)
}

type t

val analyze :
  ?sim_rounds:int -> ?input_env:(string -> bool option) -> Network.t -> t
(** Run the three domains plus [sim_rounds] (default 4) rounds of
    62-lane deterministic simulation (primary input [i] draws
    [noise round i], so two runs over the same network agree bit for
    bit).  [input_env] feeds the ternary domain and pins simulated
    inputs. *)

val facts : t -> node_facts list
(** Per reachable LUT node, topological order. *)

val fact_of : t -> Network.signal -> node_facts option

val iterations : t -> int
(** Total transfer applications across the three domains (the
    [df_iterations] statistic). *)

val fact_count : t -> int
(** Number of non-trivial facts proved: constants, vacuous and
    contained fanin positions, observability proofs, and fully
    witnessed nodes (the [df_facts] statistic). *)
