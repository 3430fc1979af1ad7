(** The cheap screening tier in front of the exact engines.

    The check stack has two expensive oracles: the exact BDD dataflow
    ({!Careflow}) and the windowed SAT engine ({!Complete_dc}).  This
    module is the tier below them: two linear sweeps over the nodes
    reachable from the outputs, in id order, whose facts the
    {!Semantics} report uses to decide where the expensive engines'
    effort is actually needed:

    - {e functional support} (forward): an over-approximation of each
      node's primary-input support — the structural support minus
      fanins the local truth table ignores (those no cube of the
      table's prime cover mentions), the source of the
      [SUP001]/[SUP002] redundant-fanin diagnostics;
    - {e observability} (backward): an under-approximation of
      observability as the set of primary outputs a node {e pointwise}
      drives — through chains of single-fanout arcs into
      totally-sensitive table positions.  A node with a non-empty set
      is certainly observable at {e every} input vector.

    Every fanin precedes its LUT on a sound network (NET003), so id
    order is topological and one forward and one backward sweep reach
    the fixpoint: each node's fact is computed once, from final facts.

    A deterministic bit-parallel simulation adds witnesses: a fanin
    code observed in simulation is certainly reachable, so a node whose
    codes are all witnessed and whose observability is proven can be
    skipped by the SAT fallback without losing a single finding.

    Each analysis computes every LUT's on-set cover ({!Isop.cover})
    once: the support sweep reads the fanins it mentions and the
    simulation evaluates it ({!eval_cover}).

    Every fact is {e sound} (never wrong, possibly missing): the
    screening tier is a pure observer, and disabling it
    ([Semantics.analyze_report ~dataflow:false]) must not change any
    finding.

    Precondition as for {!Careflow.analyze}: structurally sound
    networks only. *)

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
}

type t

val analyze : Network.t -> t
(** Run both sweeps plus 4 rounds of 62-lane deterministic simulation
    (primary input [i] draws [noise round i], so two runs over the
    same network agree bit for bit).
    @raise Invalid_argument naming NET003 when a reachable LUT has a
    fanin whose id is not below its own. *)

val facts : t -> node_facts list
(** Per reachable LUT node, topological order. *)

val fact_of : t -> Network.signal -> node_facts option

val iterations : t -> int
(** Node visits of the two sweeps, twice the reachable nodes (the
    [df_iterations] statistic). *)

val fact_count : t -> int
(** Number of non-trivial facts proved: vacuous and contained fanin
    positions, observability proofs, and fully witnessed nodes (the
    [df_facts] statistic). *)
