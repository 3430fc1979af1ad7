(** SAT-backed complete don't-care computation on windows.

    For one LUT node, the complete don't care of Mishchenko & Brayton
    combines both classic kinds: a local fanin code [c] is a don't
    care when no input vector drives the fanins to [c] (satisfiability)
    {e or} every vector that does makes the node's value invisible at
    the outputs (observability).  The exact BDD analysis ({!Careflow})
    computes this globally and pays for it on big cones; this module
    computes it on a {!Window}, simulating first and querying a CDCL
    solver ({!Solver}) only for what simulation leaves open:

    + simulate the window bit-parallel for a fixed number of rounds,
      every LUT evaluated as the OR of its on-cubes
      ({!Dataflow.eval_cover}, leaves drawing {!Dataflow.noise}): copy
      A is the window, copy B re-evaluates the center's transitive
      fanout with the center complemented, and the roots are compared.
      A code some lane takes is reachable; a code taken by a lane where
      a root differs is care — each lane is a model of the query below,
      so no query is needed for it;
    + if some code still lacks a care witness, encode the window's
      LUTs (copy A, leaves free — {!Encode.lut}, one clause per cube),
      re-encode the center's transitive fanout with the center forced
      to the complement (copy B, {!Encode.equiv_neg}), and XOR the
      copies at every window root, gating the disjunction of the XORs
      behind a selector variable.  One formula serves two query families: with
      the selector assumed {e true}, a model is a leaf assignment where
      flipping the center is observable; with it assumed {e false},
      only reachability is constrained;
    + for each open code, ask the selector-on query under the code's
      literals and, when that is unsatisfiable and no lane reached the
      code, the selector-off query.

    The pre-pass runs only with [~simulate:true]; with it off every
    code is queried, which is the reference the tests compare against.
    Both modes compute the same tables: a lane is a model of the query
    it answers, and a query is only ever asked when no lane answered it.

    Both the simulation and the encoding read each LUT through the
    prime, irredundant covers {!Window.cover} keeps in the context, so
    a LUT's covers are computed once per analysis however many windows
    contain it.

    Per {!Window}'s soundness story, the computed care set
    over-approximates the true care set (so [care]'s zeros are true
    don't cares), and [reachable]'s zeros are true satisfiability
    don't cares.  Budget exhaustion marks codes as care — never a
    wrong answer, only a weaker one. *)

type counters = {
  mutable sat_calls : int;  (** solver invocations *)
  mutable sat_conflicts : int;  (** conflicts across those calls *)
  mutable windows_built : int;
      (** windows analyzed, with or without a solver *)
}

val counters : unit -> counters
(** A fresh all-zero counter record (one per analysis run; the lint
    driver copies it into its report and {!Stats}-keeping callers
    mirror it there). *)

type node_result = {
  signal : Network.signal;
  fanins : Network.signal array;
  care : Bv.t;
      (** truth table over the fanin codes: [1] = some input vector
          reaches this code and the node's value matters there *)
  reachable : Bv.t;  (** [1] = some input vector reaches this code;
                         always [care <= reachable] pointwise *)
  decided : bool;
      (** every query was decided within budget; when [false], the
          undecided codes were conservatively marked care+reachable *)
}

val max_code_bits : int
(** Nodes with more fanins than this are not analyzed (the per-node
    query count is [2^fanins]); currently 8. *)

val analyze_node :
  ?tfi_depth:int ->
  ?tfo_depth:int ->
  ?max_conflicts:int ->
  ?simulate:bool ->
  ?check:(unit -> unit) ->
  counters:counters ->
  Window.ctx ->
  Network.signal ->
  node_result option
(** Complete don't cares of one LUT node on its window (depths default
    to 4/4; [max_conflicts] budgets {e each} solver call, default
    2000).  [simulate] (default [true]) runs the simulation pre-pass;
    the window's formula and solver are built only when some code is
    still open after it.  [None] when the node has more than
    {!max_code_bits} fanins.  [check] is polled once per window, before
    every query and inside the solver; it may raise (e.g.
    {!Careflow.Cutoff}) to abort the whole analysis, and the conflicts
    of an aborted query still count in [counters].
    @raise Invalid_argument when the signal is not a LUT. *)
