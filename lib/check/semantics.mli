(** Semantic lint passes ([SEM*] codes) over the {!Careflow} SDC/ODC
    dataflow, plus the care-set-aware equivalence audit.

    Where the structural [NET*] passes see only the netlist graph,
    these passes see the functions it computes — they measure exactly
    the don't cares the decomposition engine was supposed to exploit:

    - [SEM001]: a LUT table row no input vector can exercise (an
      SDC-masked table bit);
    - [SEM002]: a node whose complementation never changes a cared-for
      output (ODC covers the whole care space — functionally dead);
    - [SEM003]: a node whose global function is constant on the care
      set (a constant the structural [NET008] pass cannot see);
    - [SEM004]: two LUTs computing the same (or complementary) global
      function on the care set — the semantic duplicates the
      structural [NET007] pass misses; when the same pair is also
      mergeable in place, the finding notes the [SEM006] evidence
      instead of a second finding being emitted;
    - [SEM005]: two primary outputs provably identical on the union of
      their care sets;
    - [SEM006]: two LUTs over the same fanins whose tables differ only
      in {e free} bits (rows that are unreachable or unobservable) —
      don't cares left unexploited by fixing the free bits
      inconsistently;
    - [SEM008]: part of the network escaped even the windowed analysis
      (Info).

    [SEM007] (inequivalence inside the care set) is produced by
    {!audit} and {!audit_sat}.

    Three tiers back the passes, and one pipeline runs them for every
    caller (the deep lint, [--check=deep] and the rewrite loop of
    [Decomp.Optimize]).  The cheap tier ({!Dataflow}) always runs
    first: linear-time abstract interpretation plus deterministic
    bit-parallel simulation.  It contributes the [SUP*] findings
    directly and — unless screening is disabled — its sound facts let
    the expensive tiers skip work whose answer is already known.  The
    exact engine ({!Careflow}) computes global BDDs and full SDC/ODC
    sets but blows up on big cones.  When its budget trips, the window
    stage ({!windows}) computes windowed complete don't cares
    ({!Complete_dc}) for every node the exact engine did not reach;
    only the nodes {e no} engine covered are reported as [SEM008]
    truncation.

    Screening is a pure observer: because every screen is justified by
    a sound fact (an exactly-known observability set, or a proof the
    window could emit nothing), the findings with screening enabled
    are identical to the findings without it — only the cost differs.

    Precondition as for {!Careflow.analyze}: structurally sound
    networks only. *)

type coverage = {
  exact_nodes : int;  (** LUT nodes with full BDD SDC/ODC information *)
  windowed_nodes : int;
      (** covered by the windowed SAT fallback (including nodes the
          dataflow facts proved finding-free without a SAT call) *)
  truncated_nodes : int;  (** covered by no engine *)
  total_nodes : int;  (** reachable LUT nodes *)
  sat_calls : int;
  sat_conflicts : int;
  windows_built : int;
  dataflow_nodes : int;  (** LUT nodes the cheap tier derived facts for *)
  df_iterations : int;  (** node visits of the two sweeps *)
  df_facts : int;  (** facts derived (redundant/contained fanins,
                       observability sets, full code coverage) *)
  screened_out : int;
      (** expensive-engine work units skipped on the strength of a
          dataflow fact: exact ODC computations replaced by the
          known-full observability, plus SAT windows proved
          finding-free.  Always [0] when screening is disabled. *)
  wall_dataflow : float;  (** seconds in the cheap tier (monotonic) *)
  wall_exact : float;  (** seconds in the exact BDD engine *)
  wall_sat : float;  (** seconds in the windowed SAT fallback *)
}

type report = { findings : Diagnostic.t list; coverage : coverage }

val windows :
  ?sat_timeout:float ->
  ?dataflow:bool ->
  Network.t ->
  Dataflow.t ->
  Careflow.t ->
  Complete_dc.node_result list * Network.signal list * coverage
(** [windows net df flow] is the window stage that follows the exact
    engine's run [flow] (made with {!full_observable_hint} over [df]
    when screening is on): [(results, screened, coverage)].  When
    [flow] was truncated, every LUT it did not reach is a window
    center.  With screening on, centers are taken in unscreened-fact
    density order ({!Window.order_by_density}) and those
    {!window_screenable} proves finding-free are listed in [screened]
    without a SAT call; every other center is analyzed by
    {!Complete_dc.analyze_node} at its default depths and per-call
    conflict budget and listed in [results], decided or not.
    [sat_timeout] (default 20) caps the stage's wall-clock seconds;
    centers it leaves out, and centers wider than
    {!Complete_dc.max_code_bits}, count as [truncated_nodes].  Both
    lists are in run order.  When [flow] finished, nothing runs and both
    lists are empty.

    [coverage] accounts for all three tiers, with [wall_dataflow] and
    [wall_exact] left at [0.]: the caller timed those tiers.
    [dataflow] (default [true]) as for {!analyze_report}. *)

val analyze_report :
  ?care_of_output:(string -> Bdd.t) ->
  ?check:(unit -> unit) ->
  ?sat_timeout:float ->
  ?dataflow:bool ->
  Bdd.manager ->
  var_of_input:(string -> int) ->
  Network.t ->
  report
(** Run the cheap dataflow tier, the exact engine, then the
    {!windows} stage over whatever the exact engine did not reach.
    The window stage sees the network but not [care_of_output] (its
    don't cares are global, hence valid on any care set); it emits
    [SEM001]/[SEM002]/[SEM003] findings where a window proves them,
    and one [SEM008] when some node escaped every engine.  [check]
    budgets only the exact engine (it has typically already tripped
    when the window stage starts); [sat_timeout] caps the window
    stage's wall-clock seconds (default 20).

    [dataflow] (default [true]) gates only the {e screening} — with it
    off the cheap tier still runs and still emits its [SUP*] findings
    (so reports are comparable across modes), but the exact and SAT
    engines do all their own work, window centers run in topological
    order and [screened_out] stays [0]. *)

val full_observable_hint :
  ?care_of_output:(string -> Bdd.t) ->
  Bdd.manager ->
  Network.t ->
  Dataflow.t ->
  Network.signal ->
  bool
(** The screening predicate fed to {!Careflow.analyze}'s
    [full_observable]: [true] only for nodes whose observability set is
    {e exactly} the whole care space (the node pointwise drives an
    output whose care set equals the union of all care sets), so the
    exact engine may skip the ODC computation without changing any
    result.  {!analyze_report} and [Decomp.Optimize] pass it to their
    exact-engine runs. *)

val window_screenable : Network.t -> Dataflow.t -> Network.signal -> bool
(** [true] when the dataflow facts prove the windowed SAT analysis of
    this node would report nothing: every fanin code has a concrete
    witness (reachability total), the node pointwise drives an output
    (windowed care non-empty) and the table is non-constant.  Skipping
    such a node loses no finding and no don't care; {!windows} skips
    it so. *)

val audit :
  ?care_of_output:(string -> Bdd.t) ->
  Bdd.manager ->
  inputs:(string * int) list ->
  golden:Network.t ->
  candidate:Network.t ->
  Diagnostic.t list
(** BDD equivalence of two networks {e modulo the care set}: for every
    output, the two global functions must agree wherever the
    specification cares.  [inputs] maps every input name of either
    network to its BDD variable (the common space).  Findings are
    [SEM007] errors — one per differing output, with a counterexample
    minterm, and one per output present in only one network.  An empty
    result is a proof of equivalence modulo the don't-care set. *)

type sat_audit = {
  audit_findings : Diagnostic.t list;
  outputs_proved : int;
  outputs_refuted : int;
  outputs_unknown : int;  (** solver budget ran out ([SEM008] emitted) *)
  audit_sat_calls : int;
  audit_sat_conflicts : int;
}

val audit_sat :
  ?dc_cubes_of_output:(string -> (string * bool) list list) ->
  ?max_conflicts:int ->
  golden:Network.t ->
  candidate:Network.t ->
  string list ->
  sat_audit
(** The SAT twin of {!audit}: both networks Tseitin-encoded into one
    formula ({!Encode.of_network}), common inputs tied, one gated XOR
    miter per common output, one solver call per output.  A [Sat]
    answer is an inequivalence with the model as counterexample: the
    [SEM007] message names some minterm inside the care set where the
    two networks disagree, and when several do, which one it names
    depends on the solver's search (the encoding, the clause order),
    not on anything the caller can rely on.  [Unsat] proves the output
    equal.  [dc_cubes_of_output]
    lists input cubes (partial assignments as [(input, value)] pairs)
    the specification does not care about for that output — excluded
    from the comparison, making the audit care-set-aware like the BDD
    path.  The final argument lists the input names, fixing the
    counterexample rendering order.
    [max_conflicts] (default 100_000) budgets each output's call;
    budget exhaustion yields a per-output [SEM008] (never a wrong
    verdict). *)
