(** Verified rewrite loop: turn the semantic don't-care analysis from a
    reporter into an optimizer.

    Each pass analyzes the current network (exact {!Careflow} SDC/ODC
    dataflow, with the window stage of {!Semantics} for the nodes
    the exact engine's budget cannot reach), derives rewrites
    from the facts behind the [SEM*] findings, rebuilds the network and
    {e audits the candidate against the original input} with the
    care-set-aware equivalence audit before accepting it:

    - [SEM003] constants on the care set fold to constant nodes;
    - [SEM002] dead nodes (ODC covers the care space) fold to constants;
    - [SEM004] semantic duplicates alias to one representative (with an
      inverter for complemented pairs);
    - [SEM005] identical outputs are repointed at one driver;
    - [SEM006] mergeable twins get their free table bits refilled alike,
      so structural hashing unifies them;
    - complete don't cares refill table rows to drop redundant fanins
      (the node is re-expressed with its enlarged DC set).

    A candidate that fails the audit is rejected and the pass retried
    with only the composition-safe rewrites (pure satisfiability don't
    cares and exact functional duplicates); if even that fails, the
    loop stops with the last audited network.  The result is therefore
    provably equivalent to the input on the care set — the audit is the
    safety net, not the rewrite derivation. *)

type rule =
  | Fold_constant  (** SEM003: constant on the care set *)
  | Drop_dead  (** SEM002: unobservable on the care set *)
  | Merge_duplicate  (** SEM004: alias to a semantic duplicate *)
  | Merge_outputs  (** SEM005: repoint an output at its twin's driver *)
  | Merge_twins  (** SEM006: refill free bits so twin LUTs unify *)
  | Prune_fanins  (** drop a fanin via complete-DC table refill *)

val rule_name : rule -> string

type action = { rule : rule; node : string; detail : string }
(** One applied rewrite: the node (or output) it targeted, stable-named
    as in the lint reports, and a human-readable description. *)

type outcome = {
  network : Network.t;  (** the optimized network (input when no win) *)
  passes : int;  (** rewrite passes accepted by the audit *)
  reverted : int;  (** candidate rebuilds the audit rejected *)
  actions : action list;  (** accepted rewrites, in pass order *)
  luts_before : int;
  luts_after : int;
  clbs_before : int;
  clbs_after : int;
  audit : Diagnostic.t list;
      (** findings of the final audit against the input network; empty
          means proven equivalent on the care set (always empty by
          construction — a failing candidate is never kept) *)
}

val run :
  ?care_of_output:(string -> Bdd.t) ->
  ?max_passes:int ->
  ?audit_engine:[ `Bdd | `Sat ] ->
  ?check:(unit -> unit) ->
  ?stats:Stats.t ->
  Bdd.manager ->
  Network.t ->
  outcome
(** [run m net] optimizes [net].  [care_of_output] is the
    specification's care set per output (default: care about every
    minterm); rewrites may change output functions outside it.
    [max_passes] bounds the analyze/rewrite/audit iterations (default
    4).  [audit_engine] selects the guard: [`Bdd] (default) is the
    care-set-aware BDD audit, [`Sat] the CDCL miter — stricter (it
    ignores [care_of_output] and demands full equivalence) but immune
    to BDD blow-up.

    Each pass analyzes the network the way the deep lint does
    ({!Semantics.analyze_report}): the cheap {!Dataflow} tier, the
    exact engine screened by it, then the shared window stage
    ({!Semantics.windows}) for every node the exact engine did not
    reach.  [check] is the exact engine's budget hook, polled by every
    pass (as in [--check=deep] and [mfd lint --deep]; it may raise
    {!Careflow.Cutoff}); without it each pass gets a fresh
    {!Careflow.limiter} of 4M BDD nodes or 30 s.  The window
    stage keeps its own 20 s budget.  Every screen is justified by a
    sound fact, so no rewrite the engines could justify is lost, and
    fanin pruning restricts its trials to the dataflow tier's
    redundancy candidates; the audit guards every candidate either
    way.

    [stats] gains each pass's analysis coverage through
    {!Stats.add_coverage} ([sem_nodes], [sem_truncations], [sat_calls],
    [sat_conflicts], [windows_built], [df_iterations], [df_facts],
    [screened_out]), as the decomposition driver's deep check does,
    plus the SAT audit's calls and conflicts and the fanin-pruning
    trials the dataflow facts skip ([screened_out]). *)
