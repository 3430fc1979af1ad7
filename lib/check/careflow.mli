(** Semantic don't-care dataflow over LUT networks.

    A BDD-backed abstract interpretation of a {!Network.t}: a forward
    pass computes every reachable node's {e global} function over the
    primary-input variables (the local table lifted through
    {!Bdd.vector_compose} in topological order), then a per-node pass
    derives the two don't-care sets of Mishchenko & Brayton's
    network-optimization story:

    - the {b SDC set} (satisfiability don't cares): local input
      combinations of the node's fanins that no primary-input vector
      can produce — unreachable LUT table rows;
    - the {b ODC set} (observability don't cares): primary-input
      minterms where complementing the node's output changes no
      cared-for primary output, computed by re-simulating the node's
      transitive-fanout cone against a per-output miter.

    Both are computed {e relative to an external care set}: a
    specification's don't-care minterms (e.g. the dc-plane of a PLA)
    neither count as reaching a table row nor as observing a node.

    The analysis is budget-aware: the [check] callback is polled
    between nodes and may raise {!Cutoff} to truncate the run
    gracefully — everything analyzed so far is returned, with
    {!t.truncated} recording why.  This is how the pass degrades on
    big networks instead of blowing up ([Decomp.Budget] and the CLI
    both drive it through this hook).

    Precondition: the network must be structurally sound (run the
    [Net_check] structural passes first on untrusted input); behaviour
    on corrupted networks is unspecified. *)

exception Cutoff of string
(** Raised {e by the [check] callback} (never by this module's own
    code) to truncate the analysis; the payload names the exhausted
    resource. *)

type info = {
  signal : Network.signal;
  global : Bdd.t;  (** the node's function of the primary inputs *)
  code_sets : Bdd.t array;
      (** entry [c]: the care-set minterms driving the node's fanins to
          local code [c] (fanin [j] = bit [j] of [c]); [zero] exactly
          when code [c] is a satisfiability don't care *)
  observable : Bdd.t;
      (** care-set minterms where complementing the node changes some
          output inside that output's care set; the node's ODC set is
          the complement w.r.t. the care set *)
}

type t = {
  nodes : info list;  (** fully analyzed LUT nodes, topological order *)
  outputs : (string * Bdd.t) list;  (** global functions of the outputs *)
  cares : (string * Bdd.t) list;  (** resolved care set per output *)
  care_any : Bdd.t;  (** union of the output care sets *)
  analyzed : int;  (** LUT nodes with full SDC/ODC information *)
  total : int;  (** reachable LUT nodes *)
  truncated : string option;  (** [Some reason] when cut off early *)
  screened : int;
      (** nodes whose ODC re-simulation was skipped on the strength of
          a [full_observable] hint *)
}

val analyze :
  ?care_of_output:(string -> Bdd.t) ->
  ?check:(unit -> unit) ->
  ?full_observable:(Network.signal -> bool) ->
  Bdd.manager ->
  var_of_input:(string -> int) ->
  Network.t ->
  t
(** [care_of_output name] is the BDD (over the input variables) of the
    minterms the specification cares about for output [name]; the
    default cares about everything.  [check] is polled at node
    granularity and may raise {!Cutoff}.  A truncation during the
    forward pass yields an empty result (no globals are trustworthy);
    during the per-node pass, the analyzed prefix is kept.

    [full_observable s] (default: always [false]) asserts that [s]'s
    observability set is {e exactly} the whole care space, letting the
    analysis skip the fanout-cone re-simulation and use [care_any]
    directly.  The caller must have a proof (the {!Dataflow}
    observability domain provides one: a node that pointwise drives an
    output whose care set equals [care_any]); a wrong hint silently
    corrupts ODC results.  The number of skips is {!t.screened}. *)

val limiter :
  ?max_nodes:int -> ?timeout:float -> Bdd.manager -> unit -> unit -> unit
(** A ready-made [check] callback for standalone (non-[Budget]) use:
    raises {!Cutoff} once the manager has allocated [max_nodes] fresh
    BDD nodes beyond its size at limiter creation, or once [timeout]
    seconds of wall time have passed since then, read on the monotonic
    clock ({!Mono.now}).  Omitted limits are unlimited. *)

val step_limiter : max_steps:int -> unit -> unit -> unit
(** A [check] callback that raises {!Cutoff} after [max_steps] polls.
    Unlike {!limiter} it is fully deterministic — the truncation point
    depends only on the network, never on BDD allocation, wall time or
    screening — which is what the with/without-dataflow equivalence
    checks (bench, CI, tests) run the exact engine under. *)
