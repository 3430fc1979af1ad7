(** Bounded-depth windows around a node, for local SAT reasoning.

    A window is the fragment of the network the SAT-backed don't-care
    analysis ({!Complete_dc}) looks at in place of the whole circuit:
    the transitive fanout of the {e center} node to a bounded depth,
    the roots where that fanout is cut, and enough transitive fanin
    behind the roots to give the local functions context.

    The soundness story (why a window under-approximates don't cares
    and never invents one):

    - {e leaves are free}: nodes just outside the window are treated as
      unconstrained variables, so every globally possible valuation of
      the window's boundary is possible in the window — reachability is
      over-approximated, hence a row unreachable in the window is
      unreachable globally;
    - {e roots cut every path}: every path from the center to a primary
      output passes through a root (a window node with a fanout outside
      the window or driving a primary output), so a center flip that no
      root observes is globally unobservable.

    Consequently the care set computed on a window over-approximates
    the true care set, and the don't cares derived from it are safe to
    exploit. *)

type ctx
(** Per-network precomputation (fanout lists, topological ranks,
    output-driver flags) shared by every window built on it, and the
    covers of the LUTs those windows read. *)

val context : Network.t -> ctx
(** One pass over the network ({!Network.iter_cone} order).  The
    network must not be mutated while windows built from this context
    are in use.  A context lives for one analysis: the deep lint
    builds one, and the rewrite loop builds one per pass. *)

val network : ctx -> Network.t
(** The network the context was built from. *)

val cover : ctx -> Network.signal -> Isop.t
(** The prime, irredundant covers of a LUT's on-set and off-set
    ({!Isop.of_table}), computed on the first request and kept in the
    context, so every window, simulation and encoding of the analysis
    reads one cover per LUT.
    @raise Invalid_argument when the signal is not a LUT. *)

val order_by_density :
  ctx ->
  density:(Network.signal -> int) ->
  Network.signal array ->
  Network.signal array
(** A copy of the signals sorted by decreasing [density], ties broken
    by topological rank.  The windowed SAT fallback orders its centers
    by unscreened-fact density this way, so when its wall budget runs
    out, the solver time was spent where the cheap {!Dataflow} tier
    could not already decide the answer. *)

type t

val build : ctx -> center:Network.signal -> tfi_depth:int -> tfo_depth:int -> t
(** The window around [center] (which must be a LUT node): forward to
    depth [tfo_depth], roots where the fanout escapes, then backward
    from the roots (and the center) to depth [tfi_depth + tfo_depth].
    Depths are clamped to [0 ..] and may be [max_int] ("the whole
    cone" — how the tests compare against the exact BDD analysis).
    @raise Invalid_argument when [center] is not a LUT. *)

val center : t -> Network.signal

val internals : t -> Network.signal array
(** The window's LUT nodes, topologically sorted, center included. *)

val leaves : t -> Network.signal array
(** Boundary nodes treated as free variables: primary inputs and
    cut-off LUTs feeding the window (constants are {e not} leaves;
    the encoder pins them). *)

val roots : t -> Network.signal array
(** Where the miter compares the two copies.  A subset of
    {!internals}, possibly including the center itself.  Empty exactly
    when no primary output depends on the center (a structurally dead
    center). *)

val in_tfo : t -> Network.signal -> bool
(** Is this internal node in the center's transitive fanout (the part
    the miter's B-copy re-encodes)? *)
