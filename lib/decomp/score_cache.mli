(** Memoized cofactor vectors.

    The bound-set search reads each ISF's cofactor vector over many
    overlapping subsets: its greedy growth builds the vector of the
    candidate it commits to, every split of the next level reads it,
    and the step's cofactor matrix reads the chosen set's vectors.  A
    cache instance persists across all of them within one run and is
    keyed canonically by node ids — an ISF is the pair [(Bdd.id on,
    Bdd.id dc)] — so entries of rewritten ISFs are unreachable rather
    than stale.  {!retain} drops entries of dead ISFs to bound memory
    after the driver commits a step.  Scores are not kept here: each
    search memoizes its own, keyed by the bound set alone
    ({!Bound_select.memo}).

    A cache is bound at {!create} to the one {!Bdd.manager} of its run.
    Id keys are exact because ROBDDs are canonical within a manager
    (equal functions share one node, hence one id) and {!Bdd} never
    collects nodes, so an id is never reused for another function.  A
    kernel that garbage-collects or renumbers nodes breaks that second
    condition and must drop every cache bound to the manager when it
    does. *)

type t

val create : ?stats:Stats.t -> Bdd.manager -> t
(** An empty cache for ISFs of the given manager.  Counters and timings
    are accumulated into [stats].  Pass the run's own instance; the
    default is a fresh throwaway {!Stats.create} so an undirected cache
    never shares counters with another run. *)

val stats : t -> Stats.t

val cofactor_vector : t -> Isf.t -> int list -> Isf.t array
(** Memoized {!Isf.cofactor_vector} for an ascending bound set.  On a
    miss the vector is built by {!Isf.extend_cofactor_vector} from the
    nearest cached subset (every intermediate prefix is cached too), so
    growing searches pay one variable's worth of restricts per new
    candidate instead of a full recomputation.  [Bound_select] asks
    for each ISF's vector over [B inter supp f], not over [B], so
    candidates that differ only outside an ISF's support share that
    ISF's vector. *)

(** What the bound-set search reads for a candidate. *)
type cofactors =
  | Vector of Isf.t array  (** the vector over the bound set *)
  | Split of Isf.t array * int
      (** [Split (parent, v)]: the vector over the bound set without
          [v]; the cofactors are the halves of its entries on [v] *)

val split : t -> Isf.t -> int list -> Isf.t array Lazy.t -> int -> cofactors
(** [split t f bound parent v], for a variable [v] of the ascending
    [bound] and [parent] [f]'s vector over [bound] without [v]: the
    cached vector over [bound] when there is one (a hit), else
    [Split (Lazy.force parent, v)] (a decided lookup).  It probes once,
    for [bound] itself, and stores nothing: the search scores every
    candidate by comparing the halves of its parent's entries
    ({!Classes.refine}) and builds with {!cofactor_vector} only the
    vectors that parents come from.  A hit leaves [parent] unforced.
    Every lookup is exactly one of a hit, an extension, a fresh build
    or a decided split. *)

val retain : t -> live:Isf.t list -> unit
(** Drop every vector of an ISF outside [live].  Called by the driver
    after a committed step rewrites participant ISFs; pure memory
    hygiene — lookups of dead keys cannot collide with live ones
    because ids identify functions exactly. *)
