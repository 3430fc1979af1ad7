(** Memoized cofactor vectors and bound-set scores.

    The bound-set search evaluates [Bound_select.score] on many
    overlapping candidates: greedy growth scores every extension of the
    current candidate, Curtis retries rescore supersets, and successive
    driver iterations revisit the same (unchanged) ISFs.  A cache
    instance persists across all of them within one run and is keyed
    canonically by node ids — an ISF is the pair [(Bdd.id on, Bdd.id
    dc)] — so entries of rewritten ISFs are unreachable rather than
    stale.  {!retain} drops entries of dead ISFs to bound memory after
    the driver commits a step.

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

val split : t -> Isf.t -> int list -> cofactors
(** [split t f bound] for a non-empty ascending [bound]: the cached
    vector when there is one (a hit), else a [Split] of the vector over
    [bound] without one variable, chosen and built as
    {!cofactor_vector} chooses and builds a parent (a decided lookup).
    It stores no vector over [bound]: the search scores every candidate
    by comparing its halves ({!Classes.refine}), and builds with
    {!cofactor_vector} only the vector of the candidate its growth
    commits to, the parent of the next level's splits.  Every lookup
    is exactly one of a hit, an extension, a fresh build or a decided
    split. *)

type score_key

val score_key :
  lut_size:int -> ?cost:Cost.t -> Isf.t list -> int list -> score_key
(** Key of a score query: the scoring mode ([lut_size] and the
    objective's {!Cost.key_of} fragment — tag plus arrival profile,
    so arrival-aware scores taken under different network states never
    collide), the sorted bound set, and the id pairs of the
    participating ISFs.  [cost] defaults to {!Cost.area}, whose
    fragment is constant. *)

val find_score : t -> score_key -> (int * int * int) option
val add_score : t -> score_key -> int * int * int -> unit

val retain : t -> live:Isf.t list -> unit
(** Drop every entry that mentions an ISF outside [live].  Called by
    the driver after a committed step rewrites participant ISFs; pure
    memory hygiene — lookups of dead keys cannot collide with live
    ones because ids identify functions exactly. *)
