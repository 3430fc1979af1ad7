(** Bound-set selection.

    Candidates are grown greedily from seed {e atoms}; an atom is a
    symmetry group (or a chunk of one), so that groups of symmetric
    variables tend to land inside the same bound set — the paper's use
    of symmetric sifting as the starting point of the search.  Candidate
    bound sets are scored by the number of distinct cofactor tuples
    (the joint class count before merging), lower being better. *)

val score :
  ?cache:Score_cache.t ->
  ?stats:Stats.t ->
  ?lut_size:int ->
  ?cost:Cost.t ->
  Bdd.manager ->
  Isf.t list ->
  int list ->
  int * int * int
(** Candidate quality, lexicographically smaller = better.  The bound
    set must be strictly ascending.  Each ISF [f] is cofactored over
    [B inter supp f] only, and its classes over [B] are read through
    the projection ({!Classes.refine}): fixing a variable outside
    [supp f] changes no cofactor, so the counts are those of the full
    vector over [B].  With [cache] (which must be bound to the same
    manager), cofactor vectors and whole scores are memoized (and
    scores are keyed by [lut_size] and the objective's {!Cost.key_of}
    fragment, so every scoring mode can share one cache without
    mixing); the result is identical with and without a cache.
    Counters land in the cache's stats when a cache is given, else in
    [stats] (else in a fresh throwaway).  A bound set that overlaps no
    ISF support scores worst-possible in every ordering — it reduces
    nothing, so it must never beat a genuine candidate.

    The leading component belongs to [cost] (default {!Cost.area}):
    constantly 0 under [Area] — the ordering is then exactly the
    classical pair — and the candidate's {!Cost.step_arrival} under
    [Delay].  The area pair behind it: at [lut_size <= 3] the negated
    net benefit — the total support reduction
    [sum_i (|B inter supp f_i| - r_i)] (with [r_i = ceil log2] of the
    distinct-cofactor count) minus the estimated realization cost of the
    decomposition functions ([ceil log2] of the joint class count, times
    the LUTs each function needs given [lut_size]) — then the joint
    distinct-cofactor count; at realistic LUT sizes the communication
    complexity [ncc(f, B)] comes first and the reduction breaks ties.
    @raise Invalid_argument if the bound set is not strictly
    ascending. *)

val select :
  ?cache:Score_cache.t ->
  ?cost:Cost.t ->
  ?check:(unit -> unit) ->
  Bdd.manager ->
  Config.t ->
  groups:Symmetry.group list ->
  eligible:int list ->
  Isf.t list ->
  int list option
(** Choose a bound set of size [min cfg.lut_size (|eligible| - 1)] from
    the eligible variables ([None] if fewer than 2 are eligible or no
    set of size >= 2 fits).  The returned list is ascending.  [cost]
    (default {!Cost.area}) supplies the objective every candidate is
    scored under.  [check] (default a no-op) is polled once per
    candidate scored and may raise to abandon the search — the
    {!Budget} governor polls here.  Every candidate is scored by
    deciding which halves of its cached parent vector's entries are
    equal ({!Classes.split}), with the score {!score} gives.  With
    [cache], the growth builds (and caches) one vector per ISF per
    level: that of the candidate it commits to, the parent of every
    split of the next level. *)

val select_curtis :
  ?cache:Score_cache.t ->
  ?cost:Cost.t ->
  ?check:(unit -> unit) ->
  ?extra:int ->
  Bdd.manager ->
  Config.t ->
  groups:Symmetry.group list ->
  eligible:int list ->
  Isf.t list ->
  int list option
(** A bound set one variable larger than the LUT size, offered only when
    its estimated net benefit (reduction minus sub-network realization
    cost of the decomposition functions) is positive.  Used by the driver
    as a second attempt after a LUT-sized step made no progress:
    symmetric carry/weight functions are not decomposable within small
    LUT sizes but compress perfectly with one extra bound variable. *)
