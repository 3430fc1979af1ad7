(** Bound-set selection.

    Candidates are grown greedily from seed {e atoms}; an atom is a
    symmetry group (or a chunk of one), so that groups of symmetric
    variables tend to land inside the same bound set — the paper's use
    of symmetric sifting as the starting point of the search.  Candidate
    bound sets are scored by the number of distinct cofactor tuples
    (the joint class count before merging), lower being better. *)

type memo
(** The scores of one ISF list under one [lut_size] and one cost,
    keyed by the bound set alone.  Within one search the list, the LUT
    size and the objective are fixed, and arrivals do not change (a
    signal's level is fixed once it exists), so the bound set is an
    exact key.  The driver's Curtis retries follow a step that added no
    LUT, so they share the memo of their attempt's main search when
    they score the same list; a list that symmetry-commit rewrote gets
    a memo of its own.  Using one memo for two lists, LUT sizes or
    objectives mixes their scores. *)

val memo : unit -> memo
(** An empty memo. *)

val memoized : memo -> (int list * (int * int * int)) list
(** Every score in the memo with its bound set, ordered by bound set. *)

val score :
  ?cache:Score_cache.t ->
  ?memo:memo ->
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
    manager), cofactor vectors are memoized; with [memo], which must
    belong to this ISF list, [lut_size] and [cost], so is the score.
    The result is identical with and without either.  Counters land in
    the cache's stats when a cache is given, else in [stats] (else in a
    fresh throwaway).  A bound set that overlaps no ISF support scores
    worst-possible in every ordering and is not memoized — it reduces
    nothing, so it must never beat a genuine candidate.

    The leading component belongs to [cost] (default {!Cost.area}):
    constantly 0 under [Area] — the ordering is then exactly the
    classical pair — and, under [Delay], the arrival of the
    decomposition functions the candidate would create, one level above
    its latest bound variable.  The area pair behind it: at
    [lut_size <= 3] the negated
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
  ?memo:memo ->
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
    scored under.  [check] (default a no-op) is polled once per growth
    level and once per finished candidate, and may raise to abandon
    the search — the {!Budget} governor polls here.  Every candidate's score lands in
    [memo] (default a fresh one), which must belong to this ISF list,
    [cfg.lut_size] and [cost]; a candidate scored twice is read from
    it.  Every candidate is scored by deciding which halves of a
    parent vector's entries are equal ({!Score_cache.split}), with the
    score {!score} gives.  Each level of the greedy growth extends one
    set, and a candidate that adds one variable to an ISF's part of it
    splits that ISF's vector over the set, built (and cached in
    [cache], default a throwaway) the first time a split needs it.
    Other candidates split on their largest added variable, from the
    cached vector over the rest. *)

val select_curtis :
  ?cache:Score_cache.t ->
  ?memo:memo ->
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
    as a second attempt after a LUT-sized step made no progress, with
    [memo] as in {!select}: symmetric carry/weight functions are not
    decomposable within small LUT sizes but compress perfectly with one
    extra bound variable. *)
