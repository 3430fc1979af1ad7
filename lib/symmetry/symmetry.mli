(** Symmetries of Boolean functions and the paper's step-1 don't-care
    assignment (Scholl/Melchior/Hotz/Molitor, EDTC'97): assign don't
    cares so that the function becomes symmetric in as many variable
    pairs as possible.

    Two flavours of pairwise symmetry are treated, following
    Edwards & Hurst:

    - {e nonequivalence} (classical) symmetry in [(x_i, x_j)]:
      [f] is invariant under exchanging the two variables
      ([f_{01} = f_{10}]);
    - {e equivalence} symmetry: [f] is invariant under exchanging and
      complementing both ([f_{00} = f_{11}]).

    Both are instances of exchanging literals with a relative phase
    [rel]: [rel = false] is nonequivalence, [rel = true] equivalence.

    A {e group} is a set of variables, each with a phase relative to the
    group, such that the function is invariant under exchanging any two
    members (with the xor of their phases as relative phase).  Strict
    decomposition functions preserve these symmetries, which is why the
    paper maximizes them before choosing bound sets. *)

type group = (int * bool) list
(** Variables with their phases; a singleton group is phase-[false]. *)

val group_vars : group -> int list

(** {1 Detection on completely specified functions} *)

val symmetric_pair : Bdd.manager -> Bdd.t list -> rel:bool -> int -> int -> bool
(** Is every function of the vector invariant under exchanging the two
    variables with relative phase [rel]? *)

val partition :
  ?budget:int ->
  ?check:(unit -> unit) ->
  Bdd.manager ->
  Bdd.t list ->
  int list ->
  group list
(** Partition the given variables into maximal symmetry groups of the
    (multi-output) function vector, considering both phases.  Groups are
    disjoint and cover the input list; the order of the result follows
    the first occurrence of each group.  [check] as in {!maximize}. *)

(** {1 Symmetrization of incompletely specified functions} *)

val swap_rel : Bdd.manager -> Bdd.t -> rel:bool -> int -> int -> Bdd.t
(** The literal-exchange transform [sigma] on a completely specified
    function, built over the whole function with {!Bdd.swap_vars} (and
    {!Bdd.negate_var} for [rel = true]).  It is the reference transform:
    {!symmetric_pair} and the invariant checker use it, so they stay
    independent of the quadrant arithmetic below. *)

(** The exchange of [x_i] and [x_j] with phase [rel] fixes the quadrants
    [(x_i, x_j) = (0, rel)] and [(1, not rel)] of the pair and swaps the
    other two, [a = (0, not rel)] and [b = (1, rel)].  The two functions
    below ask about the on-set and [up = on \/ dc] ({!Isf.up}) on these
    quadrants instead of building [sigma] of the whole function: the
    questions are decided where the quadrants lie
    ({!Bdd.equal_cof2}, {!Bdd.leq_cof2}) and a closure is built in one
    pass ({!Bdd.exchange_close}), so no cofactor is built.  Their
    results are the same canonical BDDs as the [swap_rel] formulation.
    The off-set is the complement of [up], so no complement is built.
    Both treat [i = j] as never symmetrizable. *)

val symmetrizable :
  Bdd.manager -> Isf.t list -> rel:bool -> int -> int -> bool
(** Can don't cares of every function in the vector be assigned so that
    all become symmetric in the pair?  (No assignment is performed.)
    Exactly when every function has [on_a <= up_b] and [on_b <= up_a]
    (that is, [on_a /\ off_b = 0] and [on_b /\ off_a = 0]): on the fixed
    quadrants [on <= sigma(up)] is [on <= up], which always holds, and
    on the moved ones it is these two inclusions.  Nothing is built:
    {!Bdd.leq_cof2} decides each inclusion, or {!Bdd.equal_cof2} for a
    completely specified function, where [up = on] and the two
    inclusions say [on_a = on_b]. *)

val symmetrize :
  Bdd.manager -> Isf.t list -> rel:bool -> int -> int -> Isf.t list option
(** Perform the forced assignments: on-sets and off-sets are closed
    under the exchange ([on \/ sigma(on)], [off \/ sigma(off)]).  The
    closure keeps the fixed quadrants and puts [u_on = on_a \/ on_b]
    (resp. [off_a \/ off_b], the complement of [u_up = up_a /\ up_b]) on
    both moved ones, so the result is [None] iff [u_on <= u_up] fails
    for some function, which is the test of {!symmetrizable}; otherwise
    each function becomes the interval ({!Isf.of_on_up}) between
    {!Bdd.exchange_close} of its on-set under [\/] and of its [up] under
    [/\], and one whose moved quadrants already agree is returned as it
    is. *)

(** {1 Step 1 of the paper's don't-care assignment} *)

val close_group : Bdd.manager -> Isf.t list -> group -> Isf.t list option
(** Commit the don't-care assignments that make every function of the
    vector symmetric under all exchanges of the group; [None] if a
    conflict appears.  It iterates {!symmetrize} over the group's chain,
    each member with the next (the xor of their phases as relative
    phase), to a fixpoint: the chain generates every exchange of the
    group, so the fixpoint is the closure under all pairs, and a
    conflict appears exactly when it would appear there. *)

type result = { functions : Isf.t list; groups : group list }

val maximize :
  ?budget:int ->
  ?use_equivalence:bool ->
  ?check:(unit -> unit) ->
  Bdd.manager ->
  Isf.t list ->
  int list ->
  result
(** Greedy group growing: repeatedly try to merge symmetry groups (over
    the given variables), assigning don't cares on success and keeping
    every previously established symmetry (exchanges within disjoint
    groups commute).  A merge is tried only when every cross pair is
    {!symmetrizable}, and closes the merged group with {!close_group},
    over its chain, which terminates because care sets only grow.
    [budget] bounds the number of attempted pair merges
    (default 4000); [use_equivalence] enables phase-[true] merges
    (default true).  [check] (default a no-op) is polled before every
    merge attempt and may raise to abandon the pass — the resource
    governor of the decomposition engine polls its deadline here.

    On completely specified functions no don't cares exist and this
    reduces to pure detection, i.e. [partition]. *)
