(** Incompletely specified Boolean functions, represented by a pair of
    BDDs: the on-set and the don't-care set (disjoint by construction).
    The off-set is the complement of their union.

    An ISF stands for the interval of completely specified functions
    (extensions) [g] with [on <= g <= up], where [up = on \/ dc].
    Every question this module answers — {!compatible}, {!extends},
    {!support}, the check of {!join} — is posed on [on], [dc] and [up]
    and decided by {!Bdd.leq} or {!Bdd.disjoint}; only {!off} and
    {!care} build a complement. *)

type t = private { on : Bdd.t; dc : Bdd.t }

val make : Bdd.manager -> on:Bdd.t -> dc:Bdd.t -> t
(** @raise Invalid_argument if [on] and [dc] intersect. *)

val of_csf : Bdd.manager -> Bdd.t -> t
(** Completely specified: empty don't-care set. *)

val of_on_off : Bdd.manager -> on:Bdd.t -> off:Bdd.t -> t
(** Don't-care set is everything outside [on \/ off].
    @raise Invalid_argument if [on] and [off] intersect. *)

val of_on_up : Bdd.manager -> on:Bdd.t -> up:Bdd.t -> t
(** The interval [[on, up]]: the don't-care set is [up /\ not on].
    @raise Invalid_argument unless [on <= up]. *)

val on : t -> Bdd.t
val dc : t -> Bdd.t

val up : Bdd.manager -> t -> Bdd.t
(** [on \/ dc], the largest extension.  A completely specified
    function returns its on-set itself. *)

val off : Bdd.manager -> t -> Bdd.t
val care : Bdd.manager -> t -> Bdd.t

val is_completely_specified : t -> bool

val extends : Bdd.manager -> Bdd.t -> t -> bool
(** [extends m g f]: is the completely specified [g] an extension of [f]? *)

val equal : t -> t -> bool
(** Equality of representations (same on-set and same dc-set). *)

val compatible : Bdd.manager -> t -> t -> bool
(** Do the two ISFs admit a common extension (on-set of one never meets
    the off-set of the other)? *)

val join : Bdd.manager -> t list -> t
(** Conjunction of the constraints of a non-empty list of ISFs: the
    result's extensions are exactly the common extensions, the interval
    [[\/ on_i, /\ up_i]].  Conflicts are only ever pairwise, so the list
    has a join exactly when its members are pairwise compatible.
    @raise Invalid_argument on an empty or incompatible list. *)

val assign_all_zero : Bdd.manager -> t -> t
(** The classical pessimistic assignment: every don't care becomes 0
    (used by the [mulopII] baseline). *)

val assign_all_one : Bdd.manager -> t -> t

val restrict : Bdd.manager -> t -> int -> bool -> t
(** Cofactor of both sets. *)

val cofactor_vector : Bdd.manager -> t -> int list -> t array
(** ISF counterpart of {!Bdd.cofactor_vector}. *)

val extend_cofactor_vector : Bdd.manager -> t array -> int list -> int -> t array
(** ISF counterpart of {!Bdd.extend_cofactor_vector}: extend a cofactor
    vector for ascending [vars] to the ascending merge with one more
    variable by splitting each cached cofactor. *)

val support : Bdd.manager -> t -> int list
(** Variables on which the on-set or the off-set depends.  That is the
    union of the supports of [on] and [up], which equals the union of
    the supports of [on] and [dc]; the latter is read from the memo
    without building [up]. *)

val random_extension : Bdd.manager -> t -> Random.State.t -> Bdd.t
(** A random extension (each dc minterm resolved independently is too
    expensive; this resolves dc by a random cube-wise pattern — adequate
    for tests). *)
