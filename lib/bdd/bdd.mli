(** Reduced ordered binary decision diagrams with hash consing.

    All functions of one {!manager} share a single unique table, so two
    structurally equal BDDs are physically equal and [equal] is O(1).  The
    variable order is the natural order of variable indices (variable 0 is
    the topmost level).  Nodes are never garbage collected; a manager grows
    monotonically, which is adequate for the synthesis workloads of this
    library.

    {b Tables.}  The unique table is open-addressed: its slots hold the
    nodes themselves and a lookup compares (variable, lo id, hi id) read
    from the node, so finding or creating a node allocates only the new
    node.  One direct-mapped, lossy computed table memoizes and, or,
    xor, not, diff, ite and restrict, and the verdicts of the decisions
    {!disjoint}, {!leq}, {!equal_on}, {!equal_cof} and {!leq_cof},
    keyed on packed operand ids and a 4-bit operation code.  Both size
    themselves from the node count: the unique table doubles at half
    load and the computed table follows it up to a fixed cap.  A node's
    id is its creation rank, and whether an operation hits the computed
    table never changes which nodes exist, so ids depend only on the
    sequence of operations.  The decisions build no node at all.

    {b Decide, do not build.}  A yes/no question about functions —
    is [f /\ g] empty, is [f] inside [g], do [f] and [g] agree on a
    care set, is one cofactor on [v] equal to or inside another — is
    asked with {!disjoint}, {!leq}, {!equal_on}, {!equal_cof} or
    {!leq_cof}.  Building the conjunction, the difference or the
    cofactors only to compare them creates nodes that nothing else
    reads.  A cofactor's value at one assignment, a cheap filter
    before {!equal_cof}, is read by {!eval_cof} down one path.

    Mixing nodes of different managers in one operation is a programming
    error; it is detected (cheaply, via node ids) only by assertions.

    {b Domain safety.}  All mutable state of this library — the unique
    table, the computed table, the support memo, the growth hook — lives
    inside a {!manager} value, except the scratch id set of {!size},
    which belongs to the calling domain.  A single manager is {e not}
    thread-safe, but
    distinct managers are fully independent: separate OCaml domains may
    each own a manager and operate concurrently without any
    synchronization ([Decomp.Batch] relies on exactly this).  Node ids
    are allocated per manager from a fresh counter, so a run on a fresh
    manager is reproducible regardless of what other domains do. *)

type manager

type t
(** A BDD node, tied to the manager that created it. *)

val manager : unit -> manager
(** Create a fresh manager. *)

val node_count : manager -> int
(** Total number of live internal nodes in the unique table. *)

val set_growth_hook : manager -> (int -> unit) option -> unit
(** Install (or remove, with [None]) a resource-governor hook: it is
    called with {!node_count} once every 1024 fresh node allocations
    (counted from the call that installed it), i.e. at operation
    boundaries of the recursive apply procedures.  The hook may raise
    to abort the operation in progress; this is safe, because the
    unique table and the computed table only ever record completed
    results — an abort leaves the manager fully usable.  Used by
    [Decomp.Budget] to enforce node budgets and wall-clock deadlines. *)

(** {1 Constants and variables} *)

val zero : manager -> t
val one : manager -> t
val var : manager -> int -> t
(** [var m i] is the projection function of variable [i].  Indices are
    arbitrary integers; the variable order is their numeric order
    (smaller = closer to the root).  Negative indices are how the
    decomposition driver places fresh variables {e above} the primary
    inputs. *)

val nvar : manager -> int -> t
(** [nvar m i] is the complement of variable [i]. *)

(** {1 Structure} *)

val equal : t -> t -> bool
val id : t -> int

val is_zero : t -> bool
val is_one : t -> bool

val view : t -> [ `Zero | `One | `Node of int * t * t ]
(** [`Node (v, lo, hi)] exposes the top variable and the two cofactors. *)

(** {1 Boolean operations} *)

val not_ : manager -> t -> t
val and_ : manager -> t -> t -> t
val or_ : manager -> t -> t -> t
val xor : manager -> t -> t -> t
val nand : manager -> t -> t -> t
val nor : manager -> t -> t -> t
val xnor : manager -> t -> t -> t
val diff : manager -> t -> t -> t
(** [diff m f g] is [f /\ not g], computed natively: the nodes of
    [not g] are not built. *)

val ite : manager -> t -> t -> t -> t
val and_list : manager -> t list -> t
val or_list : manager -> t list -> t

(** {1 Decisions}

    These answer a yes/no question in one memoized walk of the operands
    that stops at the first witness.  They build no node, so they never
    tick the growth hook, and they share the computed table with the
    operations above. *)

val disjoint : manager -> t -> t -> bool
(** [disjoint m f g]: is [f /\ g] empty? *)

val leq : manager -> t -> t -> bool
(** [leq m f g]: is [f] contained in [g], i.e. [f /\ not g] empty? *)

val equal_on : manager -> care:t -> t -> t -> bool
(** [equal_on m ~care f g]: do [f] and [g] agree on every minterm of
    [care]?  ([care = one] is plain {!equal}; the workhorse of the
    care-set-aware equivalence audit.) *)

(** The next two compare cofactors on one variable [v] without building
    them: they walk [f] and [g] in lockstep above [v] and, at a node on
    [v], descend into the fixed branch.  Memoized under the key
    [(id f, id g, 4v + 2a + b)].  [v] may lie above, at or below the
    operands' tops, or outside their supports. *)

val equal_cof : manager -> int -> t -> bool -> t -> bool -> bool
(** [equal_cof m v f a g b]: is [restrict m f v a] equal to
    [restrict m g v b]?  Below [v] canonical nodes compare by id.  The
    bound-set search asks it of the halves of a split cofactor vector,
    step 1 of a completely specified function's exchange. *)

val leq_cof : manager -> int -> t -> bool -> t -> bool -> bool
(** [leq_cof m v f a g b]: is [restrict m f v a] contained in
    [restrict m g v b]?  Below [v] the walk hands over to {!leq}. *)

(** {1 Cofactors, quantification, substitution} *)

val restrict : manager -> t -> int -> bool -> t
(** [restrict m f v b] is the cofactor of [f] with variable [v] fixed
    to [b]. *)

val exists : manager -> int list -> t -> t

val compose : manager -> t -> int -> t -> t
(** [compose m f v g] substitutes [g] for variable [v] in [f]. *)

val vector_compose : manager -> t -> (int * t) list -> t
(** Simultaneous substitution.  The substituted variables must not occur
    in the replacement functions (checked by assertion, in one walk of
    the replacement functions' shared DAG), which is the only case this
    library needs. *)

val swap_vars : manager -> t -> int -> int -> t
(** [swap_vars m f i j] is [f] with variables [i] and [j] exchanged. *)

val rename : manager -> t -> (int -> int) -> t
(** [rename m f pi] substitutes variable [pi v] for every variable [v]
    (simultaneously).  [pi] must be injective on the support of [f];
    it need not preserve the variable order. *)

val negate_var : manager -> t -> int -> t
(** [negate_var m f v] is [fun x -> f (x with bit v flipped)]. *)

(** {1 Inspection} *)

val support : manager -> t -> int list
(** Variables [f] essentially depends on, ascending.  Memoized per node
    in the manager, so repeated queries are O(1). *)

val size : t -> int
(** Number of internal nodes of [f] (shared nodes counted once).  The
    visited ids go to a set that belongs to the calling domain and is
    reused, so counting allocates only when a DAG outgrows every one
    counted before on that domain. *)

val size_list : t list -> int
(** Nodes of the shared DAG of a list of functions. *)

val eval : t -> (int -> bool) -> bool
(** Evaluate under an assignment. *)

val eval_cof : t -> int -> bool -> int -> bool
(** [eval_cof f v a word] is [f|v=a] at the assignment that gives every
    other variable [u] bit [u land 63] of [word]: one walk down one
    path of [f], taking branch [a] at a node on [v].  It builds no node
    and allocates nothing.  Equal cofactors give equal values at every
    [word], so a few words sign a cofactor cheaply: the bound-set
    search compares split halves with {!equal_cof} only when their
    signatures agree. *)

val any_sat : t -> (int * bool) list
(** One satisfying path (empty for [one]).  @raise Not_found on [zero]. *)

val random : manager -> nvars:int -> density:float -> Random.State.t -> t
(** Random function over variables [0 .. nvars-1]; [density] is the
    probability of a minterm being in the on-set. *)

(** {1 Vectors of cofactors (decomposition support)} *)

val cofactor_vector : manager -> t -> int list -> t array
(** [cofactor_vector m f vars] lists all [2^p] cofactors of [f] w.r.t.
    [vars = [v1; ...; vp]].  Index [i] holds the cofactor for the
    assignment where the {e first} variable of the list is the most
    significant bit of [i]. *)

val extend_cofactor_vector : manager -> t array -> int list -> int -> t array
(** [extend_cofactor_vector m vec vars v]: given [vec =
    cofactor_vector m f vars] for strictly ascending [vars] not
    containing [v], the cofactor vector of [f] w.r.t. the ascending
    merge of [vars] and [v] — computed by splitting each cached
    cofactor on [v] ([2^(p+1)] restricts of already-restricted, hence
    small, BDDs) instead of recomputing the whole vector from the
    root.  The workhorse of the bound-set search's incremental score
    cache. *)

val of_vector : manager -> int list -> t array -> t
(** Inverse of {!cofactor_vector} for constant vectors generalized to
    functions: [of_vector m vars vec] builds the function whose cofactor
    vector w.r.t. [vars] is [vec].  [vars] must be strictly ascending and
    the entries of [vec] must not depend on [vars] (they may depend on
    any other variable, above or below). *)

val minterm_of_code : manager -> int list -> int -> t
(** [minterm_of_code m vars code] is the conjunction of literals of
    [vars] encoding [code] (first variable = most significant bit). *)
