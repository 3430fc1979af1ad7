(** Compatible classes of bound-set vertices (Roth/Karp), for vectors of
    incompletely specified functions.

    Given a bound set [B] of size [p], the [2^p] assignments of the bound
    variables are the {e vertices}.  Two vertices are compatible for
    output [i] if the cofactors of [f_i] at the two vertices admit a
    common extension; they are {e jointly} compatible if this holds for
    every output.  For completely specified functions compatibility is
    equality of cofactors and the classes are the classical compatible
    classes, whose count [ncc] determines the minimum number
    [ceil(log2 ncc)] of decomposition functions. *)

type t = {
  bound : int list;  (** ascending *)
  nitems : int;
  node_of_vertex : int array;
      (** vertex (index into the cofactor vector, first bound variable =
          most significant bit) to deduplicated node, numbered densely
          in first-occurrence order *)
  node_cof : Isf.t array array;
      (** [node_cof.(node).(item)] — per-item cofactor of the node *)
}

val nnodes : t -> int
val nvertices : t -> int

(** {1 Class numbering}

    Vertices are grouped by identical cofactors, an ISF being identified
    by its node-id pair [(Bdd.id on, Bdd.id dc)], or, for a [Split], by
    a class label decided on the halves.  One vector at a time
    refines the grouping, so after the vectors of [f_1 .. f_m] two
    vertices share a class exactly when their cofactor tuples are equal.
    Class ids are dense and in first-occurrence order, hence a function
    of the grouping alone.  The work happens in per-domain scratch
    arrays: counting allocates nothing. *)

type numbering

val numbering : int list -> numbering
(** [numbering bound]: all of the [2^|bound|] vertices of the ascending
    bound set in one class.  The scratch belongs to the calling domain
    and is reset by its next [numbering]: finish with one before
    starting another. *)

type cofactors = Score_cache.cofactors =
  | Vector of Isf.t array  (** a function's vector over a subset *)
  | Split of Isf.t array * int
      (** [Split (parent, v)]: the vector over the subset without [v],
          each entry standing for its two halves on [v] *)

val refine : Bdd.manager -> numbering -> int list -> cofactors -> int
(** [refine m s sub cofs] splits the classes of [s] by the cofactors
    of one function over [sub], an ascending subset of the bound set,
    and returns the number of distinct cofactors over [sub] alone —
    that output's class count.  It reads two int keys per entry: a
    [Vector]'s entry gives its id pair [(Bdd.id on, Bdd.id dc)]; a
    [Split] gives each half a class label, found by deciding which
    halves are equal with {!Bdd.equal_cof}, so no half is built.
    Equal parent entries share labels; an entry whose halves agree is
    its own half and is compared with split halves only.  Each half is
    signed with its on-set and dc-set values at two fixed assignments
    ({!Bdd.eval_cof}), and a half is compared only with labels of its
    own signature: equal halves sign alike, so the labels are those of
    comparing with every one.  The halves sit where
    {!Isf.extend_cofactor_vector} would put them, so the classes are
    those of the built vector.  Vertex [v] of the bound set
    reads the entry given by [v]'s bits for the variables of [sub]: the
    projection.  When the function depends on no variable of the bound
    set outside [sub], its cofactor at [v] is exactly that entry, so
    the classes equal those of its vector over the whole bound set.
    Passing the bound set itself (the same physical list given to
    {!numbering}) reads the entries vertex by vertex, with no
    projection.  The labels and their representatives live in the
    numbering's scratch.
    @raise Invalid_argument if [sub] is not an ascending subset of the
    bound set. *)

val count : numbering -> int
(** The joint class count over every vector refined so far. *)

val compares : numbering -> int
(** The half comparisons ({!Bdd.equal_cof} confirmations, on and dc)
    that the [Split]s refined so far made. *)

val ids : numbering -> int array
(** The joint class of every vertex, in a fresh array. *)

val inter : int list -> int list -> int list
(** [inter bound support]: the variables of the ascending [bound] that
    the ascending [support] contains, by one merge.  When [support]
    contains all of [bound], the result is [bound] itself, the same
    physical list, which {!refine} reads without a projection. *)

val cofactor_vector :
  ?cache:Score_cache.t -> Bdd.manager -> Isf.t -> int list -> Isf.t array
(** [cofactor_vector ?cache m f sub]: [f]'s cofactor vector over the
    ascending [sub], from [cache] when one is given
    ({!Score_cache.cofactor_vector}) and computed with
    {!Isf.cofactor_vector} otherwise.  An empty [sub] gives [[| f |]]
    without asking the cache. *)

val cofactor_matrix : ?cache:Score_cache.t -> Bdd.manager -> Isf.t list -> int list -> t
(** Cofactor every function w.r.t. the (ascending) bound set and
    deduplicate vertices with identical cofactor tuples.  Each function
    [f] is cofactored over [bound inter supp f] only ({!cofactor_vector})
    and read through the projection, in {!refine} and in [node_cof]
    alike: the matrix is the one cofactoring every function over the
    whole bound set would give, node for node.  With the search's
    [cache], the search decided the chosen set's scores without
    building its vectors ({!Score_cache.split}), so each is one
    extension of a cached parent, or a hit when the search built it
    as the set a growth level extends. *)

val joint_incompat : Bdd.manager -> t -> Ugraph.t
(** Graph on nodes; edge = some output's cofactors are incompatible. *)

val incompat : Bdd.manager -> Isf.t array -> Ugraph.t
(** Graph on the indices of the array; edge = the two ISFs are
    incompatible.  Step 3 builds it on one output's joined cofactors of
    the step-2 classes. *)

val ncc_csf : Bdd.manager -> Bdd.t list -> int list -> int
(** Number of jointly distinct cofactor tuples of completely specified
    functions — the exact joint [ncc]. *)
