(** Graph coloring heuristics.

    Minimum coloring of the {e incompatibility} graph of bound-set
    vertices is exactly the minimum clique cover of the compatibility
    graph — the formulation used both by Chang & Marek-Sadowska's
    don't-care assignment and by the paper's sharing-aware assignment
    (Section 5, step 2).

    Every routine reads {!Ugraph.neighbours} and allocates only its own
    result and a few scratch arrays per call. *)

val greedy : Ugraph.t -> int list -> int array
(** Color in the given vertex order, each vertex getting the smallest
    color not used by its already-colored neighbours. *)

val dsatur : Ugraph.t -> int array
(** DSATUR heuristic: repeatedly color the vertex with the highest
    saturation (number of distinct neighbour colors), breaking ties by
    degree, then by the smallest vertex. *)

val exact : ?limit:int -> Ugraph.t -> int array option
(** Branch-and-bound exact minimum coloring, intended for the small
    graphs of a decomposition step.  The search starts from the
    {!dsatur} coloring as its upper bound and visits vertices in
    decreasing-degree order.  Gives up (returns [None]) after [limit]
    search nodes (default 200_000). *)

val colorable : ?limit:int -> Ugraph.t -> int -> bool option
(** [colorable g k]: is there a proper coloring with at most [k]
    colors?  The decision form of {!exact}: the same search with the
    bound fixed at [k + 1] colors, stopping at the first coloring found
    and under the same node [limit] (default 200_000).  [None] when it
    gives up; [Some false] is a proof that the chromatic number
    exceeds [k]. *)

val color_count : int array -> int
val is_proper : Ugraph.t -> int array -> bool
