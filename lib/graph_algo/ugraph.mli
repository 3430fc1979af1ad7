(** Undirected graphs on vertices [0 .. n-1], stored as bitset rows.

    Row [i] is a bitset of [ceil(n / Sys.int_size)] ints, so an edge
    test is one word read; degrees are counted as edges are inserted.
    The ascending neighbour array of every vertex is built once, on the
    first {!neighbours} or {!edges} after the last {!add_edge}, and then
    shared: the colorings and matchings read these arrays without
    allocating.  The decomposition engine builds graphs on bound-set
    vertices (at most [2^p] per step) and on LUTs (hundreds, for CLB
    merging).

    Every vertex argument is range-checked: an out-of-range vertex
    raises [Invalid_argument] instead of aliasing into a neighbouring
    row of the flat bitset. *)

type t

val create : int -> t
val n : t -> int
val add_edge : t -> int -> int -> unit
(** Self loops are ignored. *)

val has_edge : t -> int -> int -> bool
val neighbours : t -> int -> int array
(** Ascending.  The array is the graph's own: read it, never write it. *)

val degree : t -> int -> int
val edges : t -> (int * int) list
(** Each edge once, with [fst < snd], sorted. *)

val complement : t -> t
val of_edges : int -> (int * int) list -> t
val random : int -> float -> Random.State.t -> t
(** Erdos-Renyi with the given edge probability. *)
