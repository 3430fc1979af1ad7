(** Merging LUTs into Xilinx XC3000 CLBs.

    A CLB realizes either one function of up to five inputs, or two
    functions of up to four inputs each that together use at most five
    distinct inputs.  Pairing LUTs to minimize the CLB count is a
    maximum-cardinality matching problem on the "mergeable" graph
    (Murgai et al., DAC'90); the paper's [mulop-dc] uses a simple
    first-fit pairing, [mulop-dcII] the exact matching.

    Every entry point takes the LUT size [k] (default 5, the XC3000):
    the pairing rule generalizes to two functions of up to [k - 1]
    inputs sharing at most [k] distinct inputs, so CLB counts stay
    meaningful for the k = 4 and k = 6 experiments. *)

type policy = First_fit | Max_matching

val mergeable :
  ?lut_size:int -> Network.t -> Network.signal -> Network.signal -> bool
(** Can the two LUTs share one CLB of the given size? *)

val merge_graph :
  ?lut_size:int -> Network.t -> Network.signal array * Ugraph.t
(** The network's LUTs in {!Network.lut_signals} order, and the graph
    on their indices whose edges are exactly the pairs {!mergeable}
    accepts.  Each LUT's fanins are read once; a pair's distinct inputs
    are counted by a merge walk over sorted fanin ids. *)

val pairs :
  ?lut_size:int ->
  policy ->
  Network.t ->
  (Network.signal * Network.signal) list

val clb_count : ?lut_size:int -> policy -> Network.t -> int
(** [lut_count - number of merged pairs], from one merge-graph
    construction. *)
