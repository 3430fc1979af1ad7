(** Static-analysis passes over LUT networks.

    Two families of passes run over {e all} allocated nodes (not just
    the reachable cone, so corruption in dead logic is still found):

    - {e structural} passes ([NET001]-[NET005], [NET009], [NET010]):
      dangling fanins, truth-table/fanin arity mismatches, topological
      (cycle) violations, undriven outputs, LUTs wider than the
      configured LUT size, duplicate input/output names.  All are
      [Error]s: a network failing one of these is outside the data
      structure's contract and most other operations on it are
      undefined.
    - {e style} passes ([NET006]-[NET008]): dead LUTs, structural
      duplicates, degenerate (constant/buffer) tables.  These are
      legal but indicate a missed [sweep] or a foreign producer; they
      only run when the structural passes found no error, because they
      need a traversable network. *)

val analyze : ?lut_size:int -> ?style:bool -> Network.t -> Diagnostic.t list
(** All findings, in node order.  [lut_size] arms the [NET005] width
    pass; [style] (default [true]) enables the style family.  The
    [NET007] duplicate pass canonicalizes each LUT (fanins sorted,
    table permuted to match), so duplicates are found regardless of
    fanin order. *)

val namer : Network.t -> Network.signal -> string
(** [namer net] names nodes stably for reports: an input by its name,
    any other node by the first primary output it drives, else by a
    synthetic [n<id>] (also for ids outside the network, so the
    structural passes can name what they find on a corrupted one).
    Every report and the rewrite log name nodes this way. *)

val canonical_lut :
  Network.signal array -> Bv.t -> Network.signal array * Bv.t * (int -> int)
(** [canonical_lut fanins tt]: the fanins sorted by signal id with the
    table permuted accordingly, plus the map from canonical table rows
    back to original ones.  The canonical form of the [NET007] pass,
    shared with the [SEM006] mergeable-twin pass of {!Semantics}. *)
