(** Decomposition-invariant checks ([DEC*] codes).

    Each helper verifies one obligation of the paper's correctness
    story and returns [Some finding] on violation, [None] when the
    invariant holds.  The driver calls them at its phase boundaries
    when running with [--check=cheap] or [--check=full]; they are pure
    observers — no check ever changes the result of a run. *)

val well_formed_parts :
  Bdd.manager -> where:string -> on:Bdd.t -> dc:Bdd.t -> Diagnostic.t option
(** [DEC001]: the on-set and don't-care set must be disjoint.  Takes
    the raw parts (rather than an {!Isf.t}, whose constructor already
    enforces this) so unsafely produced pairs can be vetted too. *)

val check_refines :
  Bdd.manager -> where:string -> coarse:Isf.t -> fine:Isf.t -> Diagnostic.t option
(** [DEC002]: every extension of [fine] must be an extension of
    [coarse].  (The don't-care phases may only {e commit} don't cares:
    on-sets and off-sets grow, the interval of extensions shrinks.) *)

val check_group_symmetric :
  Bdd.manager -> where:string -> Isf.t list -> Symmetry.group -> Diagnostic.t option
(** [DEC003]: after step 1 committed a group, every function of the
    vector must be invariant (on-set and off-set separately) under
    every pair exchange of the group, with the xor of the member
    phases as relative phase. *)

val check_proper_cover :
  Ugraph.t -> int array -> where:string -> Diagnostic.t option
(** [DEC004]: a class merging must be a proper coloring of the
    incompatibility graph — no two incompatible vertices share a
    class. *)

val check_alpha_count :
  where:string -> nclasses:int -> r:int -> Diagnostic.t option
(** [DEC006]: output [i] must receive exactly [ceil(log2 K_i)]
    decomposition functions (the paper's count). *)

val check_composition :
  Bdd.manager ->
  where:string ->
  subs:(int * Bdd.t) list ->
  g:Isf.t ->
  spec:Isf.t ->
  Diagnostic.t option
(** [DEC007]: substituting the decomposition functions [subs] for
    their alpha variables in the composition ISF [g] must yield a
    refinement of the step's input [spec] — i.e. the committed step is
    BDD-equivalent to its specification wherever the spec cares. *)

val function_of_tt : Bdd.manager -> int list -> Bv.t -> Bdd.t
(** The BDD of a truth table over the (strictly ascending) support
    variables, with table bit [k] corresponding to support position
    [k] — the layout used by the driver's LUT emission. *)

val check_lut_realizes :
  Bdd.manager ->
  where:string ->
  Isf.t ->
  support:int list ->
  tt:Bv.t ->
  Diagnostic.t option
(** [DEC008]: an emitted LUT table must be an extension of the ISF it
    was derived from. *)

val check_lut_equals :
  Bdd.manager ->
  where:string ->
  Bdd.t ->
  support:int list ->
  tt:Bv.t ->
  Diagnostic.t option
(** [DEC008] for completely specified emissions (decomposition
    functions): the table must equal the function exactly. *)
