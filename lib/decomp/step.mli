(** One decomposition step: given a vector of (incompletely specified)
    functions and a bound set, produce

    - the decomposition functions [alpha] (BDDs over the bound
      variables, shared across outputs), and
    - for every output its composition function [g] as an ISF over
      fresh alpha variables plus the free variables (don't cares of [g]
      come from unused codes and from surviving input don't cares —
      this is where the recursion generates the don't cares the paper
      exploits).

    The don't-care steps 2 (sharing-aware joint class minimization via
    clique cover) and 3 (Chang & Marek-Sadowska per-output minimization)
    run inside the step, controlled by {!Config.dc_steps}; step 1
    (symmetrization) happens before bound-set selection and therefore in
    the driver. *)

type alpha = {
  pool_id : int;
  var : int;  (** fresh BDD variable standing for this function *)
  func : Bdd.t;  (** the function itself, over the bound variables *)
}

type result = {
  alphas : alpha list;  (** in pool order *)
  g : Isf.t array;  (** per output; over alpha variables and free variables *)
  r : int array;  (** number of decomposition functions per output *)
  joint_classes : int;  (** the paper's lower-bound quantity [ncc(f, B)] *)
}

val run :
  ?budget:Budget.t ->
  ?checks:Diagnostic.level ->
  ?emit:(Diagnostic.t -> unit) ->
  ?stats:Stats.t ->
  ?cache:Score_cache.t ->
  Bdd.manager ->
  Config.t ->
  fresh_var:(unit -> int) ->
  Isf.t array ->
  bound:int list ->
  result
(** Run one decomposition step of the function vector [isfs] against
    [bound].  [fresh_var] allocates the BDD variables standing for the
    decomposition functions.  [budget] (default {!Budget.unlimited}) is
    polled at every internal phase boundary and once per vertex of the
    class-merging colorings; {!Budget.Out_of_budget} can only escape
    {e before} anything is emitted — the step itself is pure, all
    commitment happens in the driver.  [stats] receives the [step/*]
    phase timings (default: a fresh throwaway instance).  [cache] is
    the bound-set search's {!Score_cache}: the cofactor matrix reads
    each function's vector over [bound inter supp f] from it — the
    search has just built every one of them — instead of cofactoring
    from the root ({!Classes.cofactor_matrix}).  Without it the vectors
    are computed; the result is the same either way.

    With [checks] at [Cheap] or above (default [Off]), the step's
    internal invariants are verified and violations reported through
    [emit] (default: drop): proper clique covers ([DEC004]), injective
    encodings ([DEC005]) and the [ceil(log2 ncc)] function count
    ([DEC006]).  The checks never change the result. *)

val compose : Bdd.manager -> vars:int list -> int array -> Isf.t array -> Isf.t
(** [compose m ~vars codes cofs]: the composition function of one
    output whose class [c] has the code [codes.(c)] over the alpha
    variables [vars] (first variable = most significant bit) and the
    cofactor [cofs.(c)].  It is the join of the classes, each guarded by
    its code minterm [mt_c]: on-set [\/ (mt_c /\ on_c)], upper bound
    [/\ (not mt_c \/ up_c)].  Codes no class uses are don't cares.
    @raise Invalid_argument if two classes that share a code are
    incompatible. *)

val total_alpha_lower_bound : result -> int
(** [ceil(log2 joint_classes)] — the paper's lower bound on the total
    number of decomposition functions. *)
