(** Tseitin encoding of LUT networks into CNF.

    The bridge from {!Network.t} to the solver.  A LUT is read through
    its prime, irredundant covers ({!Isop.t}): every on-cube [q] gives
    the clause "[q] implies the output", every off-cube the clause
    "[q] implies its complement".  The on-cubes cover exactly the
    table's ones and the off-cubes exactly its zeros, so together the
    clauses are both directions of the Tseitin biconditional and the
    encoding is {e functional}: in every model the LUT variables are
    determined by the input variables.  They define the same relation
    as one clause per table row would, in at most [2^k] clauses (one
    per cube) and usually far fewer and shorter ones.

    Two entry points: the node-level primitives ({!lut}, {!equiv_neg},
    {!xor_var}, {!constant}) for callers that assemble windows or
    miters themselves (see [Check.Window]), and {!of_network} for
    whole-network encoding (the SAT equivalence audit). *)

val lut : Cnf.t -> out:Cnf.var -> fanins:Cnf.var array -> Isop.t -> unit
(** Constrain [out] to be the LUT of [fanins] whose table has the given
    covers (fanin [j] = table variable [j], as in {!Network.view}): one
    clause per cube, on-cubes first, each clause written through one
    reused buffer ({!Cnf.add_lits}).  Callers that encode a LUT more
    than once (the SAT windows) compute its covers once and pass them
    to every call.
    @raise Invalid_argument when the covers' arity differs from the
    fanin count. *)

val constant : Cnf.t -> Cnf.var -> bool -> unit
(** Pin a variable with a unit clause. *)

val equiv_neg : Cnf.t -> Cnf.var -> Cnf.var -> unit
(** Constrain two variables to be complements (two binary clauses) —
    how a miter's B-copy center is forced to disagree with the A-copy. *)

val xor_var : Cnf.t -> Cnf.var -> Cnf.var -> Cnf.var
(** A fresh variable constrained to the XOR of the two given ones
    (four ternary clauses): one miter output per window root. *)

(** {1 Whole networks} *)

type env
(** A finished encoding of one network: the CNF variables standing for
    its signals. *)

val of_network : Cnf.t -> Network.t -> env
(** Encode every node reachable from the outputs ({!Network.iter_cone}
    order): inputs become free variables, constants pinned variables,
    LUTs {!lut}-constrained ones.  Multiple networks may share one
    [Cnf.t] (each call allocates fresh variables), which is how the
    equivalence miter is built.  Each LUT's covers are computed while
    that LUT is encoded and are not kept. *)

val input_vars : env -> (string * Cnf.var) list
(** In {!Network.inputs} order. *)

val output_vars : env -> (string * Cnf.var) list
(** In {!Network.outputs} order. *)
