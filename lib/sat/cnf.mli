(** Clause databases in conjunctive normal form.

    The exchange format between the Tseitin encoder ({!Encode}) and the
    CDCL solver ({!Solver}): variables are dense non-negative integers,
    literals pack a variable and a sign into one integer ([2v] is the
    positive literal of variable [v], [2v+1] its negation).  A [Cnf.t]
    is a growable formula that keeps every literal of every clause in
    one int array, with one end offset per clause, so building a
    window's encoding allocates no per-clause blocks.  {!Solver.create}
    imports it and further clauses are added to the {e solver} (learned
    and blocking clauses), not here. *)

type var = int
(** A propositional variable, allocated densely from 0 by {!fresh}. *)

type lit = int
(** A literal: variable [l lsr 1], negated iff [l land 1 = 1]. *)

val pos : var -> lit
val neg : var -> lit
val negate : lit -> lit
val var_of : lit -> var
val is_pos : lit -> bool

val lit_of_bool : var -> bool -> lit
(** [lit_of_bool v b] is the literal forcing [v = b]. *)

val pp_lit : Format.formatter -> lit -> unit
(** DIMACS-style rendering ([3] / [-3], counting variables from 1). *)

type t

val create : unit -> t

val fresh : t -> var
(** Allocate the next unused variable. *)

val nvars : t -> int

val add_clause : t -> lit list -> unit
(** Append one clause, literals in the given order.  Literals must
    refer to allocated variables.
    @raise Invalid_argument on an out-of-range literal (the formula is
    left unchanged). *)

val add_lits : t -> lit array -> int -> unit
(** [add_lits t buf n] appends the clause made of [buf.(0 .. n - 1)]
    (copied, so [buf] can be reused for the next clause).  Same checks
    as {!add_clause}. *)

val nclauses : t -> int

val iter_clauses : t -> (lit array -> int -> int -> unit) -> unit
(** [iter_clauses t f] calls [f lits off len] for every clause in
    insertion order: the clause is [lits.(off .. off + len - 1)].
    [lits] is the formula's own store; callers must not mutate it. *)

val pp : Format.formatter -> t -> unit
(** DIMACS rendering (for debugging and golden tests). *)
