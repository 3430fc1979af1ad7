(** A small CDCL SAT solver.

    The classic architecture in ~500 lines: two-literal watching for
    unit propagation, first-UIP conflict analysis with clause learning
    (no clause minimization), VSIDS-style variable activities with
    phase saving, Luby restarts, and solving under assumptions.
    Learned clauses are kept for the solver's lifetime (no
    clause-database reduction) — adequate for the window-sized problems
    of the complete don't-care analysis, where a solver lives for one
    window and at most two queries per fanin code.

    {!create} imports a {!Cnf.t} clause by clause, reading each clause
    as a slice of the formula's literal store; {!add_clause} goes
    through the same routine.  Both normalize at the root: literals
    sorted ascending with duplicates merged, tautologies and
    root-satisfied clauses dropped, root-false literals removed.

    Solvers are incremental: clauses may be added between {!solve}
    calls, and [assumptions] is how one formula serves several queries
    (the miter selector of {!Complete_dc}, the per-output queries of
    the SAT equivalence audit).

    Every call can be budgeted (conflict and decision caps, plus an
    arbitrary [check] callback polled during search); an exhausted
    budget yields {!Unknown}, never a wrong answer.

    A solver is single-domain mutable state, like a {!Bdd.manager}:
    distinct solvers are fully independent. *)

type t

type outcome =
  | Sat  (** a model is available through {!value} *)
  | Unsat  (** no model (under the given assumptions) *)
  | Unknown of string  (** a budget ran out; the payload names it *)

val create : Cnf.t -> t
(** Import a formula.  Later changes to the [Cnf.t] are not seen; add
    further clauses with {!add_clause}. *)

val add_clause : t -> Cnf.lit list -> unit
(** Add one clause (e.g. a blocking clause between enumeration calls),
    normalized like the imported ones.  Adding an empty (or
    root-falsified) clause makes every later {!solve} return {!Unsat}
    immediately. *)

val solve :
  ?assumptions:Cnf.lit list ->
  ?max_conflicts:int ->
  ?max_decisions:int ->
  ?check:(unit -> unit) ->
  t ->
  outcome
(** Decide satisfiability under the assumptions (default none).
    [max_conflicts]/[max_decisions] cap this call's search (omitted =
    unlimited); [check] is polled every few hundred conflicts and may
    raise to abort the whole analysis (the exception propagates).
    {!Unsat} under assumptions means no model extends them; the
    formula itself may still be satisfiable. *)

val value : t -> Cnf.var -> bool
(** Model value of a variable after a {!Sat} outcome.  Variables the
    search never touched default to [false].
    @raise Invalid_argument when the last outcome was not {!Sat}. *)

(** {1 Counters} (cumulative over the solver's lifetime) *)

val conflicts : t -> int

(* No caller reads these yet; the planned trace records them per span,
   hence the srclint waivers. *)
val decisions : t -> int (* srclint-ok: trace counter *)
val propagations : t -> int (* srclint-ok: trace counter *)
val restarts : t -> int (* srclint-ok: trace counter *)
val learned : t -> int (* srclint-ok: trace counter *)
val solve_calls : t -> int (* srclint-ok: trace counter *)
