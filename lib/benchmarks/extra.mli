(** Additional exactly-defined functions beyond the Table-1 suite: handy
    for experiments, regression tests and CLI exploration.  These are
    {e not} part of {!Mcnc.catalogue} so the bench totals stay exactly
    the paper's circuit list. *)

val rd53 : Bdd.manager -> Driver.spec
(** 5-input rate detector (weight bits). *)

val majority : Bdd.manager -> inputs:int -> Driver.spec
(** Majority-of-n. *)

val parity : Bdd.manager -> inputs:int -> Driver.spec
(** Odd parity of n inputs. *)

val t481_like : Bdd.manager -> Driver.spec
(** A 16-input single-output function in the spirit of [t481]:
    a product of xor terms, highly decomposable. *)

val catalogue : (string * (Bdd.manager -> Driver.spec)) list
