(** Prime, irredundant covers of truth tables (Minato–Morreale ISOP).

    [cover tt] is a sum of products equal to [tt] in which every cube
    is prime (dropping any literal makes it meet the off-set) and no
    cube is redundant (dropping any cube uncovers a minterm).  Each
    cube owns a minterm no other cube of its cover contains, so a
    cover of the on-set and one of the off-set have at most [2^n]
    cubes between them: never more than the table has rows.

    The check stack reads every LUT of a network through these covers:
    the SAT encoder writes one clause per cube, and the 62-lane
    simulations evaluate a LUT as the OR of its on-cubes. *)

type cube = private int
(** A product over the table's variables, packed in one int so that a
    cover is one flat array.  The empty cube ([care c = 0]) is the
    constant 1. *)

val care : cube -> int
(** Variable [j] appears in the cube iff bit [j] is set. *)

val value : cube -> int
(** Variable [j] appears positively iff bit [j] is set here too; no
    bit is set outside {!care}. *)

type t = { nvars : int; on : cube array; off : cube array }
(** A table's two covers: [on] covers exactly its ones, [off] exactly
    its zeros. *)

val cover : Bv.t -> bool -> cube array
(** [cover tt b]: the prime, irredundant cover of the minterms where
    the table is [b] (its on-set for [true]), for any arity {!Bv}
    supports.  The recursion splits on the highest variable first, so
    the cubes and their order depend on the table alone. *)

val of_table : Bv.t -> t
(** Both covers: [cover tt true] and [cover tt false]. *)
