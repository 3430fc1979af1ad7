(** Two-level cube covers, as found in Espresso PLA and BLIF [.names]
    bodies.  A cube is a string over ['0'], ['1'], ['-'] of length
    [ninputs]; a cover is a list of cubes.  Used by the file-format
    substrate to move functions in and out of BDD form. *)

type literal = L0 | L1 | Ldash

type cube = literal array

val cube_of_string : string -> cube
val string_of_cube : cube -> string

val cube_to_bdd : Bdd.manager -> (int -> int) -> cube -> Bdd.t
(** [cube_to_bdd m var_of_column c]: conjunction of the literals of [c],
    column [k] mapped to BDD variable [var_of_column k]. *)

val cover_to_bdd : Bdd.manager -> (int -> int) -> cube list -> Bdd.t
(** Disjunction of the cubes. *)

val bdd_to_cover : Bdd.manager -> int list -> Bdd.t -> cube list
(** Enumerate the paths to 1 as cubes over the given (ascending) variable
    list.  Not minimal, but correct; adequate for writing BLIF. *)

val cube_eval : cube -> (int -> bool) -> bool
