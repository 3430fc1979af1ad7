(** Dense truth tables (bit vectors of length [2^n]).

    Exact and simple; used as the oracle for BDD operations and for
    equivalence checks of small circuits in tests.  Supports up to
    [n = 24] variables.  Minterm index [i] assigns variable [k] the bit
    [(i lsr k) land 1] — i.e. variable 0 is the {e least} significant
    bit of the minterm index. *)

type t

val nvars : t -> int
val create : int -> bool -> t
(** [create n b] is the constant-[b] function of [n] variables. *)

val var : int -> int -> t
(** [var n k] is the projection of variable [k] among [n] variables. *)

val of_fun : int -> (int -> bool) -> t
(** [of_fun n f] tabulates [f] over minterm indices [0 .. 2^n - 1]. *)

val of_cubes : int -> (int * int) list -> t
(** [of_cubes n cubes]: the union of the cubes, each given by its
    [(care, value)] masks over minterm indices (bit [k] is variable
    [k]; [value] has no bit outside [care]).  Each cube's minterms are
    set by enumerating its free positions, so the cost is the number
    of minterms the cubes cover, not cubes times [2^n]. *)

val get : t -> int -> bool
val set : t -> int -> bool -> t
(** Functional update of one minterm. *)

val equal : t -> t -> bool
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor : t -> t -> t
val count_ones : t -> int
val is_zero : t -> bool

val cofactor : t -> int -> bool -> t
(** [cofactor f k b]: same number of variables, variable [k] fixed
    (the result no longer depends on [k]). *)

val eval : t -> (int -> bool) -> bool

val of_bdd : int -> Bdd.t -> t
(** Tabulate a BDD over variables [0 .. n-1]. *)

val to_bdd : Bdd.manager -> t -> Bdd.t
val pp : Format.formatter -> t -> unit
