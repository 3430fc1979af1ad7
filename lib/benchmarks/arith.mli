(** Arithmetic specification functions of the paper's Section 6.1:
    adders and partial multipliers, plus the arithmetic MCNC circuits
    with public functional definitions.  All are returned as
    {!Driver.spec} values (BDD-backed, completely specified). *)

val adder : Bdd.manager -> bits:int -> Driver.spec
(** The paper's Figure 2 function: two [bits]-bit operands
    [x], [y], outputs [f0 .. f(bits-1)] (sum modulo [2^bits]). *)

val partial_multiplier : Bdd.manager -> n:int -> Driver.spec
(** The paper's Figure 3 function [pm_n]: the [n^2] partial-product bits
    [p_{i,j}] are primary inputs, the outputs are the [2n] product bits
    [r_k = bits of sum p_{i,j} 2^(i+j)]. *)

val rd : Bdd.manager -> inputs:int -> Driver.spec
(** Rate detector [rdXY] (rd53, rd73, rd84): outputs are the binary
    weight of the inputs. *)

val sym9 : Bdd.manager -> Driver.spec
(** [9sym]: 1 iff the input weight is between 3 and 6. *)

val z4ml : Bdd.manager -> Driver.spec
(** 3-bit + 3-bit + carry-in adder (7 inputs, 4 outputs). *)

val x5p1 : Bdd.manager -> Driver.spec
(** Stand-in for [5xp1] (7 inputs, 10 outputs): [5*v + v/8]. *)

val f51m : Bdd.manager -> Driver.spec
(** Stand-in for [f51m] (8 inputs, 8 outputs): low byte of [a*b + a]
    for two 4-bit operands. *)

val clip : Bdd.manager -> Driver.spec
(** Stand-in for [clip] (9 inputs, 5 outputs): signed saturation of a
    9-bit value to 5 bits. *)

val alu2 : Bdd.manager -> Driver.spec
(** Stand-in for [alu2] (10 inputs, 6 outputs): a 4-bit ALU
    (add/sub/and/xor) with carry and zero flags. *)

val count : Bdd.manager -> Driver.spec
(** Stand-in for [count] (35 inputs, 16 outputs): conditional
    increment / load / clear of a 16-bit word. *)

val c499 : Bdd.manager -> Driver.spec
(** Stand-in for [C499] (41 inputs, 32 outputs): single-error
    correction of a 32-bit word with 8 syndrome bits and an enable. *)
