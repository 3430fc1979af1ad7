(* A cube packs its [care] mask in the low [value_shift] bits and its
   [value] mask above them; {!Bv} tables have at most 24 variables. *)
type cube = int

let value_shift = 24
let care c = c land ((1 lsl value_shift) - 1)
let value c = c lsr value_shift

type t = { nvars : int; on : cube array; off : cube array }

(* The recursion prepends each cube it emits to [out], so the list
   holds the cover last cube first. *)
let emit out care value = out := (care lor (value lsl value_shift)) :: !out

(* A table over variables [0 .. j-1] with [j <= word_vars] lives in the
   low [2^j] bits of an int.  A wider one is an array of 32-bit words,
   word [w] holding minterms [32w .. 32w + 31], so its two cofactors on
   the highest variable are the two halves of the array. *)
let word_vars = 5
let full j = (1 lsl (1 lsl j)) - 1

(* Minato–Morreale on the interval [l, u] ([l] inside [u]) over
   variables [0 .. j-1]: emits a prime, irredundant cover of some
   function between [l] and [u], each cube extended by the literals
   [care]/[value] the callers fixed above [j], and returns that
   function.  Cubes that must keep the split variable [x] come from
   the part of [l] the other cofactor of [u] cannot cover; the rest of
   [l] goes to a cover of the two cofactors' common part.  A cofactor
   on [x] has [2^x] minterms, so [bit] is also the shift between the
   two halves of the table. *)
let rec isop_word j l u care value out =
  if l = 0 then 0
  else if u = full j then begin
    emit out care value;
    u
  end
  else begin
    let x = j - 1 in
    let bit = 1 lsl x in
    let l0 = l land full x and l1 = l lsr bit in
    let u0 = u land full x and u1 = u lsr bit in
    let f0 = isop_word x (l0 land lnot u1) u0 (care lor bit) value out in
    let f1 =
      isop_word x (l1 land lnot u0) u1 (care lor bit) (value lor bit) out
    in
    let rest = (l0 land lnot f0) lor (l1 land lnot f1) in
    let fd = isop_word x rest (u0 land u1) care value out in
    f0 lor fd lor ((f1 lor fd) lsl bit)
  end

let rec isop_words j l u care value out =
  if j <= word_vars then [| isop_word j l.(0) u.(0) care value out |]
  else if Array.for_all (fun w -> w = 0) l then Array.make (Array.length l) 0
  else if Array.for_all (fun w -> w = full word_vars) u then begin
    emit out care value;
    u
  end
  else begin
    let x = j - 1 in
    let h = Array.length l / 2 and bit = 1 lsl x in
    let l0 = Array.sub l 0 h and l1 = Array.sub l h h in
    let u0 = Array.sub u 0 h and u1 = Array.sub u h h in
    let minus a b = Array.map2 (fun a b -> a land lnot b) a b in
    let f0 = isop_words x (minus l0 u1) u0 (care lor bit) value out in
    let f1 =
      isop_words x (minus l1 u0) u1 (care lor bit) (value lor bit) out
    in
    let rest =
      Array.init h (fun i ->
          (l0.(i) land lnot f0.(i)) lor (l1.(i) land lnot f1.(i)))
    in
    let fd = isop_words x rest (Array.map2 ( land ) u0 u1) care value out in
    Array.append (Array.map2 ( lor ) f0 fd) (Array.map2 ( lor ) f1 fd)
  end

(* The low [2^min(n, word_vars)] bits of word [w] of the table, a
   minterm's bit set iff [Bv.get tt m = phase]. *)
let word tt phase w =
  let width = 1 lsl min (Bv.nvars tt) word_vars in
  let acc = ref 0 in
  for b = 0 to width - 1 do
    if Bv.get tt ((w * width) + b) = phase then acc := !acc lor (1 lsl b)
  done;
  !acc

let cover tt phase =
  let n = Bv.nvars tt in
  let out = ref [] in
  (if n <= word_vars then
     let w = word tt phase 0 in
     ignore (isop_word n w w 0 0 out)
   else
     let ws = Array.init (1 lsl (n - word_vars)) (word tt phase) in
     ignore (isop_words n ws ws 0 0 out));
  let len = List.length !out in
  let cubes = Array.make len 0 in
  List.iteri (fun i c -> cubes.(len - 1 - i) <- c) !out;
  cubes

let of_table tt = { nvars = Bv.nvars tt; on = cover tt true; off = cover tt false }
