type t = { n : int; bits : Bytes.t }

let check_n n =
  if n < 0 || n > 24 then invalid_arg "Bv: variable count out of [0, 24]"

let bytes_for n = max 1 ((1 lsl n) + 7) / 8

let nvars t = t.n

let create n b =
  check_n n;
  { n; bits = Bytes.make (bytes_for n) (if b then '\xff' else '\x00') }

let get t i = Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_mut bits i b =
  let byte = Char.code (Bytes.get bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if b then byte lor mask else byte land lnot mask in
  Bytes.set bits (i lsr 3) (Char.chr byte)

let set t i b =
  let bits = Bytes.copy t.bits in
  set_mut bits i b;
  { t with bits }

let of_fun n f =
  check_n n;
  let bits = Bytes.make (bytes_for n) '\x00' in
  for i = 0 to (1 lsl n) - 1 do
    if f i then set_mut bits i true
  done;
  { n; bits }

let of_cubes n cubes =
  check_n n;
  let bits = Bytes.make (bytes_for n) '\x00' in
  List.iter
    (fun (care, value) ->
      (* The minterms of the cube: [value] with every subset of the
         free positions set, enumerated by [sub - 1 land free]. *)
      let free = ((1 lsl n) - 1) land lnot care in
      let rec fill sub =
        set_mut bits (value lor sub) true;
        if sub <> 0 then fill ((sub - 1) land free)
      in
      fill free)
    cubes;
  { n; bits }

let var n k =
  if k < 0 || k >= n then invalid_arg "Bv.var: index out of range";
  of_fun n (fun i -> (i lsr k) land 1 = 1)

let size t = 1 lsl t.n

let equal a b =
  if a.n <> b.n then invalid_arg "Bv.equal: arity mismatch";
  let rec go i = i = size a || (get a i = get b i && go (i + 1)) in
  go 0

let map2 op a b =
  if a.n <> b.n then invalid_arg "Bv: arity mismatch";
  of_fun a.n (fun i -> op (get a i) (get b i))

let not_ a = of_fun a.n (fun i -> not (get a i))
let and_ = map2 ( && )
let or_ = map2 ( || )
let xor = map2 ( <> )

let count_ones a =
  let c = ref 0 in
  for i = 0 to size a - 1 do
    if get a i then incr c
  done;
  !c

let is_zero a = count_ones a = 0

let cofactor a k b =
  if k < 0 || k >= a.n then invalid_arg "Bv.cofactor: index out of range";
  let bit = if b then 1 lsl k else 0 in
  of_fun a.n (fun i -> get a (i land lnot (1 lsl k) lor bit))

let eval a assignment =
  let idx = ref 0 in
  for k = 0 to a.n - 1 do
    if assignment k then idx := !idx lor (1 lsl k)
  done;
  get a !idx

let of_bdd n f =
  check_n n;
  of_fun n (fun i -> Bdd.eval f (fun k -> (i lsr k) land 1 = 1))

let to_bdd m t =
  let rec go k i =
    (* Build over variables [k .. n-1]; [i] fixes variables [0 .. k-1].
       Descending construction keeps variable 0 on top. *)
    if k = t.n then if get t i then Bdd.one m else Bdd.zero m
    else
      Bdd.ite m (Bdd.var m k) (go (k + 1) (i lor (1 lsl k))) (go (k + 1) i)
  in
  go 0 0

let pp fmt t =
  for i = size t - 1 downto 0 do
    Format.pp_print_char fmt (if get t i then '1' else '0')
  done
