let names prefix count = List.init count (Printf.sprintf "%s%d" prefix)

let spec m inputs outputs =
  Driver.spec_of_csf m inputs outputs

let adder m ~bits =
  let x = Bvec.inputs m ~first_var:0 ~width:bits in
  let y = Bvec.inputs m ~first_var:bits ~width:bits in
  let s = Bvec.add_mod m x y in
  spec m (names "x" bits @ names "y" bits) (Bvec.named_outputs "f" s)

let partial_multiplier m ~n =
  (* input p_{i,j} is variable i*n + j; column k sums all p_{i,j} with
     i + j = k, weighted 2^(i+j) *)
  let input_names =
    List.concat
      (List.init n (fun i -> List.init n (fun j -> Printf.sprintf "p%d_%d" i j)))
  in
  let w = 2 * n in
  let partials =
    List.concat
      (List.init n (fun i ->
           List.init n (fun j ->
               let bit = Bdd.var m ((i * n) + j) in
               Array.init w (fun k -> if k = i + j then bit else Bdd.zero m))))
  in
  let r = Bvec.sum m ~width:w partials in
  spec m input_names (Bvec.named_outputs "r" r)

let rd m ~inputs =
  let bits = List.init inputs (Bdd.var m) in
  let weight = Bvec.popcount m bits in
  spec m (names "x" inputs) (Bvec.named_outputs "f" weight)

let sym9 m =
  let bits = List.init 9 (Bdd.var m) in
  let weight = Bvec.popcount m bits in
  let w4 = Bvec.zero_extend m weight ~width:4 in
  let ge3 = Bdd.not_ m (Bvec.ult m w4 (Bvec.consti m ~width:4 3)) in
  let le6 = Bvec.ult m w4 (Bvec.consti m ~width:4 7) in
  spec m (names "x" 9) [ ("f0", Bdd.and_ m ge3 le6) ]

let z4ml m =
  let a = Bvec.inputs m ~first_var:0 ~width:3 in
  let b = Bvec.inputs m ~first_var:3 ~width:3 in
  let cin = [| Bdd.var m 6 |] in
  let s = Bvec.sum m ~width:4 [ a; b; cin ] in
  spec m (names "a" 3 @ names "b" 3 @ [ "cin" ]) (Bvec.named_outputs "f" s)

let x5p1 m =
  let v = Bvec.inputs m ~first_var:0 ~width:7 in
  let five_v = Bvec.mulc m v 5 in
  let v_div8 = Bvec.extract v ~lo:3 ~hi:6 in
  let r =
    Bvec.sum m ~width:10 [ five_v; v_div8 ]
  in
  spec m (names "x" 7) (Bvec.named_outputs "f" r)

let f51m m =
  let a = Bvec.inputs m ~first_var:0 ~width:4 in
  let b = Bvec.inputs m ~first_var:4 ~width:4 in
  let prod = Bvec.mul m a b in
  let r = Bvec.sum m ~width:8 [ prod; a ] in
  spec m (names "a" 4 @ names "b" 4) (Bvec.named_outputs "f" r)

let clip m =
  (* signed 9-bit value v; clip to the signed 5-bit range [-16, 15] *)
  let v = Bvec.inputs m ~first_var:0 ~width:9 in
  let sign = v.(8) in
  let high = Bvec.extract v ~lo:4 ~hi:8 in
  (* positive overflow: sign = 0 and some of bits 4..7 set;
     negative overflow: sign = 1 and some of bits 4..7 clear *)
  let any_high =
    Bdd.or_list m (Array.to_list (Bvec.extract high ~lo:0 ~hi:3))
  in
  let all_high =
    Bdd.and_list m (Array.to_list (Bvec.extract high ~lo:0 ~hi:3))
  in
  let pos_ovf = Bdd.and_ m (Bdd.not_ m sign) any_high in
  let neg_ovf = Bdd.and_ m sign (Bdd.not_ m all_high) in
  let low = Bvec.extract v ~lo:0 ~hi:3 in
  let sat_pos = Bvec.consti m ~width:4 15 and sat_neg = Bvec.consti m ~width:4 0 in
  let low' = Bvec.mux m pos_ovf sat_pos (Bvec.mux m neg_ovf sat_neg low) in
  let out_sign = Bdd.or_ m (Bdd.and_ m sign (Bdd.not_ m pos_ovf)) neg_ovf in
  let outs = Array.append low' [| out_sign |] in
  spec m (names "x" 9) (Bvec.named_outputs "f" outs)

let alu2 m =
  (* op (2 bits, vars 0-1), a (vars 2-5), b (vars 6-9) *)
  let op0 = Bdd.var m 0 and op1 = Bdd.var m 1 in
  let a = Bvec.inputs m ~first_var:2 ~width:4 in
  let b = Bvec.inputs m ~first_var:6 ~width:4 in
  let add = Bvec.add m a b in
  let not_b = Array.map (Bdd.not_ m) b in
  let sub = Bvec.sum m ~width:5 [ a; not_b; [| Bdd.one m |] ] in
  let land_ = Array.init 4 (fun k -> Bdd.and_ m a.(k) b.(k)) in
  let bxor = Array.init 4 (fun k -> Bdd.xor m a.(k) b.(k)) in
  let width5 v = Bvec.zero_extend m v ~width:5 in
  let result =
    Bvec.mux m op1
      (Bvec.mux m op0 (width5 bxor) (width5 land_))
      (Bvec.mux m op0 sub add)
  in
  let r4 = Bvec.extract result ~lo:0 ~hi:3 in
  let carry = result.(4) in
  let zero_flag = Bvec.equal_const m r4 0 in
  spec m
    ([ "op0"; "op1" ] @ names "a" 4 @ names "b" 4)
    (Bvec.named_outputs "r" r4 @ [ ("carry", carry); ("zero", zero_flag) ])

let count m =
  (* d (16, vars 0-15), l (16, vars 16-31), sel (32), en (33), clr (34) *)
  let d = Bvec.inputs m ~first_var:0 ~width:16 in
  let l = Bvec.inputs m ~first_var:16 ~width:16 in
  let sel = Bdd.var m 32 and en = Bdd.var m 33 and clr = Bdd.var m 34 in
  let incremented = Bvec.add_mod m d (Bvec.zero_extend m [| en |] ~width:16) in
  let chosen = Bvec.mux m sel l incremented in
  let out = Bvec.mux m clr (Bvec.consti m ~width:16 0) chosen in
  spec m
    (names "d" 16 @ names "l" 16 @ [ "sel"; "en"; "clr" ])
    (Bvec.named_outputs "q" out)

let c499 m =
  (* data (32, vars 0-31), check (8, vars 32-39), enable (40).
     Group-parity error handling: the 32 data bits form 8 groups of 4;
     syndrome bit t = check_t xor parity(group t); on a parity mismatch
     (and enable) the whole group is complemented.  XOR-dominated like
     the real C499 error-correcting circuit, with local supports that
     keep the flat specification BDDs small. *)
  let data i = Bdd.var m i in
  let syndrome t =
    List.fold_left
      (fun acc k -> Bdd.xor m acc (data ((4 * t) + k)))
      (Bdd.var m (32 + t))
      [ 0; 1; 2; 3 ]
  in
  let enable = Bdd.var m 40 in
  let outs =
    List.init 32 (fun i ->
        let flip = Bdd.and_ m enable (syndrome (i / 4)) in
        (Printf.sprintf "o%d" i, Bdd.xor m (data i) flip))
  in
  spec m (names "d" 32 @ names "c" 8 @ [ "en" ]) outs
