(* The clause of one cube [q] of a LUT's covers: if the fanins satisfy
   [q], [out] takes [b] (1 for an on-cube, 0 for an off-cube).  Written
   as a disjunction, each literal of [q] appears complemented.  Literal
   order: fanin [k-1] down to fanin [0], then the output. *)
let cube_clause cnf buf ~out ~fanins b q =
  let care = Isop.care q and value = Isop.value q in
  let n = ref 0 in
  for j = Array.length fanins - 1 downto 0 do
    if (care lsr j) land 1 = 1 then begin
      buf.(!n) <- Cnf.lit_of_bool fanins.(j) ((value lsr j) land 1 = 0);
      incr n
    end
  done;
  buf.(!n) <- Cnf.lit_of_bool out b;
  Cnf.add_lits cnf buf (!n + 1)

let lut cnf ~out ~fanins cover =
  let k = Array.length fanins in
  if cover.Isop.nvars <> k then
    invalid_arg "Encode.lut: cover arity does not match fanin count";
  let buf = Array.make (k + 1) 0 in
  Array.iter (fun q -> cube_clause cnf buf ~out ~fanins true q) cover.Isop.on;
  Array.iter (fun q -> cube_clause cnf buf ~out ~fanins false q) cover.Isop.off

let constant cnf v b = Cnf.add_clause cnf [ Cnf.lit_of_bool v b ]

let equiv_neg cnf a b =
  Cnf.add_clause cnf [ Cnf.pos a; Cnf.pos b ];
  Cnf.add_clause cnf [ Cnf.neg a; Cnf.neg b ]

let xor_var cnf a b =
  let x = Cnf.fresh cnf in
  Cnf.add_clause cnf [ Cnf.neg x; Cnf.pos a; Cnf.pos b ];
  Cnf.add_clause cnf [ Cnf.neg x; Cnf.neg a; Cnf.neg b ];
  Cnf.add_clause cnf [ Cnf.pos x; Cnf.pos a; Cnf.neg b ];
  Cnf.add_clause cnf [ Cnf.pos x; Cnf.neg a; Cnf.pos b ];
  x

type env = {
  net : Network.t;
  vars : int array;  (* signal id -> CNF var, -1 outside the cone *)
}

let of_network cnf net =
  let vars = Array.make (max (Network.node_count net) 1) (-1) in
  Network.iter_cone net (fun s ->
      let v = Cnf.fresh cnf in
      vars.(Network.signal_id s) <- v;
      match Network.view net s with
      | `Input _ -> ()
      | `Const b -> constant cnf v b
      | `Lut (fanins, tt) ->
          let fv =
            Array.map (fun f -> vars.(Network.signal_id f)) fanins
          in
          Array.iter
            (fun x ->
              if x < 0 then
                invalid_arg "Encode.of_network: fanin outside the cone")
            fv;
          lut cnf ~out:v ~fanins:fv (Isop.of_table tt));
  (* inputs no output depends on sit outside every cone; they still get
     (free) variables so [input_vars] is total *)
  List.iter
    (fun (_, s) ->
      let id = Network.signal_id s in
      if vars.(id) < 0 then vars.(id) <- Cnf.fresh cnf)
    (Network.inputs net);
  { net; vars }

let var_of_signal env s =
  let id = Network.signal_id s in
  if id < 0 || id >= Array.length env.vars || env.vars.(id) < 0 then
    invalid_arg "Encode.var_of_signal: signal outside the encoded cone";
  env.vars.(id)

let input_vars env =
  List.map (fun (n, s) -> (n, var_of_signal env s)) (Network.inputs env.net)

let output_vars env =
  List.map (fun (n, s) -> (n, var_of_signal env s)) (Network.outputs env.net)
