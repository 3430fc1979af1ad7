(* Bit-parallel truth-table simulation of LUT networks.

   This is the benchmark's own reference evaluator: it reads a network
   only through [Network.view] (fanins and local truth tables) and
   never touches the BDD package, so a decomposed network can be
   checked against an independent gate network or against the
   specification's BDDs evaluated pointwise. *)

let lanes = 62

type vectors = {
  inputs : string array;
  blocks : int array array;  (** [blocks.(b).(i)]: lanes of input [i] *)
  count : int;  (** number of valid vectors *)
}

let exhaustive_limit = 16

(* Every assignment when there are at most [exhaustive_limit] inputs,
   otherwise [random] seeded vectors. *)
let vectors ~seed ~random inputs =
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  if n <= exhaustive_limit then begin
    let count = 1 lsl n in
    let nblocks = (count + lanes - 1) / lanes in
    let blocks =
      Array.init nblocks (fun b ->
          Array.init n (fun i ->
              let w = ref 0 in
              for l = 0 to lanes - 1 do
                let v = (b * lanes) + l in
                if v < count && (v lsr i) land 1 = 1 then w := !w lor (1 lsl l)
              done;
              !w))
    in
    { inputs; blocks; count }
  end
  else begin
    let st = Random.State.make [| seed; n; 0x5eed |] in
    let nblocks = (random + lanes - 1) / lanes in
    let blocks =
      Array.init nblocks (fun _ ->
          Array.init n (fun _ ->
              let b () = Random.State.bits st in
              b () lor (b () lsl 30) lor ((b () land 3) lsl 60)))
    in
    { inputs; blocks; count = nblocks * lanes }
  end

let lane_mask vs b =
  let valid = min lanes (vs.count - (b * lanes)) in
  if valid >= lanes then (1 lsl lanes) - 1 else (1 lsl valid) - 1

(* One word per output of [net] for block [b]; inputs absent from the
   vector set are an error of the caller. *)
let simulate vs net b =
  let word_of_input = Hashtbl.create 64 in
  Array.iteri (fun i name -> Hashtbl.replace word_of_input name vs.blocks.(b).(i)) vs.inputs;
  let n = Network.node_count net in
  let value = Array.make n 0 in
  let all = (1 lsl lanes) - 1 in
  for id = 0 to n - 1 do
    value.(id) <-
      (match Network.view net (Network.signal_of_id net id) with
      | `Input name -> (
          match Hashtbl.find_opt word_of_input name with
          | Some w -> w
          | None -> invalid_arg ("Sim.simulate: no vectors for input " ^ name))
      | `Const b -> if b then all else 0
      | `Lut (fanins, tt) ->
          let k = Array.length fanins in
          let ws = Array.map (fun s -> value.(Network.signal_id s)) fanins in
          let acc = ref 0 in
          for r = 0 to (1 lsl k) - 1 do
            if Bv.get tt r then begin
              let term = ref all in
              for j = 0 to k - 1 do
                term := !term land (if (r lsr j) land 1 = 1 then ws.(j) else lnot ws.(j))
              done;
              acc := !acc lor !term
            end
          done;
          !acc land all)
  done;
  List.map (fun (name, s) -> (name, value.(Network.signal_id s))) (Network.outputs net)

(* The same words from BDDs over variables [0 ..], input [i] of the
   vector set being variable [i]. *)
let eval_bdds vs fs b =
  let words = vs.blocks.(b) in
  List.map
    (fun (name, f) ->
      let w = ref 0 in
      for l = 0 to lanes - 1 do
        if Bdd.eval f (fun v -> (words.(v) lsr l) land 1 = 1) then w := !w lor (1 lsl l)
      done;
      (name, !w))
    fs

(* Names of the outputs on which [got] and [want] differ over the
   vector set (an output missing from [got] counts as differing). *)
let mismatches vs ~got ~want =
  let bad = Hashtbl.create 8 in
  for b = 0 to Array.length vs.blocks - 1 do
    let mask = lane_mask vs b in
    let g = got b in
    List.iter
      (fun (name, w) ->
        match List.assoc_opt name g with
        | Some w' when w land mask = w' land mask -> ()
        | _ -> Hashtbl.replace bad name ())
      (want b)
  done;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) bad [])

(* A structural digest of a network: equal digests mean the same LUTs
   over the same fanins in the same order.  Used to check that every
   pass produces the network the first pass verified. *)
let fingerprint net =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, _) -> Buffer.add_string buf name; Buffer.add_char buf ',')
    (Network.inputs net);
  for id = 0 to Network.node_count net - 1 do
    match Network.view net (Network.signal_of_id net id) with
    | `Input name -> Printf.bprintf buf "i%s;" name
    | `Const b -> Printf.bprintf buf "c%b;" b
    | `Lut (fanins, tt) ->
        Array.iter (fun s -> Printf.bprintf buf "%d," (Network.signal_id s)) fanins;
        for r = 0 to (1 lsl Array.length fanins) - 1 do
          Buffer.add_char buf (if Bv.get tt r then '1' else '0')
        done;
        Buffer.add_char buf ';'
  done;
  List.iter
    (fun (name, s) -> Printf.bprintf buf "o%s=%d;" name (Network.signal_id s))
    (Network.outputs net);
  Digest.to_hex (Digest.string (Buffer.contents buf))
