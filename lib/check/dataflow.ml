(* The cheap screening tier: functional support swept forward and
   pointwise observability swept backward over the reachable nodes,
   plus a deterministic bit-parallel simulation that witnesses
   reachable codes.  Everything here must be sound-but-incomplete: a
   fact may be missing, never wrong, so the exact engines can trust it
   blindly and turning the screening off changes cost, not findings. *)

(* A small dense bitset over the primary-input index space.  [Check]
   cannot depend on [Decomp.Bits] (the dependency runs the other way),
   and the sets here are tiny, so a local 63-bit-word array does. *)
module Iset = struct
  let empty n = Array.make (max ((n + 62) / 63) 1) 0

  let singleton n i =
    let t = empty n in
    t.(i / 63) <- 1 lsl (i mod 63);
    t

  let union a b = Array.mapi (fun i w -> w lor b.(i)) a

  let subset a b =
    let ok = ref true in
    Array.iteri (fun i w -> if w land lnot b.(i) <> 0 then ok := false) a;
    !ok

  let is_empty t = Array.for_all (fun w -> w = 0) t
end

(* The fanin positions a table depends on, read off its prime cover:
   a table that ignores fanin [j] has no prime cube mentioning [j] (the
   literal could be dropped), and one that depends on it has some cube
   of every cover mentioning it.  Fanin [j] of a LUT whose mask lacks
   bit [j] is vacuous — the refinement over the purely structural
   support. *)
let depends_of cubes = Array.fold_left (fun acc c -> acc lor Isop.care c) 0 cubes
let vacuous depends j = (depends lsr j) land 1 = 0

(* Is the table's output complemented whenever fanin [j] is, on every
   row?  Then a pointwise flip of that fanin is a pointwise flip of
   the node. *)
let totally_sensitive tt j =
  Bv.equal (Bv.cofactor tt j false) (Bv.not_ (Bv.cofactor tt j true))

(* The union of two sorted lists of output names. *)
let rec merge a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
      if x < y then x :: merge xs b
      else if y < x then y :: merge a ys
      else x :: merge xs ys

(* ---- witness refinement: deterministic bit-parallel simulation ---- *)

(* 62 lanes per round in a native int (bits 0..61, so every lane mask
   stays positive on a 63-bit int).  The generator is a fixed
   splitmix-style hash of (round, input index): no global state, no
   [Random], bit-for-bit reproducible across runs and platforms. *)
let lanes = 62
let all_lanes = (1 lsl lanes) - 1
let rounds = 4

let noise round idx =
  let open Int64 in
  let z =
    add
      (mul (of_int (round + 1)) 0x9E3779B97F4A7C15L)
      (mul (of_int (idx + 1)) 0xBF58476D1CE4E5B9L)
  in
  let z = mul (logxor z (shift_right_logical z 30)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 27) in
  to_int z land Stdlib.max_int

(* Splits the lanes [mask] by fanins [j ..], fanin [j] giving bit [j]
   of the code: depth first over the table's rows, pruning every
   subtree no lane reaches, so a round visits at most [lanes] rows per
   level whatever the arity. *)
let rec split_codes words slots k j code mask f =
  if mask <> 0 then
    if j = k then f code mask
    else begin
      let w = words.(slots.(j)) in
      split_codes words slots k (j + 1) code (mask land lnot w) f;
      split_codes words slots k (j + 1) (code lor (1 lsl j)) (mask land w) f
    end

let iter_codes words slots f =
  split_codes words slots (Array.length slots) 0 0 all_lanes f

(* The OR of the on-cubes, each the AND of its literals' words; a cube
   stops reading fanins once no lane is left.  Complemented words set
   the bits above the lanes, so the result is masked. *)
let eval_cover cubes words slots =
  let out = ref 0 in
  for i = 0 to Array.length cubes - 1 do
    let value = Isop.value cubes.(i) in
    let lanes = ref (-1) and rest = ref (Isop.care cubes.(i)) and j = ref 0 in
    while !rest <> 0 && !lanes <> 0 do
      if !rest land 1 = 1 then begin
        let w = words.(slots.(!j)) in
        lanes := !lanes land (if (value lsr !j) land 1 = 1 then w else lnot w)
      end;
      rest := !rest lsr 1;
      incr j
    done;
    out := !out lor !lanes
  done;
  !out land all_lanes

(* Tracking reachable-code witnesses is only worth it where the SAT
   window could run at all; wider tables get no mask. *)
let sim_code_bits = 12

type node_facts = {
  nf_signal : Network.signal;
  nf_vacuous : int list;
  nf_contained : int list;
  nf_obs_outputs : string list;
  nf_codes_seen : int;
  nf_all_codes : bool;
}

type t = {
  t_facts : node_facts list;
  t_by_id : node_facts option array;
  t_iterations : int;
  t_fact_count : int;
}

let analyze net =
  let n = max (Network.node_count net) 1 in
  (* The reachable nodes in id order.  Every fanin precedes its LUT
     (NET003), so this order is topological: the forward sweep reads
     each fanin's final fact and the backward sweep each reader's. *)
  let order = ref [] in
  Network.iter_cone net (fun s -> order := s :: !order);
  let order = Array.of_list (List.rev !order) in
  let nin = List.length (Network.inputs net) in
  let index = Hashtbl.create 16 in
  List.iteri
    (fun k (name, _) ->
      if not (Hashtbl.mem index name) then Hashtbl.add index name k)
    (Network.inputs net);
  (* One read of every node.  A LUT keeps its table, its fanin ids and
     its on-set cover (the support sweep reads its fanin dependence and
     the simulation evaluates it); an input keeps its index; a constant
     keeps its simulation word through every round. *)
  let input_idx = Array.make n (-1) and words = Array.make n 0 in
  let tables = Array.make n None and fanin_ids = Array.make n [||] in
  let on_cubes = Array.make n [||] and codes = Array.make n Bytes.empty in
  (* [arcs.(id)] LUT arcs read signal [id]; the last of them is fanin
     [slot.(id)] of LUT [reader.(id)] *)
  let arcs = Array.make n 0 in
  let reader = Array.make n 0 and slot = Array.make n 0 in
  Array.iter
    (fun s ->
      let id = Network.signal_id s in
      match Network.view net s with
      | `Const b -> words.(id) <- (if b then -1 else 0)
      | `Input nm -> input_idx.(id) <- Hashtbl.find index nm
      | `Lut (fanins, tt) ->
          fanin_ids.(id) <-
            Array.mapi
              (fun j f ->
                let fid = Network.signal_id f in
                if fid >= id then
                  invalid_arg
                    (Printf.sprintf
                       "Dataflow.analyze: NET003: fanin %d of LUT %d does \
                        not precede it"
                       fid id);
                arcs.(fid) <- arcs.(fid) + 1;
                reader.(fid) <- id;
                slot.(fid) <- j;
                fid)
              fanins;
          tables.(id) <- Some tt;
          on_cubes.(id) <- Isop.cover tt true;
          let k = Array.length fanins in
          if k <= sim_code_bits then codes.(id) <- Bytes.make (1 lsl k) '\000')
    order;
  (* Functional support, forward: an over-approximation of each node's
     primary-input support, the structural support minus the fanins
     its table ignores. *)
  let support = Array.make n (Iset.empty nin) in
  Array.iter
    (fun s ->
      let id = Network.signal_id s in
      if input_idx.(id) >= 0 then
        support.(id) <- Iset.singleton nin input_idx.(id)
      else if tables.(id) <> None then begin
        let d = depends_of on_cubes.(id) in
        let acc = ref (Iset.empty nin) in
        Array.iteri
          (fun j fid ->
            if not (vacuous d j) then acc := Iset.union !acc support.(fid))
          fanin_ids.(id);
        support.(id) <- !acc
      end)
    order;
  (* Pointwise observability, backward: the sorted outputs a node
     drives at every input vector.  A signal bound to an output IS that
     output, and a single arc into a totally sensitive table position
     carries a pointwise flip to its reader, so the reader's outputs
     carry over. *)
  let outputs = Array.make n [] in
  List.iter
    (fun (name, s) ->
      let id = Network.signal_id s in
      outputs.(id) <- name :: outputs.(id))
    (Network.outputs net);
  let observed = Array.make n [] in
  for i = Array.length order - 1 downto 0 do
    let id = Network.signal_id order.(i) in
    let chain =
      if arcs.(id) <> 1 then []
      else
        match tables.(reader.(id)) with
        | Some tt when totally_sensitive tt slot.(id) ->
            observed.(reader.(id))
        | _ -> []
    in
    observed.(id) <- merge (List.sort_uniq compare outputs.(id)) chain
  done;
  (* simulation: per-node witnessed codes *)
  for round = 0 to rounds - 1 do
    Array.iter
      (fun s ->
        let id = Network.signal_id s in
        if input_idx.(id) >= 0 then words.(id) <- noise round input_idx.(id)
        else if tables.(id) <> None then begin
          let mask = codes.(id) in
          if Bytes.length mask > 0 then
            iter_codes words fanin_ids.(id) (fun code _ ->
                Bytes.set mask code '\001');
          words.(id) <- eval_cover on_cubes.(id) words fanin_ids.(id)
        end)
      order
  done;
  (* one record per LUT node *)
  let by_id = Array.make n None in
  let fact_count = ref 0 in
  let facts =
    List.filter_map
      (fun s ->
        let id = Network.signal_id s in
        match tables.(id) with
        | None -> None
        | Some _ ->
            let fanins = fanin_ids.(id) in
            let k = Array.length fanins in
            let vacuous = vacuous (depends_of on_cubes.(id)) in
            let nf_vacuous = List.filter vacuous (List.init k Fun.id) in
            let nf_contained =
              if k < 2 then []
              else
                List.filter
                  (fun j ->
                    (not (vacuous j))
                    &&
                    let sj = support.(fanins.(j)) in
                    let rest = ref (Iset.empty nin) in
                    Array.iteri
                      (fun i fid ->
                        if i <> j && not (vacuous i) then
                          rest := Iset.union !rest support.(fid))
                      fanins;
                    (not (Iset.is_empty sj)) && Iset.subset sj !rest)
                  (List.init k Fun.id)
            in
            let nf_obs_outputs = observed.(id) in
            let mask = codes.(id) in
            let nf_codes_seen = ref 0 in
            Bytes.iter (fun c -> if c <> '\000' then incr nf_codes_seen) mask;
            let nf_codes_seen = !nf_codes_seen in
            let nf_all_codes =
              Bytes.length mask > 0 && nf_codes_seen = Bytes.length mask
            in
            let nf =
              {
                nf_signal = s;
                nf_vacuous;
                nf_contained;
                nf_obs_outputs;
                nf_codes_seen;
                nf_all_codes;
              }
            in
            fact_count :=
              !fact_count + List.length nf_vacuous + List.length nf_contained
              + (if nf_obs_outputs <> [] then 1 else 0)
              + if nf_all_codes then 1 else 0;
            by_id.(id) <- Some nf;
            Some nf)
      (Array.to_list order)
  in
  {
    t_facts = facts;
    t_by_id = by_id;
    t_iterations = 2 * Array.length order;
    t_fact_count = !fact_count;
  }

let facts t = t.t_facts

let fact_of t s =
  let id = Network.signal_id s in
  if id >= 0 && id < Array.length t.t_by_id then t.t_by_id.(id) else None

let iterations t = t.t_iterations
let fact_count t = t.t_fact_count
