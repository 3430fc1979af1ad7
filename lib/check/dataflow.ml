(* The cheap screening tier: a worklist fixpoint over pluggable
   lattices, plus the three shipped domains (ternary constants,
   functional support, pointwise observability) and a deterministic
   bit-parallel simulation that witnesses reachable codes.  Everything
   here must be sound-but-incomplete: a fact may be missing, never
   wrong, so the exact engines can trust it blindly and turning the
   screening off changes cost, not findings. *)

type direction = Forward | Backward

type env = {
  e_net : Network.t;
  e_order : Network.signal array;  (* reachable nodes, topological *)
  e_rank : int array;  (* signal id -> rank, -1 unreachable *)
  e_fanouts : Network.signal list array;  (* id -> LUT fanout arcs *)
  e_outputs : string list array;  (* id -> primary outputs bound to it *)
  e_inputs : (string, int) Hashtbl.t;
  e_input_count : int;
}

let env net =
  let n = max (Network.node_count net) 1 in
  let rank = Array.make n (-1) in
  let fanouts = Array.make n [] in
  let outputs = Array.make n [] in
  let order = ref [] in
  let next = ref 0 in
  Network.iter_cone net (fun s ->
      let id = Network.signal_id s in
      rank.(id) <- !next;
      incr next;
      order := s :: !order;
      match Network.view net s with
      | `Input _ | `Const _ -> ()
      | `Lut (fanins, _) ->
          Array.iter
            (fun f ->
              let fid = Network.signal_id f in
              fanouts.(fid) <- s :: fanouts.(fid))
            fanins);
  Array.iteri (fun i l -> fanouts.(i) <- List.rev l) fanouts;
  List.iter
    (fun (name, s) ->
      let id = Network.signal_id s in
      outputs.(id) <- outputs.(id) @ [ name ])
    (Network.outputs net);
  let inputs = Hashtbl.create 16 in
  List.iteri
    (fun k (name, _) ->
      if not (Hashtbl.mem inputs name) then Hashtbl.add inputs name k)
    (Network.inputs net);
  {
    e_net = net;
    e_order = Array.of_list (List.rev !order);
    e_rank = rank;
    e_fanouts = fanouts;
    e_outputs = outputs;
    e_inputs = inputs;
    e_input_count = List.length (Network.inputs net);
  }

let env_network e = e.e_net
let fanout_arcs e s = e.e_fanouts.(Network.signal_id s)
let outputs_of e s = e.e_outputs.(Network.signal_id s)
let input_index e name = Hashtbl.find e.e_inputs name
let input_count e = e.e_input_count

module type DOMAIN = sig
  type fact

  val name : string
  val direction : direction
  val bottom : fact
  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact
  val height_bound : int
  val widen : fact -> fact -> fact
  val transfer : env -> (Network.signal -> fact) -> Network.signal -> fact
end

module Fixpoint (D : DOMAIN) = struct
  type result = {
    fact_of : Network.signal -> D.fact;
    iterations : int;
    widenings : int;
  }

  let run env =
    let n = Array.length env.e_rank in
    let facts = Array.make n D.bottom in
    let lookup s = facts.(Network.signal_id s) in
    let updates = Array.make n 0 in
    (* Priority worklist keyed by topological rank (reversed for a
       backward domain), so a DAG converges in one sweep and the
       processing order is deterministic.  The queued flag keeps every
       node at most once in the heap, bounding it by the cone size. *)
    let prio =
      match D.direction with
      | Forward -> fun id -> env.e_rank.(id)
      | Backward -> fun id -> -env.e_rank.(id)
    in
    let heap = Array.make (max (Array.length env.e_order) 1) (-1) in
    let size = ref 0 in
    let queued = Array.make n false in
    let swap i j =
      let t = heap.(i) in
      heap.(i) <- heap.(j);
      heap.(j) <- t
    in
    let push id =
      if not queued.(id) then begin
        queued.(id) <- true;
        heap.(!size) <- id;
        let i = ref !size in
        incr size;
        while
          !i > 0 && prio heap.(!i) < prio heap.((!i - 1) / 2)
        do
          swap !i ((!i - 1) / 2);
          i := (!i - 1) / 2
        done
      end
    in
    let pop () =
      let top = heap.(0) in
      decr size;
      heap.(0) <- heap.(!size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let best = ref !i in
        if l < !size && prio heap.(l) < prio heap.(!best) then best := l;
        if r < !size && prio heap.(r) < prio heap.(!best) then best := r;
        if !best = !i then continue := false
        else begin
          swap !i !best;
          i := !best
        end
      done;
      queued.(top) <- false;
      top
    in
    Array.iter (fun s -> push (Network.signal_id s)) env.e_order;
    let iterations = ref 0 and widenings = ref 0 in
    while !size > 0 do
      let id = pop () in
      let s = Network.signal_of_id env.e_net id in
      incr iterations;
      let proposed = D.transfer env lookup s in
      let joined = D.join facts.(id) proposed in
      if not (D.equal joined facts.(id)) then begin
        updates.(id) <- updates.(id) + 1;
        let accepted =
          if updates.(id) > D.height_bound then begin
            incr widenings;
            D.widen facts.(id) joined
          end
          else joined
        in
        facts.(id) <- accepted;
        match D.direction with
        | Forward -> List.iter (fun m -> push (Network.signal_id m)) env.e_fanouts.(id)
        | Backward -> (
            match Network.view env.e_net s with
            | `Input _ | `Const _ -> ()
            | `Lut (fanins, _) ->
                Array.iter
                  (fun f ->
                    let fid = Network.signal_id f in
                    if env.e_rank.(fid) >= 0 then push fid)
                  fanins)
      end
    done;
    { fact_of = lookup; iterations = !iterations; widenings = !widenings }
end

(* ---- domain 1: ternary 0/1/X constant propagation (forward) ---- *)

module Ternary = struct
  type fact = Bot | Zero | One | Any

  let join a b =
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Zero, Zero -> Zero
    | One, One -> One
    | _ -> Any

  let of_bool b = if b then One else Zero

  let domain ?(input_env = fun _ -> None) () : (module DOMAIN with type fact = fact) =
    (module struct
      type nonrec fact = fact

      let name = "ternary"
      let direction = Forward
      let bottom = Bot
      let equal (a : fact) b = a = b
      let join = join
      let height_bound = 2 (* Bot < {Zero, One} < Any *)
      let widen _ _ = Any

      let transfer env lookup s =
        match Network.view env.e_net s with
        | `Const b -> of_bool b
        | `Input nm -> (
            match input_env nm with Some b -> of_bool b | None -> Any)
        | `Lut (fanins, tt) ->
            let vals = Array.map lookup fanins in
            (* An unprocessed fanin stays Bot until the worklist gets
               there; postponing (rather than treating Bot as Any)
               keeps the transfer monotone in the looked-up facts. *)
            if Array.exists (fun v -> v = Bot) vals then Bot
            else begin
              let k = Array.length fanins in
              let acc = ref Bot in
              for c = 0 to (1 lsl k) - 1 do
                let consistent = ref true in
                for j = 0 to k - 1 do
                  let bit = (c lsr j) land 1 = 1 in
                  match vals.(j) with
                  | Zero when bit -> consistent := false
                  | One when not bit -> consistent := false
                  | _ -> ()
                done;
                if !consistent then acc := join !acc (of_bool (Bv.get tt c))
              done;
              !acc
            end
    end)
end

(* ---- domain 2: functional-support over-approximation (forward) ---- *)

(* A small dense bitset over the primary-input index space.  [Check]
   cannot depend on [Decomp.Bits] (the dependency runs the other way),
   and the sets here are tiny, so a local 63-bit-word array does. *)
module Iset = struct
  type t = int array

  let words n = max ((n + 62) / 63) 1
  let empty n = Array.make (words n) 0
  let equal (a : t) b = a = b

  let add t i =
    let t = Array.copy t in
    t.(i / 63) <- t.(i / 63) lor (1 lsl (i mod 63));
    t

  let union a b = Array.mapi (fun i w -> w lor b.(i)) a

  let subset a b =
    let ok = ref true in
    Array.iteri (fun i w -> if w land lnot b.(i) <> 0 then ok := false) a;
    !ok

  let is_empty t = Array.for_all (fun w -> w = 0) t
end

(* Does the local table provably ignore fanin [j]?  A single cofactor
   pair comparison — the "single-cube" refinement over the purely
   structural support. *)
let vacuous tt j = Bv.equal (Bv.cofactor tt j false) (Bv.cofactor tt j true)

let support_domain env0 : (module DOMAIN with type fact = Iset.t) =
  let nin = env0.e_input_count in
  (module struct
    type fact = Iset.t

    let name = "support"
    let direction = Forward
    let bottom = Iset.empty nin
    let equal = Iset.equal
    let join = Iset.union

    (* The powerset chain has height [nin]; the DAG never gets there,
       and widening to the joined fact is already an upper bound. *)
    let height_bound = nin + 1
    let widen _ proposed = proposed

    let transfer env lookup s =
      match Network.view env.e_net s with
      | `Const _ -> Iset.empty nin
      | `Input nm -> Iset.add (Iset.empty nin) (input_index env nm)
      | `Lut (fanins, tt) ->
          let acc = ref (Iset.empty nin) in
          Array.iteri
            (fun j f -> if not (vacuous tt j) then acc := Iset.union !acc (lookup f))
            fanins;
          !acc
  end)

(* ---- domain 3: pointwise observability (backward) ---- *)

(* Is the table's output complemented whenever fanin [j] is, on every
   row?  Then a pointwise flip of that fanin is a pointwise flip of
   the node. *)
let totally_sensitive tt j =
  Bv.equal (Bv.cofactor tt j false) (Bv.not_ (Bv.cofactor tt j true))

let obs_domain : (module DOMAIN with type fact = string list) =
  (module struct
    (* Sorted list of primary outputs the node pointwise drives.  This
       is an under-approximation domain: an element may only be added
       when it is certainly true, so there is no sound "top" to widen
       to — termination comes from the finite output set instead. *)
    type fact = string list

    let name = "observability"
    let direction = Backward
    let bottom = []
    let equal (a : fact) b = a = b

    let rec join a b =
      match (a, b) with
      | [], l | l, [] -> l
      | x :: xs, y :: ys ->
          if x < y then x :: join xs b
          else if y < x then y :: join a ys
          else x :: join xs ys

    let height_bound = max_int
    let widen _ proposed = proposed

    let transfer env lookup s =
      (* A signal bound to an output IS that output, so flipping it
         flips the output at every vector; and a single arc into a
         totally sensitive table position propagates a pointwise flip
         to the (unique) reader, so the reader's outputs carry over. *)
      let seed = List.sort_uniq compare (outputs_of env s) in
      let chain =
        match fanout_arcs env s with
        | [ m ] -> (
            match Network.view env.e_net m with
            | `Input _ | `Const _ -> []
            | `Lut (fanins, tt) ->
                let j = ref (-1) in
                Array.iteri
                  (fun i f -> if Network.signal_equal f s then j := i)
                  fanins;
                if !j >= 0 && totally_sensitive tt !j then lookup m else [])
        | _ -> []
      in
      join seed chain
  end)

(* ---- witness refinement: deterministic bit-parallel simulation ---- *)

(* 62 lanes per round in a native int (bits 0..61, so every lane mask
   stays positive on a 63-bit int).  The generator is a fixed
   splitmix-style hash of (round, input index): no global state, no
   [Random], bit-for-bit reproducible across runs and platforms. *)
let lanes = 62
let all_lanes = (1 lsl lanes) - 1

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

(* Both walks below split the lanes [mask] by fanins [j ..], fanin [j]
   giving bit [j] of the code: depth first over the table's rows,
   pruning every subtree no lane reaches, so a round visits at most
   [lanes] rows per level whatever the arity. *)
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

let rec eval_rows tt words slots k j code mask =
  if mask = 0 then 0
  else if j = k then if Bv.get tt code then mask else 0
  else
    let w = words.(slots.(j)) in
    eval_rows tt words slots k (j + 1) code (mask land lnot w)
    lor eval_rows tt words slots k (j + 1) (code lor (1 lsl j)) (mask land w)

let eval_lut tt words slots =
  eval_rows tt words slots (Array.length slots) 0 0 all_lanes

(* Tracking reachable-code witnesses is only worth it where the SAT
   window could run at all; wider tables get no mask. *)
let sim_code_bits = 12

type node_facts = {
  nf_signal : Network.signal;
  nf_const : bool option;
  nf_vacuous : int list;
  nf_contained : int list;
  nf_obs_outputs : string list;
  nf_codes_seen : int;
  nf_all_codes : bool;
  nf_both_values : bool;
}

type t = {
  t_facts : node_facts list;
  t_by_id : node_facts option array;
  t_iterations : int;
  t_fact_count : int;
}

let analyze ?(sim_rounds = 4) ?input_env net =
  let e = env net in
  let n = Array.length e.e_rank in
  let (module T) = Ternary.domain ?input_env () in
  let module FT = Fixpoint (T) in
  let tern = FT.run e in
  let (module S) = support_domain e in
  let module FS = Fixpoint (S) in
  let sup = FS.run e in
  let (module O) = obs_domain in
  let module FO = Fixpoint (O) in
  let obs = FO.run e in
  (* simulation: per-node witnessed codes and output values *)
  let codes = Array.make n Bytes.empty in
  let seen0 = Array.make n false and seen1 = Array.make n false in
  Array.iter
    (fun s ->
      match Network.view net s with
      | `Lut (fanins, _) ->
          let k = Array.length fanins in
          if k <= sim_code_bits then
            codes.(Network.signal_id s) <- Bytes.make (1 lsl k) '\000'
      | `Input _ | `Const _ -> ())
    e.e_order;
  let words = Array.make n 0 in
  let fanin_ids =
    Array.map
      (fun s ->
        match Network.view net s with
        | `Lut (fanins, _) -> Array.map Network.signal_id fanins
        | `Input _ | `Const _ -> [||])
      e.e_order
  in
  let pinned = match input_env with Some f -> f | None -> fun _ -> None in
  for round = 0 to sim_rounds - 1 do
    Array.iteri
      (fun i s ->
        let id = Network.signal_id s in
        (match Network.view net s with
        | `Const b -> words.(id) <- (if b then -1 else 0)
        | `Input nm ->
            words.(id) <-
              (match pinned nm with
              | Some true -> -1
              | Some false -> 0
              | None -> noise round (input_index e nm))
        | `Lut (_, tt) ->
            let mask = codes.(id) in
            if Bytes.length mask > 0 then
              iter_codes words fanin_ids.(i) (fun code _ ->
                  Bytes.set mask code '\001');
            words.(id) <- eval_lut tt words fanin_ids.(i));
        let w = words.(id) land all_lanes in
        if w <> 0 then seen1.(id) <- true;
        if w <> all_lanes then seen0.(id) <- true)
      e.e_order
  done;
  (* fold the domain results into one record per LUT node *)
  let by_id = Array.make n None in
  let fact_count = ref 0 in
  let facts =
    List.filter_map
      (fun s ->
        match Network.view net s with
        | `Input _ | `Const _ -> None
        | `Lut (fanins, tt) ->
            let id = Network.signal_id s in
            let k = Array.length fanins in
            let nf_const =
              match tern.FT.fact_of s with
              | Ternary.Zero -> Some false
              | Ternary.One -> Some true
              | Ternary.Bot | Ternary.Any -> None
            in
            let nf_vacuous =
              List.filter (fun j -> vacuous tt j) (List.init k Fun.id)
            in
            let nf_contained =
              if k < 2 then []
              else
                List.filter
                  (fun j ->
                    (not (vacuous tt j))
                    &&
                    let sj = sup.FS.fact_of fanins.(j) in
                    let rest = ref (Iset.empty e.e_input_count) in
                    Array.iteri
                      (fun i f ->
                        if i <> j && not (vacuous tt i) then
                          rest := Iset.union !rest (sup.FS.fact_of f))
                      fanins;
                    (not (Iset.is_empty sj)) && Iset.subset sj !rest)
                  (List.init k Fun.id)
            in
            let nf_obs_outputs = obs.FO.fact_of s in
            let mask = codes.(id) in
            let nf_codes_seen = ref 0 in
            Bytes.iter
              (fun c -> if c <> '\000' then incr nf_codes_seen)
              mask;
            let nf_codes_seen = !nf_codes_seen in
            let nf_all_codes =
              Bytes.length mask > 0 && nf_codes_seen = Bytes.length mask
            in
            let nf =
              {
                nf_signal = s;
                nf_const;
                nf_vacuous;
                nf_contained;
                nf_obs_outputs;
                nf_codes_seen;
                nf_all_codes;
                nf_both_values = seen0.(id) && seen1.(id);
              }
            in
            fact_count :=
              !fact_count
              + (if nf_const <> None then 1 else 0)
              + List.length nf_vacuous + List.length nf_contained
              + (if nf_obs_outputs <> [] then 1 else 0)
              + if nf_all_codes then 1 else 0;
            by_id.(id) <- Some nf;
            Some nf)
      (Array.to_list e.e_order)
  in
  {
    t_facts = facts;
    t_by_id = by_id;
    t_iterations = tern.FT.iterations + sup.FS.iterations + obs.FO.iterations;
    t_fact_count = !fact_count;
  }

let facts t = t.t_facts

let fact_of t s =
  let id = Network.signal_id s in
  if id >= 0 && id < Array.length t.t_by_id then t.t_by_id.(id) else None

let iterations t = t.t_iterations
let fact_count t = t.t_fact_count
