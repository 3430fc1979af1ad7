open Sat

type counters = {
  mutable sat_calls : int;
  mutable sat_conflicts : int;
  mutable windows_built : int;
}

let counters () = { sat_calls = 0; sat_conflicts = 0; windows_built = 0 }

type node_result = {
  signal : Network.signal;
  fanins : Network.signal array;
  care : Bv.t;
  reachable : Bv.t;
  decided : bool;
}

let max_code_bits = 8

(* Rounds of the simulation pre-pass, at most 32 x 62 leaf assignments
   per window.  DESIGN.md section 2.9 records how 4 to 128 rounds, and
   stopping at the first round that reaches no new code, compared. *)
let sim_rounds = 32

(* One window LUT in the simulation: its table, the word slots its
   fanins read in the A copy, and its own A slot; in the center's
   transitive fanout also its B slot and B fanin slots (the center's
   B word is the complement of its A word instead). *)
type sim_node = {
  tt : Bv.t;
  fan_a : int array;
  slot_a : int;
  fan_b : int array;
  slot_b : int;  (* -1 outside the transitive fanout *)
  is_center : bool;
}

(* The pre-pass: [sim_rounds] rounds of 62 random leaf assignments
   pushed through both copies of the window, the same circuit the SAT
   encoding below describes.  A lane is a model of that formula with
   the selector off, so each center code a lane takes is reachable; a
   lane where some root differs is also a model with the selector on,
   so its code is care.  Marks [reach] and [care] in place and returns
   how many codes still lack a care witness (the rounds stop early
   once none does). *)
let simulate_window net w fanins ~reach ~care =
  let n = max (Network.node_count net) 1 in
  let a_of = Array.make n (-1) and b_of = Array.make n (-1) in
  (* slots 0 and 1 hold the constants, then the leaves, then the
     copies of the internals in topological order *)
  let next = ref 2 in
  let alloc () =
    let s = !next in
    incr next;
    s
  in
  let leaves = Window.leaves w in
  Array.iter (fun l -> a_of.(Network.signal_id l) <- alloc ()) leaves;
  let slot_of_a f =
    let id = Network.signal_id f in
    if a_of.(id) >= 0 then a_of.(id)
    else
      match Network.view net f with
      | `Const b -> if b then 1 else 0
      | `Input _ | `Lut _ -> assert false (* would be a leaf *)
  in
  let center = Window.center w in
  let nodes =
    Array.map
      (fun s ->
        match Network.view net s with
        | `Lut (fs, tt) ->
            let id = Network.signal_id s in
            let fan_a = Array.map slot_of_a fs in
            a_of.(id) <- alloc ();
            let is_center = Network.signal_equal s center in
            let fan_b, slot_b =
              if not (Window.in_tfo w s) then ([||], -1)
              else begin
                let fan_b =
                  if is_center then [||]
                  else
                    Array.map
                      (fun f ->
                        let fid = Network.signal_id f in
                        if b_of.(fid) >= 0 then b_of.(fid) else slot_of_a f)
                      fs
                in
                b_of.(id) <- alloc ();
                (fan_b, b_of.(id))
              end
            in
            { tt; fan_a; slot_a = a_of.(id); fan_b; slot_b; is_center }
        | `Input _ | `Const _ -> assert false)
      (Window.internals w)
  in
  let roots = Window.roots w in
  let root_a = Array.map (fun r -> a_of.(Network.signal_id r)) roots in
  let root_b = Array.map (fun r -> b_of.(Network.signal_id r)) roots in
  let center_fans = Array.map slot_of_a fanins in
  let words = Array.make !next 0 in
  words.(1) <- Dataflow.all_lanes;
  let open_codes = ref (Array.length care) in
  let round = ref 0 in
  while !open_codes > 0 && !round < sim_rounds do
    for i = 0 to Array.length leaves - 1 do
      words.(2 + i) <- Dataflow.noise !round i
    done;
    Array.iter
      (fun nd ->
        let a = Dataflow.eval_lut nd.tt words nd.fan_a in
        words.(nd.slot_a) <- a;
        if nd.slot_b >= 0 then
          words.(nd.slot_b) <-
            (if nd.is_center then lnot a land Dataflow.all_lanes
             else Dataflow.eval_lut nd.tt words nd.fan_b))
      nodes;
    let diff = ref 0 in
    for i = 0 to Array.length root_a - 1 do
      diff := !diff lor (words.(root_a.(i)) lxor words.(root_b.(i)))
    done;
    let diff = !diff in
    Dataflow.iter_codes words center_fans (fun code lanes ->
        reach.(code) <- true;
        if lanes land diff <> 0 && not care.(code) then begin
          care.(code) <- true;
          decr open_codes
        end);
    incr round
  done;
  !open_codes

(* The window formula: copy A of the window's LUTs over free leaves,
   copy B of the center's transitive fanout with the center
   complemented, and the gated miter [sel -> some root differs].
   Returns the formula, the selector and the center's fanin variables. *)
let encode net w signal fanins =
  let cnf = Cnf.create () in
  let n = max (Network.node_count net) 1 in
  let var_a = Array.make n (-1) in
  (* A-variable of any fanin a window node can mention: an internal
     (allocated by the topological walk below before any fanout asks
     for it), a pinned constant, or a free leaf *)
  let var_of_a s =
    let id = Network.signal_id s in
    if var_a.(id) >= 0 then var_a.(id)
    else begin
      let v = Cnf.fresh cnf in
      (match Network.view net s with
      | `Const b -> Encode.constant cnf v b
      | `Input _ | `Lut _ -> ());
      var_a.(id) <- v;
      v
    end
  in
  Array.iter (fun l -> ignore (var_of_a l)) (Window.leaves w);
  Array.iter
    (fun s ->
      let id = Network.signal_id s in
      let v = Cnf.fresh cnf in
      (match Network.view net s with
      | `Lut (fs, tt) ->
          Encode.lut cnf ~out:v ~fanins:(Array.map var_of_a fs) tt
      | `Input _ | `Const _ -> assert false);
      var_a.(id) <- v)
    (Window.internals w);
  (* copy B: the center's transitive fanout re-encoded with the center
     complemented; fanins outside the TFO read the A copy *)
  let var_b = Array.make n (-1) in
  Array.iter
    (fun s ->
      if Window.in_tfo w s then begin
        let id = Network.signal_id s in
        let v = Cnf.fresh cnf in
        (if Network.signal_equal s signal then
           Encode.equiv_neg cnf var_a.(id) v
         else
           match Network.view net s with
           | `Lut (fs, tt) ->
               let fv =
                 Array.map
                   (fun f ->
                     let fid = Network.signal_id f in
                     if var_b.(fid) >= 0 then var_b.(fid) else var_of_a f)
                   fs
               in
               Encode.lut cnf ~out:v ~fanins:fv tt
           | `Input _ | `Const _ -> assert false);
        var_b.(id) <- v
      end)
    (Window.internals w);
  (* the gated miter: sel -> some root differs between the copies *)
  let sel = Cnf.fresh cnf in
  let xors =
    Array.map
      (fun r ->
        let id = Network.signal_id r in
        Encode.xor_var cnf var_a.(id) var_b.(id))
      (Window.roots w)
  in
  Cnf.add_clause cnf (Cnf.neg sel :: Array.to_list (Array.map Cnf.pos xors));
  (cnf, sel, Array.map var_of_a fanins)

let add_conflicts counters solver since =
  counters.sat_conflicts <-
    counters.sat_conflicts + (Solver.conflicts solver - since)

let analyze_node ?(tfi_depth = 4) ?(tfo_depth = 4) ?(max_conflicts = 2000)
    ?(simulate = true) ?(check = fun () -> ()) ~counters ctx signal =
  let net = Window.network ctx in
  let fanins =
    match Network.view net signal with
    | `Lut (fs, _) -> fs
    | `Input _ | `Const _ ->
        invalid_arg "Complete_dc.analyze_node: not a LUT node"
  in
  let k = Array.length fanins in
  if k > max_code_bits then None
  else begin
    let w = Window.build ctx ~center:signal ~tfi_depth ~tfo_depth in
    counters.windows_built <- counters.windows_built + 1;
    let ncodes = 1 lsl k in
    let care = Array.make ncodes false and reach = Array.make ncodes false in
    let decided = ref true in
    check ();
    let open_codes =
      if simulate then simulate_window net w fanins ~reach ~care else ncodes
    in
    if open_codes > 0 then begin
      let cnf, sel, fanin_vars = encode net w signal fanins in
      let solver = Solver.create cnf in
      (* conflicts are counted per query, so a query the [check]
         callback aborts still reports its search *)
      let query assumptions =
        counters.sat_calls <- counters.sat_calls + 1;
        let conflicts0 = Solver.conflicts solver in
        match Solver.solve ~assumptions ~max_conflicts ~check solver with
        | r ->
            add_conflicts counters solver conflicts0;
            r
        | exception e ->
            add_conflicts counters solver conflicts0;
            raise e
      in
      for c = 0 to ncodes - 1 do
        if not care.(c) then begin
          check ();
          let base =
            List.init k (fun j ->
                Cnf.lit_of_bool fanin_vars.(j) ((c lsr j) land 1 = 1))
          in
          match query (Cnf.pos sel :: base) with
          | Solver.Sat ->
              care.(c) <- true;
              reach.(c) <- true
          | Solver.Unknown _ ->
              decided := false;
              care.(c) <- true;
              reach.(c) <- true
          | Solver.Unsat -> (
              (* unobservable or unreachable — tell them apart with the
                 selector off (the miter clause then satisfied
                 trivially), unless a lane already reached the code *)
              if not reach.(c) then
                match query (Cnf.neg sel :: base) with
                | Solver.Sat -> reach.(c) <- true
                | Solver.Unsat -> ()
                | Solver.Unknown _ ->
                    decided := false;
                    reach.(c) <- true)
        end
      done
    end;
    Some
      {
        signal;
        fanins;
        care = Bv.of_fun k (fun c -> care.(c));
        reachable = Bv.of_fun k (fun c -> reach.(c));
        decided = !decided;
      }
  end
