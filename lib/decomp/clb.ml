type policy = First_fit | Max_matching

let distinct_inputs net u v =
  let ins =
    List.sort_uniq compare
      (List.map Network.signal_id (Network.fanins net u)
      @ List.map Network.signal_id (Network.fanins net v))
  in
  List.length ins

(* The XC3000 rule, parametric in the LUT size [k]: two functions of up
   to [k - 1] inputs each sharing at most [k] distinct inputs fit one
   CLB.  At the paper's k = 5 this is exactly the 4/4/5 rule. *)
let mergeable ?(lut_size = 5) net u v =
  (not (Network.signal_equal u v))
  && List.length (Network.fanins net u) <= lut_size - 1
  && List.length (Network.fanins net v) <= lut_size - 1
  && distinct_inputs net u v <= lut_size

(* [mergeable] over every pair, with each LUT's fanins read once: the
   fanin count, and the fanin ids as a sorted duplicate-free array, so
   the distinct-input count of a pair is the size of a merge walk. *)
let merge_graph ?(lut_size = 5) net =
  let luts = Array.of_list (Network.lut_signals net) in
  let count = Array.length luts in
  let arity = Array.make count 0 in
  let ids =
    Array.mapi
      (fun a s ->
        let fanins = Network.fanins net s in
        arity.(a) <- List.length fanins;
        Array.of_list (List.sort_uniq compare (List.map Network.signal_id fanins)))
      luts
  in
  (* |x ∪ y| <= lut_size for ascending [x] and [y]; the walk stops once
     the count passes [lut_size]. *)
  let union_fits x y =
    let nx = Array.length x and ny = Array.length y in
    let i = ref 0 and j = ref 0 and n = ref 0 in
    while !n <= lut_size && !i < nx && !j < ny do
      let xi = x.(!i) and yj = y.(!j) in
      if xi <= yj then incr i;
      if yj <= xi then incr j;
      incr n
    done;
    !n + (nx - !i) + (ny - !j) <= lut_size
  in
  let g = Ugraph.create count in
  for a = 0 to count - 1 do
    if arity.(a) <= lut_size - 1 then
      for b = a + 1 to count - 1 do
        if
          arity.(b) <= lut_size - 1
          && (not (Network.signal_equal luts.(a) luts.(b)))
          && union_fits ids.(a) ids.(b)
        then Ugraph.add_edge g a b
      done
  done;
  (luts, g)

(* The merge graph is quadratic in the LUT count; build it (and the
   matching) once per query and derive both the pairs and the count
   from the same matching. *)
let matching_of ?lut_size policy net =
  let luts, g = merge_graph ?lut_size net in
  let matching =
    match policy with
    | First_fit -> Matching.greedy g
    | Max_matching -> Matching.maximum g
  in
  (luts, matching)

let pairs_with_lut_count ?lut_size policy net =
  let luts, matching = matching_of ?lut_size policy net in
  (List.map (fun (a, b) -> (luts.(a), luts.(b))) matching, Array.length luts)

let pairs ?lut_size policy net = fst (pairs_with_lut_count ?lut_size policy net)

let clb_count ?lut_size policy net =
  let pairs, lut_count = pairs_with_lut_count ?lut_size policy net in
  lut_count - List.length pairs
