let color_count colors =
  Array.fold_left (fun acc c -> max acc (c + 1)) 0 colors

let is_proper g colors =
  List.for_all (fun (i, j) -> colors.(i) <> colors.(j)) (Ugraph.edges g)

(* Smallest color absent from [v]'s colored neighbours.  [mark] is a
   scratch array of at least [n + 1] stamps; [stamp] must differ from
   every stamp already in it. *)
let smallest_free nb colors mark stamp v =
  let nv = nb.(v) in
  for k = 0 to Array.length nv - 1 do
    let c = colors.(nv.(k)) in
    if c >= 0 then mark.(c) <- stamp
  done;
  let c = ref 0 in
  while mark.(!c) = stamp do
    incr c
  done;
  !c

let greedy g order =
  let size = Ugraph.n g in
  let nb = Array.init size (Ugraph.neighbours g) in
  let colors = Array.make size (-1) in
  let mark = Array.make (size + 1) (-1) in
  List.iteri (fun stamp v -> colors.(v) <- smallest_free nb colors mark stamp v) order;
  colors

(* Saturations are kept incrementally: [seen] marks, per vertex, the
   colors already met among its neighbours, so a vertex's saturation
   is its count of marked colors — the same number the definition
   recounts, hence the same picks. *)
let dsatur g =
  let size = Ugraph.n g in
  let nb = Array.init size (Ugraph.neighbours g) in
  let colors = Array.make size (-1) in
  let seen = Bytes.make (size * size) '\000' in
  let sat = Array.make size 0 in
  for _ = 1 to size do
    (* Pick the uncolored vertex with max (saturation, degree), the
       first one on ties. *)
    let best = ref (-1) and best_sat = ref (-1) and best_deg = ref (-1) in
    for v = 0 to size - 1 do
      if colors.(v) < 0 then begin
        let s = sat.(v) and d = Array.length nb.(v) in
        if s > !best_sat || (s = !best_sat && d > !best_deg) then begin
          best := v;
          best_sat := s;
          best_deg := d
        end
      end
    done;
    let v = !best in
    let c = ref 0 in
    while Bytes.get seen ((v * size) + !c) <> '\000' do
      incr c
    done;
    let c = !c in
    colors.(v) <- c;
    let nv = nb.(v) in
    for k = 0 to Array.length nv - 1 do
      let i = (nv.(k) * size) + c in
      if Bytes.get seen i = '\000' then begin
        Bytes.set seen i '\001';
        sat.(nv.(k)) <- sat.(nv.(k)) + 1
      end
    done
  done;
  colors

exception Budget_exhausted
exception Found

(* The branch and bound shared by [exact] and [colorable]: vertices in
   decreasing-degree order (stable, for better pruning), each trying
   every color below [!bound - 1] that is already in use plus one fresh
   one (symmetry breaking).  A branch reaching [!bound] colors is cut;
   a complete coloring is handed to [complete], which may lower
   [bound].  Raises [Budget_exhausted] at search node [limit + 1]. *)
let search ~limit g bound complete =
  let size = Ugraph.n g in
  let nb = Array.init size (Ugraph.neighbours g) in
  let order = Array.init size Fun.id in
  Array.stable_sort
    (fun a b -> compare (Array.length nb.(b)) (Array.length nb.(a)))
    order;
  let colors = Array.make size (-1) in
  let steps = ref 0 in
  let feasible nv c =
    let ok = ref true and k = ref 0 in
    while !ok && !k < Array.length nv do
      if colors.(nv.(!k)) = c then ok := false;
      incr k
    done;
    !ok
  in
  let rec go idx used_k =
    incr steps;
    if !steps > limit then raise Budget_exhausted;
    if used_k >= !bound then ()
    else if idx = size then complete colors used_k
    else begin
      let v = order.(idx) in
      let nv = nb.(v) in
      for c = 0 to min used_k (!bound - 2) do
        if feasible nv c then begin
          colors.(v) <- c;
          go (idx + 1) (max used_k (c + 1));
          colors.(v) <- -1
        end
      done
    end
  in
  go 0 0

let exact ?(limit = 200_000) g =
  if Ugraph.n g = 0 then Some [||]
  else begin
    let upper = dsatur g in
    let best = ref upper in
    let best_k = ref (color_count upper) in
    let complete colors used_k =
      best := Array.copy colors;
      best_k := used_k
    in
    match search ~limit g best_k complete with
    | () -> Some !best
    | exception Budget_exhausted -> None
  end

let colorable ?(limit = 200_000) g k =
  match search ~limit g (ref (k + 1)) (fun _ _ -> raise Found) with
  | () -> Some false
  | exception Found -> Some true
  | exception Budget_exhausted -> None
