type group = (int * bool) list

let group_vars g = List.map fst g

let swap_rel m f ~rel i j =
  let swapped = Bdd.swap_vars m f i j in
  if rel then Bdd.negate_var m (Bdd.negate_var m swapped i) j else swapped

let symmetric_pair m fs ~rel i j =
  i <> j
  && List.for_all (fun f -> Bdd.equal f (swap_rel m f ~rel i j)) fs

(* The exchange sigma with relative phase [rel] fixes the quadrants
   (x_i, x_j) = (0, rel) and (1, not rel) and swaps the other two,
   a = (0, not rel) with b = (1, rel).  With g_q the cofactor of g on
   quadrant q: sigma(g)_q = g_q on a fixed quadrant, sigma(g)_a = g_b
   and sigma(g)_b = g_a.  So the test and the closure below need only
   quadrant cofactors, and yield the same canonical BDDs as [swap_rel]
   would.  Neither builds a cofactor: the kernel decides questions
   about quadrants where they lie and closes a function in one pass. *)

(* on <= sigma(up), with up = on \/ dc: on the fixed quadrants it is
   on_q <= up_q, which always holds; on the moved ones it is
   on_a <= up_b and on_b <= up_a.  The mirrored test sigma(on) <= up
   is sigma of this one.  A completely specified function has
   [up == on], and the two inclusions say on_a = on_b. *)
let exchangeable m ~on ~up rel i j =
  if up == on then Bdd.equal_cof2 m i j on false (not rel) on true rel
  else
    Bdd.leq_cof2 m i j on false (not rel) up true rel
    && Bdd.leq_cof2 m i j on true rel up false (not rel)

let rec all_exchangeable m rel i j = function
  | [] -> true
  | f :: rest ->
      exchangeable m ~on:(Isf.on f) ~up:(Isf.up m f) rel i j
      && all_exchangeable m rel i j rest

let symmetrizable m fs ~rel i j = i <> j && all_exchangeable m rel i j fs

exception Conflict

(* g \/ sigma(g) keeps g on the fixed quadrants and puts g_a \/ g_b on
   both moved ones.  So the closed on-set there is on_a \/ on_b and
   the closed off-set is off_a \/ off_b, the complement of
   up_a /\ up_b: the closed ISF is the interval between
   [exchange_close] of [on] under \/ and of [up] under /\.  The two
   meet unless on_a \/ on_b <= up_a /\ up_b, whose two nontrivial
   inclusions are the exchange test; then [Conflict] is raised.  A
   function whose moved quadrants already agree is returned as it
   is. *)
let close_one m f rel i j =
  let on = Isf.on f and up = Isf.up m f in
  let fixed g = Bdd.equal_cof2 m i j g false (not rel) g true rel in
  if fixed on && (up == on || fixed up) then f
  else if not (exchangeable m ~on ~up rel i j) then raise Conflict
  else
    Isf.of_on_up m
      ~on:(Bdd.exchange_close m `Or on ~rel i j)
      ~up:(Bdd.exchange_close m `And up ~rel i j)

let rec close_all m rel i j = function
  | [] -> []
  | f :: rest ->
      let f' = close_one m f rel i j in
      f' :: close_all m rel i j rest

let symmetrize m fs ~rel i j =
  if i = j then None
  else
    match close_all m rel i j fs with
    | fs' -> Some fs'
    | exception Conflict -> None

(* Consecutive members of a group, with the xor of their phases.  With
   y_v = x_v xor p_v for a member v of phase p_v, the exchange of v and
   w with phase p_v xor p_w is the plain exchange of y_v and y_w, and
   the transpositions of neighbours generate every permutation: this
   chain generates every exchange of the group. *)
let rec chain = function
  | (v, pv) :: ((w, pw) :: _ as rest) -> (v, w, pv <> pw) :: chain rest
  | [] | [ _ ] -> []

(* Repeat the forced assignments of the chain's exchanges until a
   fixpoint; it terminates because the care set only grows.  Each set
   only ever grows inside its orbit union under the group, and the
   fixpoint is invariant under every generator, hence under the group:
   it is the closure under all pairs, and a conflict appears exactly
   when the on-set's and the off-set's orbit unions meet.  [None] if
   some exchange becomes conflicting. *)
let close_group m fs group =
  let pairs = chain group in
  let rec loop fs =
    let changed = ref false in
    let step fs (i, j, rel) =
      match fs with
      | None -> None
      | Some fs -> (
          match symmetrize m fs ~rel i j with
          | None -> None
          | Some fs' ->
              if not (List.for_all2 Isf.equal fs fs') then changed := true;
              Some fs')
    in
    match List.fold_left step (Some fs) pairs with
    | None -> None
    | Some fs' -> if !changed then loop fs' else Some fs'
  in
  loop fs

type result = { functions : Isf.t list; groups : group list }

let maximize ?(budget = 4000) ?(use_equivalence = true) ?(check = ignore) m fs
    vars =
  let budget = ref budget in
  let merge_groups fs g1 g2 q =
    if !budget <= 0 then None
    else begin
      check ();
      decr budget;
      (* Cheap rejection first: every cross pair must be individually
         symmetrizable before attempting the closure. *)
      let cross_ok =
        List.for_all
          (fun (v, pv) ->
            List.for_all
              (fun (w, pw) -> symmetrizable m fs ~rel:(pv <> (pw <> q)) v w)
              g2)
          g1
      in
      if not cross_ok then None
      else
        let merged = g1 @ List.map (fun (w, pw) -> (w, pw <> q)) g2 in
        match close_group m fs merged with
        | Some fs' -> Some (fs', merged)
        | None -> None
    end
  in
  let phases = if use_equivalence then [ false; true ] else [ false ] in
  (* Greedy: repeatedly scan group pairs, commit the first successful
     merge, until a full scan makes no progress or the budget is gone. *)
  let rec grow fs groups =
    let arr = Array.of_list groups in
    let n = Array.length arr in
    let found = ref None in
    (try
       for a = 0 to n - 1 do
         for b = a + 1 to n - 1 do
           List.iter
             (fun q ->
               if !found = None && !budget > 0 then
                 match merge_groups fs arr.(a) arr.(b) q with
                 | Some (fs', merged) ->
                     found := Some (fs', merged, a, b);
                     raise Exit
                 | None -> ())
             phases
         done
       done
     with Exit -> ());
    match !found with
    | None -> (fs, groups)
    | Some (fs', merged, a, b) ->
        let rest =
          List.filteri (fun idx _ -> idx <> a && idx <> b) groups
        in
        grow fs' (merged :: rest)
  in
  let singletons = List.map (fun v -> [ (v, false) ]) vars in
  let fs', groups = grow fs singletons in
  (* Restore the original variable order inside and across groups. *)
  let groups =
    groups
    |> List.map (List.sort (fun (v, _) (w, _) -> compare v w))
    |> List.sort (fun g1 g2 ->
           match (g1, g2) with
           | (v, _) :: _, (w, _) :: _ -> compare v w
           | _, _ -> 0)
  in
  { functions = fs'; groups }

let partition ?budget ?check m fs vars =
  let isfs = List.map (Isf.of_csf m) fs in
  (maximize ?budget ?check m isfs vars).groups
