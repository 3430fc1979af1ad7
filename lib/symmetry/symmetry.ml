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
   would. *)

(* on <= sigma(up), with up = on \/ dc: on the fixed quadrants it is
   on_q <= up_q, which always holds; on the moved ones it is
   on_a <= up_b and on_b <= up_a.  The mirrored test sigma(on) <= up
   is sigma of this one.  The cofactors on [i] are built (the computed
   table shares them across every [j]); the quadrants on [j] are only
   compared, so they are decided without building them.  A completely
   specified function has [up == on]: it restricts one DAG, not two,
   and the two inclusions say on_a = on_b. *)
let exchangeable m f rel i j =
  let on = Isf.on f and up = Isf.up m f in
  let on0 = Bdd.restrict m on i false and up1 = Bdd.restrict m up i true in
  if up == on then Bdd.equal_cof m j on0 (not rel) up1 rel
  else
    Bdd.leq_cof m j on0 (not rel) up1 rel
    &&
    let on1 = Bdd.restrict m on i true and up0 = Bdd.restrict m up i false in
    Bdd.leq_cof m j on1 rel up0 (not rel)

let rec all_exchangeable m rel i j = function
  | [] -> true
  | f :: rest -> exchangeable m f rel i j && all_exchangeable m rel i j rest

let symmetrizable m fs ~rel i j = i <> j && all_exchangeable m rel i j fs

(* g with both moved quadrants replaced by [u]; [c] and [d] are g's
   cofactors on the fixed quadrants (0, rel) and (1, not rel). *)
let with_moved m rel i j ~c ~d u =
  let vj = Bdd.var m j in
  let lo = if rel then Bdd.ite m vj c u else Bdd.ite m vj u c in
  let hi = if rel then Bdd.ite m vj u d else Bdd.ite m vj d u in
  Bdd.ite m (Bdd.var m i) hi lo

exception Conflict

(* g \/ sigma(g) keeps g on the fixed quadrants and puts g_a \/ g_b on
   both moved ones.  So the closed on-set there is u_on = on_a \/ on_b
   and the closed off-set is off_a \/ off_b, the complement of
   u_up = up_a /\ up_b; they meet unless u_on <= u_up, and then
   [Conflict] is raised.  The closed dc-set is the old one on the fixed
   quadrants and u_up /\ not u_on on the moved ones.  Complements are
   canonical, so the off-sets agree exactly when the up-sets do. *)
let close_one m f rel i j =
  let on = Isf.on f and up = Isf.up m f in
  let on0 = Bdd.restrict m on i false and on1 = Bdd.restrict m on i true in
  let up0 = Bdd.restrict m up i false and up1 = Bdd.restrict m up i true in
  let on_a = Bdd.restrict m on0 j (not rel)
  and on_b = Bdd.restrict m on1 j rel in
  let up_a = Bdd.restrict m up0 j (not rel)
  and up_b = Bdd.restrict m up1 j rel in
  if Bdd.equal on_a on_b && Bdd.equal up_a up_b then f
  else
    let u_on = Bdd.or_ m on_a on_b and u_up = Bdd.and_ m up_a up_b in
    if not (Bdd.leq m u_on u_up) then raise Conflict;
    let dc = Isf.dc f in
    let dc0 = Bdd.restrict m dc i false and dc1 = Bdd.restrict m dc i true in
    let on' =
      with_moved m rel i j ~c:(Bdd.restrict m on0 j rel)
        ~d:(Bdd.restrict m on1 j (not rel)) u_on
    and dc' =
      with_moved m rel i j ~c:(Bdd.restrict m dc0 j rel)
        ~d:(Bdd.restrict m dc1 j (not rel))
        (Bdd.diff m u_up u_on)
    in
    Isf.make m ~on:on' ~dc:dc'

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

(* Exchange relations induced by the phases of a group: every pair of
   members, with the xor of their phases. *)
let group_pairs g =
  let rec go = function
    | [] -> []
    | (v, pv) :: rest ->
        List.map (fun (w, pw) -> (v, w, pv <> pw)) rest @ go rest
  in
  go g

(* Close the function vector under all exchange relations of a group:
   repeat the forced assignments until a fixpoint.  Terminates because
   the care set only grows.  [None] if some pair becomes conflicting. *)
let close m fs pairs =
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

let close_group m fs group = close m fs (group_pairs group)

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
         symmetrizable before attempting the (quadratic) closure. *)
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
        match close m fs (group_pairs merged) with
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
