let cube_bdd m cube = Cover.cube_to_bdd m (fun k -> k) cube

let cover_bdd m cubes = Bdd.or_list m (List.map (cube_bdd m) cubes)

let is_cover m ~ninputs ~on ?dc cubes =
  ignore ninputs;
  let dc = match dc with Some d -> d | None -> Bdd.zero m in
  let f = cover_bdd m cubes in
  Bdd.leq m on f && Bdd.leq m f (Bdd.or_ m on dc)

(* EXPAND: raise literals to '-' greedily while the cube stays inside
   on \/ dc.  The result is prime w.r.t. the left-to-right column
   order. *)
let expand m allowed cube =
  let cube = Array.copy cube in
  for k = 0 to Array.length cube - 1 do
    match cube.(k) with
    | Cover.Ldash -> ()
    | Cover.L0 | Cover.L1 ->
        let saved = cube.(k) in
        cube.(k) <- Cover.Ldash;
        if not (Bdd.leq m (cube_bdd m cube) allowed) then
          cube.(k) <- saved
  done;
  cube

(* IRREDUNDANT: drop any cube whose on-set contribution is covered by
   the remaining cubes plus the don't cares. *)
let irredundant m ~on ~dc cubes =
  ignore on;
  let rec go kept = function
    | [] -> List.rev kept
    | cube :: rest ->
        let others = cover_bdd m (kept @ rest) in
        if Bdd.leq m (cube_bdd m cube) (Bdd.or_ m others dc) then go kept rest
        else go (cube :: kept) rest
  in
  go [] cubes

let minimize m ~ninputs ~on ?dc cubes =
  let dc = match dc with Some d -> d | None -> Bdd.zero m in
  if not (is_cover m ~ninputs ~on ~dc cubes) then
    invalid_arg "Minimize.minimize: input is not a cover";
  let allowed = Bdd.or_ m on dc in
  let rec fixpoint cubes =
    let expanded = List.map (expand m allowed) cubes in
    (* dedupe identical cubes after expansion *)
    let distinct =
      List.fold_left
        (fun acc c ->
          if List.exists (fun c' -> c' = c) acc then acc else c :: acc)
        [] expanded
      |> List.rev
    in
    let pruned = irredundant m ~on ~dc distinct in
    if List.length pruned < List.length cubes then fixpoint pruned else pruned
  in
  let result = fixpoint cubes in
  assert (is_cover m ~ninputs ~on ~dc result);
  result

let cover_of_bdd m ~ninputs ~on ?dc () =
  let initial = Cover.bdd_to_cover m (List.init ninputs Fun.id) on in
  minimize m ~ninputs ~on ?dc initial
