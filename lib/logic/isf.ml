type t = { on : Bdd.t; dc : Bdd.t }

let make m ~on ~dc =
  if not (Bdd.disjoint m on dc) then
    invalid_arg "Isf.make: on-set and dc-set intersect";
  { on; dc }

let of_csf m on = { on; dc = Bdd.zero m }

let on t = t.on
let dc t = t.dc
(* A completely specified function is its own upper bound: [or_] with
   [zero] returns [on] itself. *)
let up m t = Bdd.or_ m t.on t.dc
let off m t = Bdd.not_ m (up m t)
let care m t = Bdd.not_ m t.dc
let is_completely_specified t = Bdd.is_zero t.dc

let of_on_off m ~on ~off =
  if not (Bdd.disjoint m on off) then
    invalid_arg "Isf.of_on_off: on-set and off-set intersect";
  make m ~on ~dc:(Bdd.nor m on off)

let interval ~what m ~on ~up =
  if not (Bdd.leq m on up) then invalid_arg what;
  { on; dc = Bdd.diff m up on }

let of_on_up =
  interval ~what:"Isf.of_on_up: on-set not inside the upper bound"

let extends m g t = Bdd.leq m t.on g && Bdd.leq m g (up m t)

let equal a b = Bdd.equal a.on b.on && Bdd.equal a.dc b.dc

let compatible m a b = Bdd.leq m a.on (up m b) && Bdd.leq m b.on (up m a)

(* [on <= up] of the joined interval says on_i <= up_j for every i and
   j, which is pairwise compatibility. *)
let join m = function
  | [] -> invalid_arg "Isf.join: empty"
  | first :: rest ->
      let on, up =
        List.fold_left
          (fun (on, u) f -> (Bdd.or_ m on f.on, Bdd.and_ m u (up m f)))
          (first.on, up m first) rest
      in
      interval ~what:"Isf.join: incompatible" m ~on ~up

let assign_all_zero m t = { t with dc = Bdd.zero m }
let assign_all_one m t = { on = up m t; dc = Bdd.zero m }

let restrict m t v b =
  make m ~on:(Bdd.restrict m t.on v b) ~dc:(Bdd.restrict m t.dc v b)

let cofactor_vector m t vars =
  let rec go t = function
    | [] -> [ t ]
    | v :: rest -> go (restrict m t v false) rest @ go (restrict m t v true) rest
  in
  Array.of_list (go t vars)

let extend_cofactor_vector m vec vars v =
  let ons = Bdd.extend_cofactor_vector m (Array.map on vec) vars v in
  let dcs = Bdd.extend_cofactor_vector m (Array.map dc vec) vars v in
  Array.map2 (fun on dc -> make m ~on ~dc) ons dcs

(* The off-set is the complement of [up], so it has [up]'s support, and
   supp on \/ supp up = supp on \/ supp dc: [up = on \/ dc] and
   [dc = up /\ not on] each depend only on variables of the other two.
   Both supports are memoized ascending lists: merge them, building
   nothing. *)
let support m t =
  let rec union (a : int list) b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: xs, y :: ys ->
        if x < y then x :: union xs b
        else if y < x then y :: union a ys
        else x :: union xs ys
  in
  union (Bdd.support m t.on) (Bdd.support m t.dc)

let random_extension m t st =
  if Bdd.is_zero t.dc then t.on
  else
    let vars = Bdd.support m t.dc in
    let filler =
      List.fold_left
        (fun acc v ->
          let lit = if Random.State.bool st then Bdd.var m v else Bdd.nvar m v in
          if Random.State.bool st then Bdd.and_ m acc lit else Bdd.or_ m acc lit)
        (if Random.State.bool st then Bdd.one m else Bdd.zero m)
        vars
    in
    Bdd.or_ m t.on (Bdd.and_ m t.dc filler)
