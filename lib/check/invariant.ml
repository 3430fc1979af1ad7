let finding ?loc code msg = Some (Diagnostic.make ?loc code msg)

let well_formed_parts m ~where ~on ~dc =
  if Bdd.disjoint m on dc then None
  else finding ~loc:where "DEC001" "on-set and don't-care set intersect"

(* fine refines coarse: on(coarse) <= on(fine) and off(coarse) <= off(fine),
   i.e. every minterm the coarse ISF constrains is constrained the same
   way by the fine one.  The off-sets are the complements of the up-sets,
   so the second inclusion is up(fine) <= up(coarse). *)
let refines m ~coarse ~fine =
  Bdd.leq m (Isf.on coarse) (Isf.on fine)
  && Bdd.leq m (Isf.up m fine) (Isf.up m coarse)

let check_refines m ~where ~coarse ~fine =
  if refines m ~coarse ~fine then None
  else
    finding ~loc:where "DEC002"
      "phase result constrains a minterm differently from its input ISF"

let check_group_symmetric m ~where fs group =
  let symmetric_in f (i, pi) (j, pj) =
    let rel = pi <> pj in
    let invariant g = Bdd.equal g (Symmetry.swap_rel m g ~rel i j) in
    invariant (Isf.on f) && invariant (Isf.up m f)
  in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  let broken =
    List.find_opt
      (fun (a, b) -> not (List.for_all (fun f -> symmetric_in f a b) fs))
      (pairs group)
  in
  match broken with
  | None -> None
  | Some ((i, _), (j, _)) ->
      finding ~loc:where "DEC003"
        (Printf.sprintf
           "function vector is not invariant under exchanging variables %d and %d"
           i j)

let check_proper_cover g colors ~where =
  if Coloring.is_proper g colors then None
  else
    finding ~loc:where "DEC004"
      "two incompatible bound-set classes were merged into one color"

let check_alpha_count ~where ~nclasses ~r =
  let rec ceil_log2 n = if n <= 1 then 0 else 1 + ceil_log2 ((n + 1) / 2) in
  let expected = ceil_log2 (max 1 nclasses) in
  if r = expected then None
  else
    finding ~loc:where "DEC006"
      (Printf.sprintf "%d decomposition functions for %d classes (expected %d)"
         r nclasses expected)

(* Composition commutes with complement, so the composed off-set is the
   complement of the composed up-set: off(spec) <= off_c is
   up_c <= up(spec). *)
let check_composition m ~where ~subs ~g ~spec =
  let composed f = Bdd.vector_compose m f subs in
  let on_c = composed (Isf.on g) and up_c = composed (Isf.up m g) in
  if Bdd.leq m (Isf.on spec) on_c && Bdd.leq m up_c (Isf.up m spec) then None
  else
    finding ~loc:where "DEC007"
      "composing the step's functions does not reproduce the specification \
       on its care set"

let function_of_tt m sup tt =
  let p = List.length sup in
  if p = 0 then (if Bv.get tt 0 then Bdd.one m else Bdd.zero m)
  else begin
    (* [Bdd.of_vector] indexes with the first variable as the most
       significant bit; the emitted tables use support position [k] as
       bit [k] (least significant first), so transpose the index. *)
    let vec =
      Array.init (1 lsl p) (fun i ->
          let idx = ref 0 in
          for k = 0 to p - 1 do
            if (i lsr (p - 1 - k)) land 1 = 1 then idx := !idx lor (1 lsl k)
          done;
          if Bv.get tt !idx then Bdd.one m else Bdd.zero m)
    in
    Bdd.of_vector m sup vec
  end

let check_lut_realizes m ~where isf ~support ~tt =
  if Isf.extends m (function_of_tt m support tt) isf then None
  else
    finding ~loc:where "DEC008"
      "LUT table is not an extension of the ISF it was emitted for"

let check_lut_equals m ~where f ~support ~tt =
  if Bdd.equal f (function_of_tt m support tt) then None
  else
    finding ~loc:where "DEC008"
      "LUT table differs from the decomposition function it was emitted for"
