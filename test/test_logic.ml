(* Tests for the logic substrate: bit-vector truth tables, cube covers
   and incompletely specified functions. *)

let man = Bdd.manager ()
let check_bool = Alcotest.(check bool)

let gen_fun n =
  let open QCheck2.Gen in
  let+ bits = list_size (return (1 lsl n)) bool in
  let arr = Array.of_list bits in
  Bv.of_fun n (fun i -> arr.(i))

(* A random ISF over n variables: each minterm is on / off / dc. *)
let gen_isf n =
  let open QCheck2.Gen in
  let+ cells = list_size (return (1 lsl n)) (int_range 0 2) in
  let arr = Array.of_list cells in
  let on = Bv.of_fun n (fun i -> arr.(i) = 1) in
  let dc = Bv.of_fun n (fun i -> arr.(i) = 2) in
  (on, dc)

let isf_of_pair (on, dc) =
  Isf.make man ~on:(Bv.to_bdd man on) ~dc:(Bv.to_bdd man dc)

let prop name ?(count = 200) gen f = QCheck2.Test.make ~name ~count gen f

let bv_tests =
  [
    Alcotest.test_case "bv var indexing" `Quick (fun () ->
        let v1 = Bv.var 3 1 in
        check_bool "minterm 2 has x1=1" true (Bv.get v1 2);
        check_bool "minterm 5 has x1=0" false (Bv.get v1 5));
    Alcotest.test_case "bv set / get" `Quick (fun () ->
        let z = Bv.create 4 false in
        let z' = Bv.set z 11 true in
        check_bool "set" true (Bv.get z' 11);
        check_bool "original untouched" false (Bv.get z 11);
        Alcotest.(check int) "count" 1 (Bv.count_ones z'));
    Alcotest.test_case "bv eval" `Quick (fun () ->
        let f = Bv.and_ (Bv.var 3 0) (Bv.var 3 2) in
        check_bool "101" true (Bv.eval f (fun k -> k <> 1));
        check_bool "001" false (Bv.eval f (fun k -> k = 0)));
    Alcotest.test_case "bv zero-var functions" `Quick (fun () ->
        let t = Bv.create 0 true in
        check_bool "const true" true (Bv.get t 0);
        Alcotest.(check int) "one minterm" 1 (Bv.count_ones t));
  ]

let cover_tests =
  [
    Alcotest.test_case "cube string roundtrip" `Quick (fun () ->
        Alcotest.(check string) "roundtrip" "01-1"
          (Cover.string_of_cube (Cover.cube_of_string "01-1")));
    Alcotest.test_case "espresso '2' means dash" `Quick (fun () ->
        Alcotest.(check string) "2 -> -" "-"
          (Cover.string_of_cube (Cover.cube_of_string "2")));
    Alcotest.test_case "cube_to_bdd" `Quick (fun () ->
        let c = Cover.cube_of_string "1-0" in
        let f = Cover.cube_to_bdd man (fun k -> k) c in
        check_bool "eval 100" true (Bdd.eval f (fun v -> v = 0));
        check_bool "eval 110" true (Bdd.eval f (fun v -> v <= 1));
        check_bool "eval 101" false (Bdd.eval f (fun v -> v <> 1)));
    Alcotest.test_case "cover_to_bdd is a disjunction" `Quick (fun () ->
        let cubes = List.map Cover.cube_of_string [ "11"; "00" ] in
        let f = Cover.cover_to_bdd man (fun k -> k) cubes in
        check_bool "xnor" true (Bdd.equal f (Bdd.xnor man (Bdd.var man 0) (Bdd.var man 1))));
    Alcotest.test_case "bdd_to_cover covers exactly" `Quick (fun () ->
        let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 2) in
        let cubes = Cover.bdd_to_cover man [ 0; 1; 2 ] f in
        let g = Cover.cover_to_bdd man (fun k -> k) cubes in
        check_bool "roundtrip" true (Bdd.equal f g));
  ]

let cover_props =
  [
    prop "bdd_to_cover roundtrips random functions" (gen_fun 5) (fun bv ->
        let f = Bv.to_bdd man bv in
        let cubes = Cover.bdd_to_cover man [ 0; 1; 2; 3; 4 ] f in
        Bdd.equal f (Cover.cover_to_bdd man (fun k -> k) cubes));
    prop "cube_eval agrees with cube_to_bdd"
      QCheck2.Gen.(
        pair
          (string_size ~gen:(oneofl [ '0'; '1'; '-' ]) (return 4))
          (list_size (return 4) bool))
      (fun (s, assignment) ->
        let arr = Array.of_list assignment in
        let c = Cover.cube_of_string s in
        let f = Cover.cube_to_bdd man (fun k -> k) c in
        Cover.cube_eval c (fun k -> arr.(k)) = Bdd.eval f (fun v -> arr.(v)));
  ]

let isf_tests =
  [
    Alcotest.test_case "make rejects overlap" `Quick (fun () ->
        let x = Bdd.var man 0 in
        check_bool "raises" true
          (match Isf.make man ~on:x ~dc:x with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "of_csf has no dc" `Quick (fun () ->
        let f = Isf.of_csf man (Bdd.var man 0) in
        check_bool "csf" true (Isf.is_completely_specified f));
    Alcotest.test_case "off complements" `Quick (fun () ->
        let f = Isf.make man ~on:(Bdd.var man 0) ~dc:(Bdd.nvar man 0) in
        check_bool "off empty" true (Bdd.is_zero (Isf.off man f)));
    Alcotest.test_case "extends" `Quick (fun () ->
        let x0 = Bdd.var man 0 and x1 = Bdd.var man 1 in
        let f = Isf.make man ~on:(Bdd.and_ man x0 x1) ~dc:(Bdd.and_ man x0 (Bdd.not_ man x1)) in
        check_bool "x0 extends" true (Isf.extends man x0 f);
        check_bool "x0/\\x1 extends" true (Isf.extends man (Bdd.and_ man x0 x1) f);
        check_bool "x1 does not" false (Isf.extends man x1 f));
    Alcotest.test_case "assign_all_zero / one" `Quick (fun () ->
        let x0 = Bdd.var man 0 in
        let f = Isf.make man ~on:x0 ~dc:(Bdd.nvar man 0) in
        check_bool "zero" true (Bdd.equal (Isf.on (Isf.assign_all_zero man f)) x0);
        check_bool "one" true (Bdd.is_one (Isf.on (Isf.assign_all_one man f))));
  ]

let isf_props =
  let n = 5 in
  [
    prop "random_extension extends" (gen_isf n) (fun pair ->
        let f = isf_of_pair pair in
        let st = Random.State.make [| 42 |] in
        Isf.extends man (Isf.random_extension man f st) f);
    prop "join of f with itself is f" (gen_isf n) (fun pair ->
        let f = isf_of_pair pair in
        Isf.equal f (Isf.join man [ f; f ]));
    prop "compatible is symmetric" QCheck2.Gen.(pair (gen_isf n) (gen_isf n))
      (fun (p1, p2) ->
        let a = isf_of_pair p1 and b = isf_of_pair p2 in
        Isf.compatible man a b = Isf.compatible man b a);
    prop "join constraints: any extension of join extends both"
      QCheck2.Gen.(pair (gen_isf n) (gen_isf n))
      (fun (p1, p2) ->
        let a = isf_of_pair p1 and b = isf_of_pair p2 in
        if Isf.compatible man a b then begin
          let j = Isf.join man [ a; b ] in
          let st = Random.State.make [| 7 |] in
          let g = Isf.random_extension man j st in
          Isf.extends man g a && Isf.extends man g b
        end
        else true);
    prop "csf extends itself" (gen_fun n) (fun bv ->
        let g = Bv.to_bdd man bv in
        Isf.extends man g (Isf.of_csf man g));
    prop "restrict commutes with extension" QCheck2.Gen.(pair (gen_isf n) (int_range 0 (n - 1)))
      (fun (pair, v) ->
        let f = isf_of_pair pair in
        let st = Random.State.make [| 13 |] in
        let g = Isf.random_extension man f st in
        Isf.extends man (Bdd.restrict man g v true) (Isf.restrict man f v true));
    prop "support of isf contained in var range" (gen_isf n) (fun pair ->
        let f = isf_of_pair pair in
        List.for_all (fun v -> v >= 0 && v < n) (Isf.support man f));
  ]

(* The formulations over the off-set that [Isf] used before it asked
   [Bdd.leq] about [on] and [up], kept as oracles. *)
let old_off f = Bdd.not_ man (Bdd.or_ man (Isf.on f) (Isf.dc f))

let old_support f =
  List.sort_uniq compare (Bdd.support man (Isf.on f) @ Bdd.support man (old_off f))

let old_compatible a b =
  Bdd.is_zero (Bdd.and_ man (Isf.on a) (old_off b))
  && Bdd.is_zero (Bdd.and_ man (Isf.on b) (old_off a))

let old_extends g f =
  Bdd.is_zero (Bdd.diff man (Isf.on f) g) && Bdd.is_zero (Bdd.and_ man g (old_off f))

(* The binary join; [None] where it raised. *)
let old_join a b =
  if not (old_compatible a b) then None
  else
    let on = Bdd.or_ man (Isf.on a) (Isf.on b) in
    let off = Bdd.or_ man (old_off a) (old_off b) in
    Some (Isf.make man ~on ~dc:(Bdd.nor man on off))

let isf_of_cells n ~on ~dc =
  Isf.make man
    ~on:(Bv.to_bdd man (Bv.of_fun n (fun i -> on i && not (dc i))))
    ~dc:(Bv.to_bdd man (Bv.of_fun n dc))

(* An ISF over [n] variables whose don't cares cover about [d] tenths
   of the minterms, [d] in 1..9.  With [sparse], the on/off choice
   reads only the variables of one random mask and the don't cares only
   those of another, so the supports of the sets differ. *)
let gen_isf_dc n =
  let open QCheck2.Gen in
  let+ d = int_range 1 9
  and+ sparse = bool
  and+ on_mask = int_bound ((1 lsl n) - 1)
  and+ dc_mask = int_bound ((1 lsl n) - 1)
  and+ seed = int in
  let st = Random.State.make [| seed |] in
  let ons = Array.init (1 lsl n) (fun _ -> Random.State.bool st) in
  let dcs = Array.init (1 lsl n) (fun _ -> Random.State.int st 10 < d) in
  let on_mask, dc_mask = if sparse then (on_mask, dc_mask) else (-1, -1) in
  isf_of_cells n ~on:(fun i -> ons.(i land on_mask)) ~dc:(fun i -> dcs.(i land dc_mask))

(* [k] ISFs: either independent, or don't-care relaxations of one
   common function, one of which may have a minterm flipped — so
   compatible families are frequent and incompatible ones differ from
   them in one place. *)
let gen_family n k =
  let open QCheck2.Gen in
  let* related = bool in
  if not related then list_size (return k) (gen_isf_dc n)
  else
    let+ d = int_range 1 9
    and+ flip = opt (int_bound ((1 lsl n) - 1))
    and+ seed = int in
    let st = Random.State.make [| seed |] in
    let h = Array.init (1 lsl n) (fun _ -> Random.State.bool st) in
    List.init k (fun idx ->
        let dcs = Array.init (1 lsl n) (fun _ -> Random.State.int st 10 < d) in
        let value i = if idx = 0 && flip = Some i then not h.(i) else h.(i) in
        isf_of_cells n ~on:value ~dc:(Array.get dcs))

let isf_identity_props =
  let n = 6 in
  let join l = match Isf.join man l with j -> Some j | exception Invalid_argument _ -> None in
  let same a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> Isf.equal a b
    | Some _, None | None, Some _ -> false
  in
  [
    prop "support, compatible and extends equal the off-set formulations"
      ~count:300
      QCheck2.Gen.(pair (gen_family n 2) (gen_fun n))
      (fun (family, bv) ->
        let a, b = (List.nth family 0, List.nth family 1) in
        let g = Bv.to_bdd man bv in
        let ext = Isf.random_extension man a (Random.State.make [| 3 |]) in
        Isf.support man a = old_support a
        && Isf.support man b = old_support b
        && Isf.compatible man a b = old_compatible a b
        && Isf.extends man g a = old_extends g a
        && Isf.extends man ext a = old_extends ext a
        && Isf.extends man ext b = old_extends ext b);
    prop "binary join equals the off-set join" ~count:300 (gen_family n 2)
      (fun family ->
        let a, b = (List.nth family 0, List.nth family 1) in
        same (join [ a; b ]) (old_join a b));
    prop "a join of three or more raises exactly when a pair is incompatible"
      ~count:300
      QCheck2.Gen.(int_range 3 5 >>= gen_family n)
      (fun family ->
        let rec pairs = function
          | [] -> []
          | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
        in
        let compatible =
          List.for_all (fun (a, b) -> old_compatible a b) (pairs family)
        in
        let folded =
          List.fold_left
            (fun acc f -> Option.bind acc (fun j -> old_join j f))
            (Some (List.hd family)) (List.tl family)
        in
        let joined = join family in
        Option.is_some joined = compatible && same joined folded);
  ]

(* Prime, irredundant covers, with Bv as the oracle.  [mem_raw] tests a
   cube given by its masks, so a cube with a literal dropped can be
   tested too; minterm bit [j] is variable [j], as in Bv. *)
let mem_raw care value m = m land care = value
let mem c m = mem_raw (Isop.care c) (Isop.value c) m

(* [cubes] covers exactly the minterms where [tt] is [phase], each cube
   is prime (dropping a literal makes it leave that set) and none is
   redundant (dropping it uncovers a minterm). *)
let isop_cover_ok tt phase cubes =
  let rows = 1 lsl Bv.nvars tt in
  let in_set m = Bv.get tt m = phase in
  let covered_by m = List.filter (fun c -> mem c m) (Array.to_list cubes) in
  let exact = List.for_all (fun m -> in_set m = (covered_by m <> [])) (List.init rows Fun.id) in
  let inside care value =
    List.for_all (fun m -> (not (mem_raw care value m)) || in_set m) (List.init rows Fun.id)
  in
  let prime c =
    let care = Isop.care c and value = Isop.value c in
    value land lnot care = 0
    && List.for_all
         (fun j ->
           (care lsr j) land 1 = 0
           ||
           let bit = 1 lsl j in
           not (inside (care land lnot bit) (value land lnot bit)))
         (List.init (Bv.nvars tt) Fun.id)
  in
  let owns c =
    List.exists (fun m -> covered_by m = [ c ]) (List.init rows Fun.id)
  in
  exact && Array.for_all prime cubes && Array.for_all owns cubes

let isop_ok tt =
  let c = Isop.of_table tt in
  c.Isop.nvars = Bv.nvars tt
  && c.Isop.on = Isop.cover tt true
  && isop_cover_ok tt true c.Isop.on
  && isop_cover_ok tt false c.Isop.off
  && Array.length c.Isop.on + Array.length c.Isop.off <= 1 lsl Bv.nvars tt

let isop_tests =
  [
    Alcotest.test_case "isop: every table of at most 3 inputs" `Quick
      (fun () ->
        for n = 0 to 3 do
          for bits = 0 to (1 lsl (1 lsl n)) - 1 do
            let tt = Bv.of_fun n (fun m -> (bits lsr m) land 1 = 1) in
            if not (isop_ok tt) then
              Alcotest.failf "n=%d table %a" n Bv.pp tt
          done
        done);
    Alcotest.test_case "isop: and, or, xor and constants" `Quick (fun () ->
        let n_cubes tt = Array.length (Isop.cover tt true) in
        let f3 f = Bv.of_fun 3 f in
        Alcotest.(check int) "and: one cube" 1 (n_cubes (f3 (fun m -> m = 7)));
        Alcotest.(check int) "or: three cubes" 3 (n_cubes (f3 (fun m -> m <> 0)));
        Alcotest.(check int) "xor: four minterms" 4
          (n_cubes (f3 (fun m -> (m lxor (m lsr 1) lxor (m lsr 2)) land 1 = 1)));
        Alcotest.(check int) "zero: no cube" 0 (n_cubes (Bv.create 4 false));
        let one = Isop.cover (Bv.create 4 true) true in
        Alcotest.(check (list int)) "one: the empty cube" [ 0 ]
          (Array.to_list (Array.map Isop.care one)));
  ]

let isop_props =
  [
    prop "isop covers are exact, prime and irredundant (0-8 inputs)"
      ~count:300
      QCheck2.Gen.(int_range 0 8 >>= gen_fun)
      isop_ok;
  ]

let suite =
  bv_tests @ cover_tests @ isf_tests @ isop_tests
  @ List.map
      (fun p -> QCheck_alcotest.to_alcotest ~long:false p)
      (cover_props @ isf_props @ isf_identity_props @ isop_props)

(* Two-level minimization. *)
let minimize_tests =
  [
    Alcotest.test_case "minimize an and-or cover" `Quick (fun () ->
        (* f = x0 x1 + x0 x1' = x0: the two cubes must fuse *)
        let on = Bdd.var man 0 in
        let cubes = List.map Cover.cube_of_string [ "11-"; "10-" ] in
        let result = Minimize.minimize man ~ninputs:3 ~on cubes in
        Alcotest.(check int) "one cube" 1 (List.length result);
        Alcotest.(check string) "x0" "1--"
          (Cover.string_of_cube (List.hd result)));
    Alcotest.test_case "dc lets cubes expand" `Quick (fun () ->
        (* on = 11, dc = 10: cube 11 expands to 1- *)
        let on = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
        let dc = Bdd.and_ man (Bdd.var man 0) (Bdd.nvar man 1) in
        let result =
          Minimize.minimize man ~ninputs:2 ~on ~dc
            [ Cover.cube_of_string "11" ]
        in
        Alcotest.(check string) "expanded" "1-"
          (Cover.string_of_cube (List.hd result)));
    Alcotest.test_case "redundant cube dropped" `Quick (fun () ->
        let on =
          Bdd.or_ man (Bdd.var man 0) (Bdd.var man 1)
        in
        let cubes = List.map Cover.cube_of_string [ "1-"; "-1"; "11" ] in
        let result = Minimize.minimize man ~ninputs:2 ~on cubes in
        Alcotest.(check int) "two cubes" 2 (List.length result));
    Alcotest.test_case "rejects a non-cover" `Quick (fun () ->
        let on = Bdd.var man 0 in
        Alcotest.(check bool) "raises" true
          (match Minimize.minimize man ~ninputs:1 ~on [] with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

let minimize_props =
  [
    prop "minimized cover is equivalent and no larger" ~count:150
      QCheck2.Gen.(pair (gen_fun 5) (gen_fun 5))
      (fun (on_bv, dc_bv) ->
        let on0 = Bv.to_bdd man on_bv in
        let dcsel = Bv.to_bdd man dc_bv in
        let on = Bdd.diff man on0 dcsel in
        let dc = Bdd.and_ man dcsel (Bdd.not_ man on) in
        let initial = Cover.bdd_to_cover man [ 0; 1; 2; 3; 4 ] on in
        if initial = [] then true
        else begin
          let result = Minimize.minimize man ~ninputs:5 ~on ~dc initial in
          Minimize.is_cover man ~ninputs:5 ~on ~dc result
          && List.length result <= List.length initial
        end);
    prop "every minimized cube is prime (no literal can be raised)"
      ~count:100 (gen_fun 4)
      (fun bv ->
        let on = Bv.to_bdd man bv in
        let initial = Cover.bdd_to_cover man [ 0; 1; 2; 3 ] on in
        if initial = [] then true
        else begin
          let result = Minimize.minimize man ~ninputs:4 ~on initial in
          List.for_all
            (fun cube ->
              (* raising any fixed literal must leave the on-set *)
              List.for_all
                (fun k ->
                  match cube.(k) with
                  | Cover.Ldash -> true
                  | Cover.L0 | Cover.L1 ->
                      let widened = Array.copy cube in
                      widened.(k) <- Cover.Ldash;
                      not
                        (Bdd.is_zero
                           (Bdd.diff man
                              (Cover.cube_to_bdd man (fun c -> c) widened)
                              on)))
                (List.init 4 Fun.id))
            result
        end);
  ]

let suite =
  suite @ minimize_tests
  @ List.map (fun p -> QCheck_alcotest.to_alcotest ~long:false p) minimize_props
