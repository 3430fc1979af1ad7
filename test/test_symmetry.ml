(* Tests for symmetry detection and the step-1 don't-care assignment. *)

let man = Bdd.manager ()
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let totally_symmetric n pred =
  (* f(x) = pred (weight x) over n variables *)
  let rec build v ones =
    if v = n then if pred ones then Bdd.one man else Bdd.zero man
    else Bdd.ite man (Bdd.var man v) (build (v + 1) (ones + 1)) (build (v + 1) ones)
  in
  build 0 0

let detection_tests =
  [
    Alcotest.test_case "majority is totally symmetric" `Quick (fun () ->
        let f = totally_symmetric 5 (fun w -> w >= 3) in
        check_bool "01" true (Symmetry.symmetric_pair man [ f ] ~rel:false 0 1);
        check_bool "24" true (Symmetry.symmetric_pair man [ f ] ~rel:false 2 4);
        let groups = Symmetry.partition man [ f ] [ 0; 1; 2; 3; 4 ] in
        check_int "one group" 1 (List.length groups);
        check_int "of five" 5 (List.length (List.hd groups)));
    Alcotest.test_case "x0 /\\ x1 \\/ x2: group {0,1}" `Quick (fun () ->
        let f =
          Bdd.or_ man
            (Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1))
            (Bdd.var man 2)
        in
        let groups = Symmetry.partition man [ f ] [ 0; 1; 2 ] in
        check_int "two groups" 2 (List.length groups);
        check_bool "0,1 together" true
          (List.exists
             (fun g -> List.sort compare (Symmetry.group_vars g) = [ 0; 1 ])
             groups));
    Alcotest.test_case "equivalence symmetry detected via phases" `Quick
      (fun () ->
        (* f = x0 xor x1 is equivalence-symmetric in (0,1) (f00 = f11)
           and also ne-symmetric; x0 /\ not x1 is neither.
           g = x0 \/ not x1 : exchanging with one negation leaves it
           invariant (equivalence symmetry). *)
        let g = Bdd.or_ man (Bdd.var man 0) (Bdd.nvar man 1) in
        check_bool "ne fails" false
          (Symmetry.symmetric_pair man [ g ] ~rel:false 0 1);
        check_bool "e holds" true
          (Symmetry.symmetric_pair man [ g ] ~rel:true 0 1);
        let groups = Symmetry.partition man [ g ] [ 0; 1 ] in
        check_int "one group (phased)" 1 (List.length groups));
    Alcotest.test_case "multi-output symmetry is the intersection" `Quick
      (fun () ->
        let f1 = totally_symmetric 4 (fun w -> w >= 2) in
        let f2 =
          Bdd.or_ man
            (Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1))
            (Bdd.and_ man (Bdd.var man 2) (Bdd.var man 3))
        in
        (* f2 is symmetric in {0,1} and {2,3} but not across. *)
        let groups = Symmetry.partition man [ f1; f2 ] [ 0; 1; 2; 3 ] in
        check_int "two groups" 2 (List.length groups));
    Alcotest.test_case "swap_rel with rel=true is equivalence exchange" `Quick
      (fun () ->
        let f = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
        let g = Symmetry.swap_rel man f ~rel:true 0 1 in
        (* (x0,x1) -> (not x1, not x0): and becomes nor *)
        check_bool "nor" true
          (Bdd.equal g (Bdd.nor man (Bdd.var man 0) (Bdd.var man 1))));
  ]

let symmetrize_tests =
  [
    Alcotest.test_case "dc assignment creates symmetry" `Quick (fun () ->
        (* on = 01 (x0=0, x1=1), dc = 10; symmetrizing (0,1) must put 10
           into the on-set. *)
        let on = Bdd.and_ man (Bdd.nvar man 0) (Bdd.var man 1) in
        let dc = Bdd.and_ man (Bdd.var man 0) (Bdd.nvar man 1) in
        let f = Isf.make man ~on ~dc in
        check_bool "symmetrizable" true
          (Symmetry.symmetrizable man [ f ] ~rel:false 0 1);
        match Symmetry.symmetrize man [ f ] ~rel:false 0 1 with
        | Some [ f' ] ->
            check_bool "10 now on" true (Bdd.eval (Isf.on f') (fun v -> v = 0));
            check_bool "now symmetric" true
              (Symmetry.symmetric_pair man [ Isf.on f' ] ~rel:false 0 1);
            check_bool "csf now" true (Isf.is_completely_specified f')
        | _ -> Alcotest.fail "symmetrize failed");
    Alcotest.test_case "conflicting pair is not symmetrizable" `Quick (fun () ->
        (* on = 01, off = 10, fully specified asymmetric pair *)
        let on = Bdd.and_ man (Bdd.nvar man 0) (Bdd.var man 1) in
        let f = Isf.of_csf man on in
        check_bool "not symmetrizable" false
          (Symmetry.symmetrizable man [ f ] ~rel:false 0 1);
        check_bool "symmetrize none" true
          (Symmetry.symmetrize man [ f ] ~rel:false 0 1 = None));
    Alcotest.test_case "maximize on csf = detection" `Quick (fun () ->
        let f = totally_symmetric 4 (fun w -> w = 2) in
        let r =
          Symmetry.maximize man [ Isf.of_csf man f ] [ 0; 1; 2; 3 ]
        in
        check_int "one group" 1 (List.length r.Symmetry.groups);
        (match r.Symmetry.functions with
        | [ f' ] -> check_bool "unchanged" true (Bdd.equal (Isf.on f') f)
        | _ -> Alcotest.fail "arity"));
    Alcotest.test_case "maximize groups grow with dc" `Quick (fun () ->
        (* f on 3 vars: on = {110}, dc = {101, 011}: fully symmetrizable
           to the weight-2 function restricted to... on/off elsewhere 0.
           Care: off = everything else incl. 111 and 000: weight-2
           pattern => totally symmetric after assignment. *)
        let minterm bits =
          Bdd.and_list man
            (List.mapi
               (fun v b -> if b then Bdd.var man v else Bdd.nvar man v)
               bits)
        in
        let on = minterm [ true; true; false ] in
        let dc =
          Bdd.or_ man
            (minterm [ true; false; true ])
            (minterm [ false; true; true ])
        in
        let f = Isf.make man ~on ~dc in
        let r = Symmetry.maximize man [ f ] [ 0; 1; 2 ] in
        check_int "single group of 3" 1 (List.length r.Symmetry.groups);
        match r.Symmetry.functions with
        | [ f' ] ->
            check_bool "weight-2 function" true
              (Bdd.equal (Isf.on f')
                 (totally_symmetric 3 (fun w -> w = 2)))
        | _ -> Alcotest.fail "arity");
    Alcotest.test_case "established symmetry never destroyed" `Quick (fun () ->
        (* After maximize, every reported group must indeed be a
           symmetry group of (every extension of) the result. *)
        let st = Random.State.make [| 5 |] in
        for _ = 1 to 20 do
          let on = Bdd.random man ~nvars:4 ~density:0.3 st in
          let dc0 = Bdd.random man ~nvars:4 ~density:0.3 st in
          let dc = Bdd.diff man dc0 on in
          let f = Isf.make man ~on ~dc in
          let r = Symmetry.maximize man [ f ] [ 0; 1; 2; 3 ] in
          List.iter
            (fun g ->
              List.iter
                (fun (v, pv) ->
                  List.iter
                    (fun (w, pw) ->
                      if v < w then begin
                        let rel = pv <> pw in
                        match r.Symmetry.functions with
                        | [ f' ] ->
                            check_bool "on closed" true
                              (Bdd.equal (Isf.on f')
                                 (Symmetry.swap_rel man (Isf.on f') ~rel v w));
                            check_bool "off closed" true
                              (Bdd.equal (Isf.off man f')
                                 (Symmetry.swap_rel man (Isf.off man f') ~rel v w))
                        | _ -> Alcotest.fail "arity"
                      end)
                    g)
                g)
            r.Symmetry.groups
        done);
  ]

let props =
  let gen_isf n =
    let open QCheck2.Gen in
    let+ cells = list_size (return (1 lsl n)) (int_range 0 2) in
    let arr = Array.of_list cells in
    let on = Bv.of_fun n (fun i -> arr.(i) = 1) in
    let dc = Bv.of_fun n (fun i -> arr.(i) = 2) in
    Isf.make man ~on:(Bv.to_bdd man on) ~dc:(Bv.to_bdd man dc)
  in
  [
    QCheck2.Test.make ~name:"symmetrize output extends input" ~count:150
      (gen_isf 4)
      (fun f ->
        match Symmetry.symmetrize man [ f ] ~rel:false 0 1 with
        | None -> true
        | Some [ f' ] ->
            (* every extension of f' is an extension of f: on grew, off grew *)
            Bdd.is_zero (Bdd.diff man (Isf.on f) (Isf.on f'))
            && Bdd.is_zero (Bdd.diff man (Isf.off man f) (Isf.off man f'))
        | Some _ -> false);
    QCheck2.Test.make ~name:"symmetrize result is symmetric" ~count:150
      (QCheck2.Gen.pair (gen_isf 4) QCheck2.Gen.bool)
      (fun (f, rel) ->
        match Symmetry.symmetrize man [ f ] ~rel 1 3 with
        | None -> not (Symmetry.symmetrizable man [ f ] ~rel 1 3)
        | Some [ f' ] ->
            Bdd.equal (Isf.on f') (Symmetry.swap_rel man (Isf.on f') ~rel 1 3)
            && Bdd.equal (Isf.off man f')
                 (Symmetry.swap_rel man (Isf.off man f') ~rel 1 3)
        | Some _ -> false);
    QCheck2.Test.make ~name:"maximize groups cover all variables" ~count:60
      (gen_isf 5)
      (fun f ->
        let r = Symmetry.maximize man [ f ] [ 0; 1; 2; 3; 4 ] in
        let vars =
          List.concat_map Symmetry.group_vars r.Symmetry.groups
          |> List.sort compare
        in
        vars = [ 0; 1; 2; 3; 4 ]);
  ]

(* The swap-based step-1 transforms that the quadrant formulation of
   [Symmetry] replaced: build sigma(g) over the whole function with
   [swap_rel], then intersect or unite it with g. *)
module Oracle = struct
  let sigma g ~rel i j = Symmetry.swap_rel man g ~rel i j

  let symmetrizable fs ~rel i j =
    i <> j
    && List.for_all
         (fun f ->
           let on = Isf.on f and off = Isf.off man f in
           Bdd.is_zero (Bdd.and_ man on (sigma off ~rel i j))
           && Bdd.is_zero (Bdd.and_ man (sigma on ~rel i j) off))
         fs

  let symmetrize_one f ~rel i j =
    let on = Isf.on f and off = Isf.off man f in
    let on' = Bdd.or_ man on (sigma on ~rel i j) in
    let off' = Bdd.or_ man off (sigma off ~rel i j) in
    if Bdd.is_zero (Bdd.and_ man on' off') then
      Some (Isf.of_on_off man ~on:on' ~off:off')
    else None

  let symmetrize fs ~rel i j =
    if i = j then None
    else
      List.fold_left
        (fun acc f ->
          match acc with
          | None -> None
          | Some done_ ->
              Option.map (fun f' -> f' :: done_) (symmetrize_one f ~rel i j))
        (Some []) fs
      |> Option.map List.rev

  let close_group fs group =
    let rec pairs = function
      | [] -> []
      | (v, pv) :: rest ->
          List.map (fun (w, pw) -> (v, w, pv <> pw)) rest @ pairs rest
    in
    let pairs = pairs group in
    let rec loop fs =
      let step (acc, changed) (i, j, rel) =
        match acc with
        | None -> (None, changed)
        | Some fs -> (
            match symmetrize fs ~rel i j with
            | None -> (None, changed)
            | Some fs' ->
                (Some fs', changed || not (List.for_all2 Isf.equal fs fs')))
      in
      match List.fold_left step (Some fs, false) pairs with
      | Some fs', true -> loop fs'
      | result, _ -> result
    in
    loop fs

  (* [Symmetry.maximize]'s greedy with the default budget: scan the
     groups' pairs and both phases in order, commit the first merge
     whose cross pairs are symmetrizable and whose closure over all
     pairs exists, and sort the groups at the end. *)
  let maximize fs vars =
    let budget = ref 4000 in
    let merge fs g1 g2 q =
      decr budget;
      if
        List.for_all
          (fun (v, pv) ->
            List.for_all
              (fun (w, pw) -> symmetrizable fs ~rel:(pv <> (pw <> q)) v w)
              g2)
          g1
      then
        let merged = g1 @ List.map (fun (w, pw) -> (w, pw <> q)) g2 in
        Option.map (fun fs' -> (fs', merged)) (close_group fs merged)
      else None
    in
    let rec grow fs groups =
      let n = List.length groups in
      let attempts =
        List.concat_map
          (fun a ->
            List.concat_map
              (fun b -> [ (a, b, false); (a, b, true) ])
              (List.init (n - a - 1) (fun k -> a + 1 + k)))
          (List.init n Fun.id)
      in
      let rec first = function
        | [] -> None
        | (a, b, q) :: rest -> (
            if !budget <= 0 then None
            else
              match merge fs (List.nth groups a) (List.nth groups b) q with
              | Some (fs', merged) -> Some (fs', merged, a, b)
              | None -> first rest)
      in
      match first attempts with
      | None -> (fs, groups)
      | Some (fs', merged, a, b) ->
          grow fs' (merged :: List.filteri (fun k _ -> k <> a && k <> b) groups)
    in
    let fs', groups = grow fs (List.map (fun v -> [ (v, false) ]) vars) in
    let groups =
      groups
      |> List.map (List.sort (fun (v, _) (w, _) -> compare v w))
      |> List.sort (fun g1 g2 -> compare (fst (List.hd g1)) (fst (List.hd g2)))
    in
    (fs', groups)
end

let same_result a b =
  match (a, b) with
  | None, None -> true
  | Some fs, Some gs ->
      List.length fs = List.length gs && List.for_all2 Isf.equal fs gs
  | _ -> false

(* Random vectors of 1-3 ISFs over 2-7 variables; the don't-care
   density varies so that both verdicts are common. *)
let gen_vector =
  let open QCheck2.Gen in
  let* n = int_range 2 7 in
  let* dc_pct = oneofl [ 10; 40; 70; 90 ] in
  let cell =
    let* r = int_bound 99 in
    if r < dc_pct then return 2 else map (fun b -> if b then 1 else 0) bool
  in
  let isf =
    let+ cells = array_repeat (1 lsl n) cell in
    let on = Bv.of_fun n (fun i -> cells.(i) = 1) in
    let dc = Bv.of_fun n (fun i -> cells.(i) = 2) in
    Isf.make man ~on:(Bv.to_bdd man on) ~dc:(Bv.to_bdd man dc)
  in
  let* k = int_range 1 3 in
  let+ fs = list_repeat k isf in
  (n, fs)

let oracle_props =
  [
    QCheck2.Test.make ~name:"quadrant exchange equals the swap-based oracle"
      ~count:300 gen_vector (fun (n, fs) ->
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            List.iter
              (fun rel ->
                ok :=
                  !ok
                  && Symmetry.symmetrizable man fs ~rel i j
                     = Oracle.symmetrizable fs ~rel i j
                  && same_result
                       (Symmetry.symmetrize man fs ~rel i j)
                       (Oracle.symmetrize fs ~rel i j))
              [ false; true ]
          done
        done;
        !ok);
    (* Completely specified vectors half the time, where the test is
       one equality decision; pairs reach two variables past the
       support, where every function is trivially exchangeable. *)
    QCheck2.Test.make ~name:"symmetrizable agrees with the swap_rel oracle"
      ~count:300
      QCheck2.Gen.(
        let* n = int_range 1 6 in
        let* dc_pct = oneofl [ 0; 0; 15; 50 ] in
        let cell =
          let* r = int_bound 99 in
          if r < dc_pct then return 2 else map (fun b -> if b then 1 else 0) bool
        in
        let isf =
          let+ cells = array_repeat (1 lsl n) cell in
          let on = Bv.of_fun n (fun i -> cells.(i) = 1) in
          let dc = Bv.of_fun n (fun i -> cells.(i) = 2) in
          Isf.make man ~on:(Bv.to_bdd man on) ~dc:(Bv.to_bdd man dc)
        in
        let+ fs = list_size (int_range 1 3) isf in
        (n, fs))
      (fun (n, fs) ->
        let ok = ref true in
        for i = 0 to n + 1 do
          for j = 0 to n + 1 do
            List.iter
              (fun rel ->
                ok :=
                  !ok
                  && Symmetry.symmetrizable man fs ~rel i j
                     = Oracle.symmetrizable fs ~rel i j)
              [ false; true ]
          done
        done;
        !ok);
    QCheck2.Test.make ~name:"close_group equals the swap-based oracle"
      ~count:300
      QCheck2.Gen.(
        let* n, fs = gen_vector in
        let* vars = shuffle_l (List.init n Fun.id) in
        let* size = int_range 2 (min 4 n) in
        let+ phases = list_repeat size bool in
        (fs, List.combine (List.filteri (fun k _ -> k < size) vars) phases))
      (fun (fs, group) ->
        same_result
          (Symmetry.close_group man fs group)
          (Oracle.close_group fs group));
    (* Merges of either phase, so groups mix nonequivalence and
       equivalence pairs: closing each merge over its chain gives the
       closure over all its pairs. *)
    QCheck2.Test.make ~name:"maximize equals a greedy closing over all pairs"
      ~count:100 gen_vector (fun (n, fs) ->
        let vars = List.init n Fun.id in
        let r = Symmetry.maximize man fs vars in
        let fs', groups = Oracle.maximize fs vars in
        r.Symmetry.groups = groups
        && same_result (Some r.Symmetry.functions) (Some fs'));
  ]

let suite =
  detection_tests @ symmetrize_tests
  @ List.map
      (fun p -> QCheck_alcotest.to_alcotest ~long:false p)
      (props @ oracle_props)
