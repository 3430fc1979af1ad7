(* Tests for the SAT layer: literal packing, the CDCL solver against a
   brute-force oracle on random small formulas (the qcheck property the
   whole don't-care analysis leans on), incremental model enumeration,
   assumptions, budgets, and the Tseitin encoder against network
   evaluation. *)

open Sat

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prop name ?(count = 200) gen f = QCheck2.Test.make ~name ~count gen f

(* ---- brute-force oracle ---- *)

let lit_sat assign l = if Cnf.is_pos l then assign (Cnf.var_of l) else not (assign (Cnf.var_of l))

let clause_sat assign c = List.exists (lit_sat assign) c

let models nvars clauses =
  let n = ref 0 in
  for m = 0 to (1 lsl nvars) - 1 do
    let assign v = (m lsr v) land 1 = 1 in
    if List.for_all (clause_sat assign) clauses then incr n
  done;
  !n

(* A random formula as (nvars, clauses): up to 8 variables, clauses of
   1..3 literals, enough clauses to hit both Sat and Unsat regularly. *)
let gen_formula =
  let open QCheck2.Gen in
  let* nvars = int_range 1 8 in
  let gen_lit =
    let* v = int_range 0 (nvars - 1) in
    let+ s = bool in
    if s then Cnf.pos v else Cnf.neg v
  in
  let gen_clause = list_size (int_range 1 3) gen_lit in
  let+ clauses = list_size (int_range 1 30) gen_clause in
  (nvars, clauses)

let solver_of (nvars, clauses) =
  let cnf = Cnf.create () in
  for _ = 1 to nvars do
    ignore (Cnf.fresh cnf)
  done;
  List.iter (Cnf.add_clause cnf) clauses;
  Solver.create cnf

let cnf_tests =
  [
    Alcotest.test_case "literal packing" `Quick (fun () ->
        check_int "pos var" 7 (Cnf.var_of (Cnf.pos 7));
        check_int "neg var" 7 (Cnf.var_of (Cnf.neg 7));
        check_bool "pos sign" true (Cnf.is_pos (Cnf.pos 3));
        check_bool "neg sign" false (Cnf.is_pos (Cnf.neg 3));
        check_int "negate" (Cnf.pos 4) (Cnf.negate (Cnf.neg 4));
        check_int "lit_of_bool true" (Cnf.pos 2) (Cnf.lit_of_bool 2 true);
        check_int "lit_of_bool false" (Cnf.neg 2) (Cnf.lit_of_bool 2 false));
    Alcotest.test_case "add_clause validates variables" `Quick (fun () ->
        let cnf = Cnf.create () in
        let v = Cnf.fresh cnf in
        Cnf.add_clause cnf [ Cnf.pos v ];
        (match Cnf.add_clause cnf [ Cnf.pos (v + 1) ] with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument");
        check_int "one clause" 1 (Cnf.nclauses cnf));
    Alcotest.test_case "dimacs rendering" `Quick (fun () ->
        let cnf = Cnf.create () in
        let a = Cnf.fresh cnf and b = Cnf.fresh cnf in
        Cnf.add_clause cnf [ Cnf.pos a; Cnf.neg b ];
        let s = Format.asprintf "%a" Cnf.pp cnf in
        let prefix = "p cnf 2 1" in
        check_bool "header" true
          (String.length s >= String.length prefix
          && String.sub s 0 (String.length prefix) = prefix);
        (* The whole text of a formula with an AND-LUT block, a duplicate
           literal and a tautology: clauses are stored as given, in
           insertion order — a LUT clause lists its cube's fanins from
           the last down, then the output; the AND's one on-cube comes
           before its two off-cubes. *)
        let cnf = Cnf.create () in
        let a = Cnf.fresh cnf and b = Cnf.fresh cnf and c = Cnf.fresh cnf in
        Encode.lut cnf ~out:c ~fanins:[| a; b |]
          (Isop.of_table (Bv.of_fun 2 (fun i -> i = 3)));
        Cnf.add_clause cnf [ Cnf.pos a; Cnf.pos a; Cnf.neg b ];
        Cnf.add_clause cnf [ Cnf.pos a; Cnf.neg c; Cnf.neg a ];
        Alcotest.(check string)
          "full text"
          "p cnf 3 5\n-2 -1 3 0\n2 -3 0\n1 -3 0\n1 1 -2 0\n1 -3 -1 0\n"
          (Format.asprintf "%a" Cnf.pp cnf));
  ]

let solver_unit_tests =
  [
    Alcotest.test_case "trivial sat and unsat" `Quick (fun () ->
        let s = solver_of (1, [ [ Cnf.pos 0 ] ]) in
        check_bool "sat" true (Solver.solve s = Solver.Sat);
        check_bool "model" true (Solver.value s 0);
        let s = solver_of (1, [ [ Cnf.pos 0 ]; [ Cnf.neg 0 ] ]) in
        check_bool "unsat" true (Solver.solve s = Solver.Unsat));
    Alcotest.test_case "empty formula is sat" `Quick (fun () ->
        let s = solver_of (0, []) in
        check_bool "sat" true (Solver.solve s = Solver.Sat));
    Alcotest.test_case "value without a model raises" `Quick (fun () ->
        let s = solver_of (1, [ [ Cnf.pos 0 ]; [ Cnf.neg 0 ] ]) in
        ignore (Solver.solve s);
        match Solver.value s 0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "unsat under assumptions, sat without" `Quick (fun () ->
        (* x0 = x1 (two implications); assuming them different is unsat *)
        let s =
          solver_of
            (2, [ [ Cnf.neg 0; Cnf.pos 1 ]; [ Cnf.pos 0; Cnf.neg 1 ] ])
        in
        check_bool "unsat under assumptions" true
          (Solver.solve ~assumptions:[ Cnf.pos 0; Cnf.neg 1 ] s = Solver.Unsat);
        check_bool "still sat alone" true (Solver.solve s = Solver.Sat);
        check_bool "equal in model" true (Solver.value s 0 = Solver.value s 1));
    Alcotest.test_case "duplicate assumptions are harmless" `Quick (fun () ->
        let s = solver_of (1, [ [ Cnf.pos 0 ] ]) in
        let a = List.init 10 (fun _ -> Cnf.pos 0) in
        check_bool "sat" true (Solver.solve ~assumptions:a s = Solver.Sat));
    Alcotest.test_case "conflict budget yields Unknown" `Quick (fun () ->
        (* pigeonhole: 7 pigeons, 6 holes — unsat, needs real search *)
        let np = 7 and nh = 6 in
        let cnf = Cnf.create () in
        let v = Array.init np (fun _ -> Array.init nh (fun _ -> Cnf.fresh cnf)) in
        for p = 0 to np - 1 do
          Cnf.add_clause cnf (List.init nh (fun h -> Cnf.pos v.(p).(h)))
        done;
        for h = 0 to nh - 1 do
          for p = 0 to np - 1 do
            for q = p + 1 to np - 1 do
              Cnf.add_clause cnf [ Cnf.neg v.(p).(h); Cnf.neg v.(q).(h) ]
            done
          done
        done;
        let s = Solver.create cnf in
        (match Solver.solve ~max_conflicts:3 s with
        | Solver.Unknown reason ->
            check_bool "names the budget" true (reason = "conflict budget")
        | _ -> Alcotest.fail "expected Unknown");
        (* without the cap the refutation completes *)
        check_bool "unsat in full" true (Solver.solve s = Solver.Unsat));
    Alcotest.test_case "check callback exception propagates" `Quick (fun () ->
        let s =
          solver_of
            ( 3,
              [
                [ Cnf.pos 0; Cnf.pos 1 ];
                [ Cnf.neg 0; Cnf.pos 2 ];
                [ Cnf.neg 1; Cnf.neg 2 ];
              ] )
        in
        match Solver.solve ~check:(fun () -> failwith "abort") s with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected the callback's exception");
  ]

let oracle_props =
  [
    prop "cdcl agrees with brute force" ~count:500 gen_formula
      (fun ((nvars, clauses) as f) ->
        let s = solver_of f in
        let expect = models nvars clauses > 0 in
        match Solver.solve s with
        | Solver.Sat ->
            expect
            && List.for_all (clause_sat (Solver.value s)) clauses
        | Solver.Unsat -> not expect
        | Solver.Unknown _ -> false);
    prop "blocking-clause enumeration counts all models" ~count:200
      (QCheck2.Gen.map
         (fun (n, cs) -> (min n 6, cs))
         gen_formula)
      (fun (nvars, clauses) ->
        let clauses =
          List.filter
            (List.for_all (fun l -> Cnf.var_of l < nvars))
            clauses
        in
        let s = solver_of (nvars, clauses) in
        let found = ref 0 in
        let continue = ref true in
        while !continue do
          match Solver.solve s with
          | Solver.Sat ->
              incr found;
              (* block exactly this total assignment *)
              Solver.add_clause s
                (List.init nvars (fun v ->
                     Cnf.lit_of_bool v (not (Solver.value s v))))
          | Solver.Unsat -> continue := false
          | Solver.Unknown _ -> Alcotest.fail "unexpected Unknown"
        done;
        !found = models nvars clauses);
    prop "solve under assumptions = solve with units" ~count:300
      (let open QCheck2.Gen in
       let* ((nvars, _) as f) = gen_formula in
       let+ assum =
         list_size (int_range 0 4)
           (let* v = int_range 0 (nvars - 1) in
            let+ s = bool in
            Cnf.lit_of_bool v s)
       in
       (f, assum))
      (fun ((nvars, clauses), assum) ->
        let s = solver_of (nvars, clauses) in
        let got = Solver.solve ~assumptions:assum s in
        let expect =
          models nvars (clauses @ List.map (fun l -> [ l ]) assum) > 0
        in
        match got with
        | Solver.Sat ->
            expect && List.for_all (lit_sat (Solver.value s)) assum
        | Solver.Unsat -> not expect
        | Solver.Unknown _ -> false);
  ]

(* ---- Tseitin encoding ---- *)

let encode_props =
  [
    prop "lut clauses define exactly the truth table" ~count:200
      (let open QCheck2.Gen in
       let* k = int_range 0 8 in
       let+ bits = list_size (return (1 lsl k)) bool in
       let arr = Array.of_list bits in
       Bv.of_fun k (fun i -> arr.(i)))
      (fun tt ->
        let k = Bv.nvars tt in
        let cnf = Cnf.create () in
        let fanins = Array.init k (fun _ -> Cnf.fresh cnf) in
        let out = Cnf.fresh cnf in
        Encode.lut cnf ~out ~fanins (Isop.of_table tt);
        (* one clause per cube, never more than the table has rows *)
        let ok = ref (Cnf.nclauses cnf <= 1 lsl k) in
        let s = Solver.create cnf in
        (* for every input code, the forced output is the table entry *)
        for c = 0 to (1 lsl k) - 1 do
          let assum =
            List.init k (fun j ->
                Cnf.lit_of_bool fanins.(j) ((c lsr j) land 1 = 1))
          in
          (match Solver.solve ~assumptions:assum s with
          | Solver.Sat ->
              if Solver.value s out <> Bv.get tt c then ok := false
          | _ -> ok := false);
          (* and the opposite output is impossible *)
          match
            Solver.solve
              ~assumptions:(Cnf.lit_of_bool out (not (Bv.get tt c)) :: assum)
              s
          with
          | Solver.Unsat -> ()
          | _ -> ok := false
        done;
        !ok);
    prop "of_network agrees with Network.eval" ~count:100
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let net =
          Randnet.cones ~ninputs:6 ~noutputs:3 ~window:5 ~gates_per_output:6
            ~seed ()
        in
        let cnf = Cnf.create () in
        let env = Encode.of_network cnf net in
        let s = Solver.create cnf in
        let inputs = Encode.input_vars env in
        let ok = ref true in
        for m = 0 to 15 do
          (* 16 pseudo-random input vectors per network *)
          let bit name =
            let h = Hashtbl.hash (seed, m, name) in
            h land 1 = 1
          in
          let assum =
            List.map (fun (n, v) -> Cnf.lit_of_bool v (bit n)) inputs
          in
          match Solver.solve ~assumptions:assum s with
          | Solver.Sat ->
              let expect = Network.eval net bit in
              List.iter
                (fun (n, v) ->
                  if Solver.value s v <> List.assoc n expect then ok := false)
                (Encode.output_vars env)
          | _ -> ok := false
        done;
        !ok);
  ]

let misc_tests =
  [
    Alcotest.test_case "xor_var and equiv_neg" `Quick (fun () ->
        let cnf = Cnf.create () in
        let a = Cnf.fresh cnf and b = Cnf.fresh cnf in
        let x = Encode.xor_var cnf a b in
        let c = Cnf.fresh cnf in
        Encode.equiv_neg cnf a c;
        let s = Solver.create cnf in
        List.iter
          (fun (va, vb) ->
            match
              Solver.solve
                ~assumptions:
                  [ Cnf.lit_of_bool a va; Cnf.lit_of_bool b vb ]
                s
            with
            | Solver.Sat ->
                check_bool "xor" (va <> vb) (Solver.value s x);
                check_bool "neg" (not va) (Solver.value s c)
            | _ -> Alcotest.fail "expected Sat")
          [ (false, false); (false, true); (true, false); (true, true) ]);
    Alcotest.test_case "constant pins" `Quick (fun () ->
        let cnf = Cnf.create () in
        let v = Cnf.fresh cnf in
        Encode.constant cnf v true;
        let s = Solver.create cnf in
        check_bool "sat" true (Solver.solve s = Solver.Sat);
        check_bool "pinned" true (Solver.value s v);
        check_bool "contradiction" true
          (Solver.solve ~assumptions:[ Cnf.neg v ] s = Solver.Unsat));
  ]

let suite =
  cnf_tests @ solver_unit_tests @ misc_tests
  @ List.map
      (fun t -> QCheck_alcotest.to_alcotest t)
      (oracle_props @ encode_props)
