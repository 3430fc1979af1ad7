(* Tests for the ROBDD substrate: unit cases plus property tests that
   compare every operation against the dense truth-table oracle [Bv]. *)

let man = Bdd.manager ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Random BDD generator paired with its truth table, over [n] variables. *)
let gen_fun n =
  let open QCheck2.Gen in
  let+ bits = list_size (return (1 lsl n)) bool in
  let arr = Array.of_list bits in
  Bv.of_fun n (fun i -> arr.(i))

let bdd_of_bv bv = Bv.to_bdd man bv

let prop name ?(count = 200) gen f = QCheck2.Test.make ~name ~count gen f

let nvars_default = 6

let basic_tests =
  [
    Alcotest.test_case "constants" `Quick (fun () ->
        check_bool "zero is zero" true (Bdd.is_zero (Bdd.zero man));
        check_bool "one is one" true (Bdd.is_one (Bdd.one man));
        check_bool "zero <> one" false (Bdd.equal (Bdd.zero man) (Bdd.one man)));
    Alcotest.test_case "var / nvar" `Quick (fun () ->
        let x = Bdd.var man 0 in
        check_bool "x(1)=1" true (Bdd.eval x (fun _ -> true));
        check_bool "x(0)=0" false (Bdd.eval x (fun _ -> false));
        check_bool "nvar = not var" true
          (Bdd.equal (Bdd.nvar man 0) (Bdd.not_ man x)));
    Alcotest.test_case "hash consing" `Quick (fun () ->
        let a = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
        let b = Bdd.and_ man (Bdd.var man 1) (Bdd.var man 0) in
        check_bool "structural sharing" true (Bdd.equal a b);
        check_int "same id" (Bdd.id a) (Bdd.id b));
    Alcotest.test_case "de morgan" `Quick (fun () ->
        let x = Bdd.var man 0 and y = Bdd.var man 1 in
        check_bool "not(x/\\y) = notx \\/ noty" true
          (Bdd.equal
             (Bdd.not_ man (Bdd.and_ man x y))
             (Bdd.or_ man (Bdd.not_ man x) (Bdd.not_ man y))));
    Alcotest.test_case "xor of var with itself" `Quick (fun () ->
        let x = Bdd.var man 3 in
        check_bool "x xor x = 0" true (Bdd.is_zero (Bdd.xor man x x)));
    Alcotest.test_case "ite as mux" `Quick (fun () ->
        let s = Bdd.var man 0 and a = Bdd.var man 1 and b = Bdd.var man 2 in
        let mux = Bdd.ite man s a b in
        check_bool "sel=1" true
          (Bdd.eval mux (fun v -> v = 0 || v = 1));
        check_bool "sel=0" false (Bdd.eval mux (fun v -> v = 1 && false)));
    Alcotest.test_case "support" `Quick (fun () ->
        let f =
          Bdd.or_ man
            (Bdd.and_ man (Bdd.var man 1) (Bdd.var man 4))
            (Bdd.var man 2)
        in
        Alcotest.(check (list int)) "support" [ 1; 2; 4 ] (Bdd.support man f));
    Alcotest.test_case "restrict removes variable" `Quick (fun () ->
        let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 1) in
        let f0 = Bdd.restrict man f 0 false in
        check_bool "f|x0=0 = x1" true (Bdd.equal f0 (Bdd.var man 1));
        let f1 = Bdd.restrict man f 0 true in
        check_bool "f|x0=1 = not x1" true (Bdd.equal f1 (Bdd.nvar man 1)));
    Alcotest.test_case "exists / forall" `Quick (fun () ->
        let f = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
        check_bool "exists x0 (x0 /\\ x1) = x1" true
          (Bdd.equal (Bdd.exists man [ 0 ] f) (Bdd.var man 1)));
    Alcotest.test_case "compose" `Quick (fun () ->
        let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 1) in
        let g = Bdd.and_ man (Bdd.var man 2) (Bdd.var man 3) in
        let h = Bdd.compose man f 0 g in
        check_bool "compose = xor(and(x2,x3),x1)" true
          (Bdd.equal h (Bdd.xor man g (Bdd.var man 1))));
    Alcotest.test_case "vector_compose checks its precondition" `Quick
      (fun () ->
        let x = Bdd.var man in
        let f = Bdd.xor man (x 0) (Bdd.and_ man (x 1) (x 6)) in
        let g =
          Bdd.vector_compose man f [ (0, Bdd.or_ man (x 3) (x 4)); (1, x 5) ]
        in
        check_bool "simultaneous substitution" true
          (Bdd.equal g
             (Bdd.xor man (Bdd.or_ man (x 3) (x 4)) (Bdd.and_ man (x 5) (x 6))));
        let rejected subst =
          match Bdd.vector_compose man f subst with
          | _ -> false
          | exception Assert_failure _ -> true
        in
        check_bool "replacement is a substituted variable" true
          (rejected [ (0, x 1); (1, x 5) ]);
        check_bool "substituted variable below a replacement's root" true
          (rejected [ (0, Bdd.and_ man (x 3) (x 6)); (6, x 5) ]));
    Alcotest.test_case "any_sat" `Quick (fun () ->
        let f = Bdd.and_ man (Bdd.nvar man 0) (Bdd.var man 2) in
        let path = Bdd.any_sat f in
        let assignment v = List.assoc_opt v path = Some true in
        check_bool "path satisfies" true (Bdd.eval f assignment);
        check_bool "zero raises" true
          (match Bdd.any_sat (Bdd.zero man) with
          | exception Not_found -> true
          | _ -> false));
    Alcotest.test_case "swap_vars" `Quick (fun () ->
        (* f = x0 /\ not x1: swapping gives x1 /\ not x0 *)
        let f = Bdd.and_ man (Bdd.var man 0) (Bdd.nvar man 1) in
        let g = Bdd.swap_vars man f 0 1 in
        check_bool "swap" true
          (Bdd.equal g (Bdd.and_ man (Bdd.var man 1) (Bdd.nvar man 0))));
    Alcotest.test_case "negate_var" `Quick (fun () ->
        let f = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
        let g = Bdd.negate_var man f 0 in
        check_bool "negate" true
          (Bdd.equal g (Bdd.and_ man (Bdd.nvar man 0) (Bdd.var man 1))));
    Alcotest.test_case "cofactor_vector indexing" `Quick (fun () ->
        (* f = x1 (second var of the bound list [0;1]): index 1 (x0=0,x1=1)
           and index 3 (x0=1,x1=1) must be one. *)
        let f = Bdd.var man 1 in
        let vec = Bdd.cofactor_vector man f [ 0; 1 ] in
        check_bool "i=0" true (Bdd.is_zero vec.(0));
        check_bool "i=1" true (Bdd.is_one vec.(1));
        check_bool "i=2" true (Bdd.is_zero vec.(2));
        check_bool "i=3" true (Bdd.is_one vec.(3)));
    Alcotest.test_case "of_vector inverse of cofactor_vector" `Quick (fun () ->
        let f =
          Bdd.or_ man
            (Bdd.and_ man (Bdd.var man 0) (Bdd.var man 2))
            (Bdd.xor man (Bdd.var man 1) (Bdd.var man 3))
        in
        let vars = [ 0; 1 ] in
        let vec = Bdd.cofactor_vector man f vars in
        check_bool "roundtrip" true (Bdd.equal (Bdd.of_vector man vars vec) f));
    Alcotest.test_case "extend_cofactor_vector checks its preconditions" `Quick
      (fun () ->
        let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 2) in
        let vec = Bdd.cofactor_vector man f [ 0; 2 ] in
        let rejected vars v =
          match Bdd.extend_cofactor_vector man vec vars v with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        check_bool "length mismatch" true (rejected [ 0 ] 1);
        check_bool "vars not ascending" true (rejected [ 2; 0 ] 1);
        check_bool "variable already bound" true (rejected [ 0; 2 ] 2);
        check_bool "middle insertion matches the direct vector" true
          (Array.for_all2 Bdd.equal
             (Bdd.extend_cofactor_vector man vec [ 0; 2 ] 1)
             (Bdd.cofactor_vector man f [ 0; 1; 2 ])));
    Alcotest.test_case "and_list / or_list" `Quick (fun () ->
        let xs = List.init 3 (Bdd.var man) in
        check_bool "empty and is one" true (Bdd.is_one (Bdd.and_list man []));
        check_bool "empty or is zero" true (Bdd.is_zero (Bdd.or_list man []));
        check_bool "and of three" true
          (Bdd.equal (Bdd.and_list man xs)
             (Bdd.and_ man (List.nth xs 0)
                (Bdd.and_ man (List.nth xs 1) (List.nth xs 2))));
        check_bool "or of three is the not of the nor" true
          (Bdd.equal (Bdd.or_list man xs)
             (Bdd.not_ man (Bdd.and_list man (List.map (Bdd.not_ man) xs)))));
    Alcotest.test_case "minterm_of_code" `Quick (fun () ->
        let mt = Bdd.minterm_of_code man [ 0; 1; 2 ] 0b101 in
        check_bool "101 sat" true
          (Bdd.eval mt (fun v -> v = 0 || v = 2));
        check_int "single minterm" 1 (Bv.count_ones (Bv.of_bdd 3 mt)));
    Alcotest.test_case "size of parity chain" `Quick (fun () ->
        let f =
          List.fold_left
            (fun acc v -> Bdd.xor man acc (Bdd.var man v))
            (Bdd.zero man) [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        in
        (* Parity has 2 nodes per level except the last. *)
        check_int "parity size" 15 (Bdd.size f));
  ]

(* Properties against the truth-table oracle. *)
let oracle_props =
  let n = nvars_default in
  let gen2 = QCheck2.Gen.pair (gen_fun n) (gen_fun n) in
  let gen3 = QCheck2.Gen.triple (gen_fun n) (gen_fun n) (gen_fun n) in
  [
    prop "of_bdd . to_bdd = id" (gen_fun n) (fun bv ->
        Bv.equal bv (Bv.of_bdd n (bdd_of_bv bv)));
    prop "and agrees with oracle" gen2 (fun (a, b) ->
        Bv.equal (Bv.and_ a b)
          (Bv.of_bdd n (Bdd.and_ man (bdd_of_bv a) (bdd_of_bv b))));
    prop "or agrees with oracle" gen2 (fun (a, b) ->
        Bv.equal (Bv.or_ a b)
          (Bv.of_bdd n (Bdd.or_ man (bdd_of_bv a) (bdd_of_bv b))));
    prop "xor agrees with oracle" gen2 (fun (a, b) ->
        Bv.equal (Bv.xor a b)
          (Bv.of_bdd n (Bdd.xor man (bdd_of_bv a) (bdd_of_bv b))));
    prop "not agrees with oracle" (gen_fun n) (fun a ->
        Bv.equal (Bv.not_ a) (Bv.of_bdd n (Bdd.not_ man (bdd_of_bv a))));
    prop "ite agrees with oracle" gen3 (fun (a, b, c) ->
        let expected = Bv.or_ (Bv.and_ a b) (Bv.and_ (Bv.not_ a) c) in
        Bv.equal expected
          (Bv.of_bdd n
             (Bdd.ite man (bdd_of_bv a) (bdd_of_bv b) (bdd_of_bv c))));
    prop "canonicity: equal truth tables give equal nodes" gen2 (fun (a, b) ->
        Bv.equal a b = Bdd.equal (bdd_of_bv a) (bdd_of_bv b));
    prop "restrict agrees with cofactor"
      QCheck2.Gen.(triple (gen_fun n) (int_range 0 (n - 1)) bool)
      (fun (a, v, b) ->
        Bv.equal (Bv.cofactor a v b)
          (Bv.of_bdd n (Bdd.restrict man (bdd_of_bv a) v b)));
    prop "swap_vars is an involution"
      QCheck2.Gen.(triple (gen_fun n) (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      (fun (a, i, j) ->
        let f = bdd_of_bv a in
        Bdd.equal f (Bdd.swap_vars man (Bdd.swap_vars man f i j) i j));
    prop "swap_vars agrees with index swap"
      QCheck2.Gen.(triple (gen_fun n) (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      (fun (a, i, j) ->
        let swapped_bv =
          Bv.of_fun n (fun idx ->
              let bi = (idx lsr i) land 1 and bj = (idx lsr j) land 1 in
              let idx = idx land lnot (1 lsl i) land lnot (1 lsl j) in
              Bv.get a (idx lor (bj lsl i) lor (bi lsl j)))
        in
        Bv.equal swapped_bv (Bv.of_bdd n (Bdd.swap_vars man (bdd_of_bv a) i j)));
    prop "negate_var agrees with index flip"
      QCheck2.Gen.(pair (gen_fun n) (int_range 0 (n - 1)))
      (fun (a, v) ->
        let flipped = Bv.of_fun n (fun idx -> Bv.get a (idx lxor (1 lsl v))) in
        Bv.equal flipped (Bv.of_bdd n (Bdd.negate_var man (bdd_of_bv a) v)));
    prop "exists = or of cofactors"
      QCheck2.Gen.(pair (gen_fun n) (int_range 0 (n - 1)))
      (fun (a, v) ->
        let expected = Bv.or_ (Bv.cofactor a v false) (Bv.cofactor a v true) in
        Bv.equal expected (Bv.of_bdd n (Bdd.exists man [ v ] (bdd_of_bv a))));
    prop "support is sound and complete" (gen_fun n) (fun a ->
        let f = bdd_of_bv a in
        let sup = Bdd.support man f in
        List.for_all
          (fun v ->
            let dependent = not (Bv.equal (Bv.cofactor a v false) (Bv.cofactor a v true)) in
            dependent = List.mem v sup)
          [ 0; 1; 2; 3; 4; 5 ]);
    prop "of_vector rebuilds from cofactor_vector"
      (gen_fun n)
      (fun a ->
        let f = bdd_of_bv a in
        let vars = [ 1; 3; 4 ] in
        let vec = Bdd.cofactor_vector man f vars in
        Bdd.equal f (Bdd.of_vector man vars vec));
    prop "compose agrees with oracle substitution"
      QCheck2.Gen.(pair (gen_fun n) (gen_fun n))
      (fun (a, b) ->
        (* substitute variable 0 by g(x1..x5): make g independent of x0 *)
        let g_bv = Bv.cofactor b 0 false in
        let expected =
          Bv.of_fun n (fun idx ->
              let gval = Bv.get g_bv idx in
              let idx' = if gval then idx lor 1 else idx land lnot 1 in
              Bv.get a idx')
        in
        Bv.equal expected
          (Bv.of_bdd n (Bdd.compose man (bdd_of_bv a) 0 (bdd_of_bv g_bv))));
  ]

(* The tables: growth hook, recovery from an aborted operation, lossy
   computed table and node ids.  Each test runs on a fresh manager. *)

let random_bv st n =
  let density = 0.3 +. Random.State.float st 0.4 in
  Bv.of_fun n (fun _ -> Random.State.float st 1.0 < density)

(* Sum over the shared DAG of every node's id times a mix of its
   children's ids: root ids alone do not see the order in which an
   operation created the nodes below the root. *)
let dag_signature fs =
  let seen = Hashtbl.create 64 in
  let rec go acc f =
    match Bdd.view f with
    | `Zero | `One -> acc
    | `Node (_, lo, hi) ->
        if Hashtbl.mem seen (Bdd.id f) then acc
        else begin
          Hashtbl.add seen (Bdd.id f) ();
          go (go (acc + (Bdd.id f * ((3 * Bdd.id lo) + Bdd.id hi))) lo) hi
        end
  in
  List.fold_left go 0 fs

(* A fixed operation sequence; [table_tests] pins the ids it yields. *)
let pinned_sequence () =
  let m = Bdd.manager () in
  let x = Bdd.var m in
  (* An 8-bit adder with the operands in separate halves of the order:
     exponential in the width, so it crosses the first table growth. *)
  let carry = ref (Bdd.zero m) and sums = ref [] in
  for i = 0 to 7 do
    let a = x i and b = x (8 + i) in
    let half = Bdd.xor m a b in
    sums := Bdd.xor m half !carry :: !sums;
    carry := Bdd.or_ m (Bdd.and_ m a b) (Bdd.and_ m !carry half)
  done;
  let sums = List.rev !sums in
  let s7 = List.nth sums 7 in
  let mux = Bdd.ite m (x 16) s7 (Bdd.not_ m !carry) in
  let derived =
    [
      mux;
      Bdd.restrict m mux 3 true;
      Bdd.restrict m s7 11 false;
      Bdd.swap_vars m s7 0 15;
      Bdd.negate_var m !carry 4;
      Bdd.exists m [ 2; 9 ] s7;
      Bdd.compose m s7 5 (Bdd.and_ m (x 17) (x 18));
      Bdd.nand m (List.nth sums 5) (List.nth sums 6);
    ]
  in
  let roots = (!carry :: sums) @ derived in
  (List.map Bdd.id roots, dag_signature roots, Bdd.node_count m)

let table_tests =
  [
    Alcotest.test_case "growth hook fires once per 1024 new nodes" `Quick
      (fun () ->
        let m = Bdd.manager () in
        let calls = ref [] in
        Bdd.set_growth_hook m
          (Some (fun n -> calls := (n, Bdd.node_count m) :: !calls));
        let st = Random.State.make [| 11 |] in
        for _ = 1 to 4 do
          ignore (Bv.to_bdd m (random_bv st 13))
        done;
        let total = Bdd.node_count m in
        check_bool "several polls" true (total >= 3 * 1024);
        Alcotest.(check (list int))
          "polled at every 1024th node"
          (List.init (total / 1024) (fun i -> (i + 1) * 1024))
          (List.rev_map fst !calls);
        check_bool "argument is node_count" true
          (List.for_all (fun (n, count) -> n = count) !calls));
    Alcotest.test_case "a raising hook leaves the manager usable" `Quick
      (fun () ->
        let n = 14 in
        let m = Bdd.manager () in
        let st = Random.State.make [| 5 |] in
        let a = random_bv st n and b = random_bv st n in
        let f = Bv.to_bdd m a and g = Bv.to_bdd m b in
        Bdd.set_growth_hook m (Some (fun _ -> raise Exit));
        check_bool "and_ aborted" true
          (match Bdd.and_ m f g with _ -> false | exception Exit -> true);
        Bdd.set_growth_hook m None;
        let h = Bdd.and_ m f g in
        check_bool "and after abort" true (Bv.equal (Bv.and_ a b) (Bv.of_bdd n h));
        check_bool "xor after abort" true
          (Bv.equal (Bv.xor a b) (Bv.of_bdd n (Bdd.xor m f g)));
        check_int "commuted and shares the node" (Bdd.id h)
          (Bdd.id (Bdd.and_ m g f));
        check_int "rebuilt from the truth table shares the node" (Bdd.id h)
          (Bdd.id (Bv.to_bdd m (Bv.and_ a b)));
        check_int "de Morgan shares the node" (Bdd.id h)
          (Bdd.id (Bdd.nor m (Bdd.not_ m f) (Bdd.not_ m g))));
    Alcotest.test_case "node ids of a fixed sequence" `Quick (fun () ->
        (* The values the kernel has always produced: a table change that
           renumbers nodes moves every score-cache key and network. *)
        let ids, signature, count = pinned_sequence () in
        Alcotest.(check (list int))
          "ids"
          [ 2758; 5; 14; 38; 92; 206; 440; 914; 1868; 3780; 6759; 6752; 6521;
            5281; 5220; 4618; 4286 ]
          ids;
        check_int "DAG signature" 223586871698 signature;
        check_int "node_count" 6758 count);
    Alcotest.test_case "two-variable operations check their variables" `Quick
      (fun () ->
        let m = Bdd.manager () in
        let f = Bdd.xor m (Bdd.var m 0) (Bdd.var m 1) in
        let rejected op =
          match op () with _ -> false | exception Invalid_argument _ -> true
        in
        let eq i j () = Bdd.equal_cof2 m i j f false true f true false in
        let le i j () = Bdd.leq_cof2 m i j f false true f true false in
        let far = 1 lsl 31 in
        check_bool "equal_cof2 on one variable" true (rejected (eq 1 1));
        check_bool "leq_cof2 on one variable" true (rejected (le 0 0));
        check_bool "exchange_close on one variable" true
          (rejected (fun () -> Bdd.exchange_close m `Or f ~rel:false 1 1));
        check_bool "a pair 2^31 apart" true (rejected (eq (far / 2) (-far / 2)));
        check_bool "a variable below -2^31" true (rejected (le 0 (-far - 1)));
        check_bool "a variable at 2^31" true (rejected (eq 5 far));
        check_bool "the widest pair inside the range" false
          (rejected (eq (-far) (-1)));
        check_bool "x0 xor x1 is exchange-symmetric" true (eq 1 0 ()));
  ]

(* A fresh manager pushed far past its initial unique-table and
   computed-table sizes, so entries are evicted and tables regrow while
   results are checked.  The operands include both constants and three
   derived from the first two random ones (a meet, a join and a
   difference), and every operand meets itself, so the decisions see
   yes as well as no, and their shortcuts. *)
let eviction_prop =
  prop "operations agree with oracle past the initial tables" ~count:3
    QCheck2.Gen.int (fun seed ->
      let n = 14 in
      let st = Random.State.make [| seed |] in
      let m = Bdd.manager () in
      let bvs = Array.init 5 (fun _ -> random_bv st n) in
      let bvs =
        Array.append bvs
          [|
            Bv.create n false;
            Bv.create n true;
            Bv.and_ bvs.(0) bvs.(1);
            Bv.or_ bvs.(0) bvs.(1);
            Bv.and_ bvs.(0) (Bv.not_ bvs.(1));
          |]
      in
      let fs = Array.map (Bv.to_bdd m) bvs in
      let nops = Array.length bvs in
      let results = ref [] in
      let record bv f = results := (bv, f) :: !results in
      (* (expected, answer, did the answer leave node_count alone?) *)
      let decisions = ref [] in
      let decide expected answer =
        let before = Bdd.node_count m in
        let got = answer () in
        decisions := (expected, got, Bdd.node_count m = before) :: !decisions
      in
      Array.iteri
        (fun i a ->
          let f = fs.(i) in
          (* Tabulating a result is the slow part: do it for the random
             operands only. *)
          let random = i < 5 in
          if random then begin
            record (Bv.not_ a) (Bdd.not_ m f);
            record (Bv.cofactor a i true) (Bdd.restrict m f i true);
            record (Bv.cofactor a (i + 5) false) (Bdd.restrict m f (i + 5) false)
          end;
          Array.iteri
            (fun j b ->
              let k = (i + j) mod nops in
              let g = fs.(j) and c = bvs.(k) and h = fs.(k) in
              if random && j < 5 then begin
                record (Bv.and_ a b) (Bdd.and_ m f g);
                record (Bv.or_ a b) (Bdd.or_ m f g);
                record (Bv.xor a b) (Bdd.xor m f g);
                record
                  (Bv.or_ (Bv.and_ a b) (Bv.and_ (Bv.not_ a) c))
                  (Bdd.ite m f g h);
                record (Bv.and_ a (Bv.not_ b)) (Bdd.diff m f g)
              end;
              decide
                (Bv.is_zero (Bv.and_ a b))
                (fun () -> Bdd.disjoint m f g);
              decide
                (Bv.is_zero (Bv.and_ a (Bv.not_ b)))
                (fun () -> Bdd.leq m f g);
              decide
                (Bv.is_zero (Bv.and_ c (Bv.xor a b)))
                (fun () -> Bdd.equal_on m ~care:h f g))
            bvs)
        bvs;
      let results = List.rev !results in
      Bdd.node_count m > 20_000
      && List.for_all (fun (bv, f) -> Bv.equal bv (Bv.of_bdd n f)) results
      && List.for_all
           (fun (expected, got, no_node) -> expected = got && no_node)
           !decisions
      (* [diff] is native: the node of the conjunction with the
         complement. *)
      && Array.for_all
           (fun f ->
             Array.for_all
               (fun g ->
                 Bdd.equal (Bdd.diff m f g) (Bdd.and_ m f (Bdd.not_ m g)))
               fs)
           fs
      (* Canonicity after evictions: recomputing every result, and
         rebuilding it from its truth table, lands on the same node. *)
      && List.for_all (fun (bv, f) -> Bdd.equal f (Bv.to_bdd m bv)) results
      &&
      let fs = Array.sub fs 0 5 in
      Array.for_all
        (fun f ->
          Array.for_all
            (fun g ->
              Bdd.equal (Bdd.and_ m f g) (Bdd.nor m (Bdd.not_ m f) (Bdd.not_ m g)))
            fs)
        fs)

(* Node counts from one domain's reused id set, against a fresh
   Hashtbl walk: lists of growing and shrinking DAGs in turn, so the
   set is cleared after large counts and grown past its first size. *)
let size_prop =
  prop "size_list counts the shared DAG across reuses" ~count:10
    QCheck2.Gen.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let m = Bdd.manager () in
      let reference fs =
        let seen = Hashtbl.create 64 in
        let rec go f =
          match Bdd.view f with
          | `Zero | `One -> ()
          | `Node (_, lo, hi) ->
              if not (Hashtbl.mem seen (Bdd.id f)) then begin
                Hashtbl.add seen (Bdd.id f) ();
                go lo;
                go hi
              end
        in
        List.iter go fs;
        Hashtbl.length seen
      in
      List.for_all
        (fun n ->
          let fs =
            List.init (1 + Random.State.int st 3) (fun _ ->
                Bv.to_bdd m (random_bv st n))
          in
          Bdd.size_list fs = reference fs
          && List.for_all (fun f -> Bdd.size f = reference [ f ]) fs)
        [ 3; 12; 5; 13; 0; 8; 11; 2 ])

(* The node-free cofactor decisions against the built restricts and
   the truth-table oracle.  The operands live on variables [shift ..
   shift + 4] ([shift = -3] puts some at negative indices) and include
   both constants, a lone variable, every operand paired with itself,
   and operands with one variable complemented or conjoined, whose
   cofactors meet across different bits; [v] runs from two levels
   above every top to two below every variable, so it falls above, at
   and below the operands' tops and outside their supports.  The
   two-variable decisions take every ordered pair [(i, j)] of distinct
   variables from that range, so both orders, with four bits drawn per
   pair of operands and variables, and are asked again with the pair
   and the bits swapped.  Every answer is taken before any restrict is
   built, and no answer may move [node_count]. *)
let cofactor_decision_prop =
  prop "equal_cof and leq_cof agree with the built restricts" ~count:20
    QCheck2.Gen.(pair int (oneofl [ 0; -3 ]))
    (fun (seed, shift) ->
      let n = 5 in
      let st = Random.State.make [| seed |] in
      let m = Bdd.manager () in
      let bvs = Array.init 4 (fun _ -> random_bv st n) in
      let flip t k = Bv.of_fun n (fun i -> Bv.get t (i lxor (1 lsl k))) in
      let bvs =
        Array.append bvs
          [|
            Bv.create n false;
            Bv.create n true;
            Bv.var n 2;
            flip bvs.(0) 1;
            flip bvs.(1) 3;
            Bv.and_ bvs.(0) bvs.(1);
          |]
      in
      let fs =
        Array.map (fun bv -> Bdd.rename m (Bv.to_bdd m bv) (fun k -> k + shift)) bvs
      in
      let answers = ref [] in
      Array.iteri
        (fun i f ->
          Array.iteri
            (fun j g ->
              for v = shift - 2 to shift + n + 1 do
                List.iter
                  (fun (a, b) ->
                    let before = Bdd.node_count m in
                    let eq = Bdd.equal_cof m v f a g b in
                    let le = Bdd.leq_cof m v f a g b in
                    answers :=
                      ((i, j, v, a, b), (eq, le), Bdd.node_count m = before)
                      :: !answers)
                  [ (false, false); (false, true); (true, false); (true, true) ]
              done)
            fs)
        fs;
      let vars = List.init (n + 4) (fun k -> shift - 2 + k) in
      let answers2 = ref [] in
      Array.iteri
        (fun x f ->
          Array.iteri
            (fun y g ->
              List.iter
                (fun i ->
                  List.iter
                    (fun j ->
                      if i <> j then begin
                        let bit () = Random.State.bool st in
                        let a = bit () and b = bit () in
                        let c = bit () and d = bit () in
                        let before = Bdd.node_count m in
                        let eq = Bdd.equal_cof2 m i j f a b g c d in
                        let le = Bdd.leq_cof2 m i j f a b g c d in
                        let eq' = Bdd.equal_cof2 m j i f b a g d c in
                        let le' = Bdd.leq_cof2 m j i f b a g d c in
                        answers2 :=
                          ( (x, y, i, j, a, b, c, d),
                            (eq, le),
                            eq = eq' && le = le' && Bdd.node_count m = before )
                          :: !answers2
                      end)
                    vars)
                vars)
            fs)
        fs;
      (* The cofactor of table [t] on variable [v], as a table. *)
      let cof t v b =
        if v >= shift && v < shift + n then Bv.cofactor t (v - shift) b else t
      in
      List.for_all
        (fun ((i, j, v, a, b), (eq, le), no_node) ->
          let ra = Bdd.restrict m fs.(i) v a and rb = Bdd.restrict m fs.(j) v b in
          let ta = cof bvs.(i) v a and tb = cof bvs.(j) v b in
          no_node
          && eq = Bdd.equal ra rb
          && le = Bdd.leq m ra rb
          && eq = Bv.equal ta tb
          && le = Bv.is_zero (Bv.and_ ta (Bv.not_ tb)))
        !answers
      && List.for_all
           (fun ((x, y, i, j, a, b, c, d), (eq, le), consistent) ->
             let r f i a j b = Bdd.restrict m (Bdd.restrict m f i a) j b in
             let ra = r fs.(x) i a j b and rb = r fs.(y) i c j d in
             let ta = cof (cof bvs.(x) i a) j b and tb = cof (cof bvs.(y) i c) j d in
             consistent
             && eq = Bdd.equal ra rb
             && le = Bdd.leq m ra rb
             && eq = Bv.equal ta tb
             && le = Bv.is_zero (Bv.and_ ta (Bv.not_ tb)))
           !answers2)

(* [exchange_close] against the quadrant formula built from restricts
   and ITEs: [f] on the fixed quadrants [(x_i, x_j) = (0, rel)] and
   [(1, not rel)], [f_a op f_b] on the moved ones.  Operands and pairs
   as in the decisions above: random tables, both constants and a lone
   variable on [shift .. shift + 4], [i] and [j] in both orders from two
   levels above the tops to two below every variable.  Each result is
   closed under the exchange for both operations, so closing it again
   returns it and builds no node. *)
let exchange_close_prop =
  prop "exchange_close equals the quadrant formula and is idempotent" ~count:20
    QCheck2.Gen.(pair int (oneofl [ 0; -3 ]))
    (fun (seed, shift) ->
      let n = 5 in
      let st = Random.State.make [| seed |] in
      let m = Bdd.manager () in
      let fs =
        Array.append
          (Array.init 4 (fun _ -> random_bv st n))
          [| Bv.create n false; Bv.create n true; Bv.var n 2 |]
        |> Array.map (fun bv -> Bdd.rename m (Bv.to_bdd m bv) (fun k -> k + shift))
      in
      let formula op f rel i j =
        let q a b = Bdd.restrict m (Bdd.restrict m f i a) j b in
        let u = op (q false (not rel)) (q true rel) in
        let c = q false rel and d = q true (not rel) in
        let vj = Bdd.var m j in
        let lo = if rel then Bdd.ite m vj c u else Bdd.ite m vj u c in
        let hi = if rel then Bdd.ite m vj u d else Bdd.ite m vj d u in
        Bdd.ite m (Bdd.var m i) hi lo
      in
      let vars = List.init (n + 4) (fun k -> shift - 2 + k) in
      Array.for_all
        (fun f ->
          List.for_all
            (fun i ->
              List.for_all
                (fun j ->
                  i = j
                  || List.for_all
                       (fun ((op, bop), rel) ->
                         let g = Bdd.exchange_close m op f ~rel i j in
                         let before = Bdd.node_count m in
                         let closed =
                           Bdd.exchange_close m `Or g ~rel i j == g
                           && Bdd.exchange_close m `And g ~rel j i == g
                         in
                         closed
                         && Bdd.node_count m = before
                         && Bdd.equal g (Bdd.exchange_close m op f ~rel j i)
                         && Bdd.equal g (formula (bop m) f rel i j))
                       [
                         ((`Or, Bdd.or_), false);
                         ((`Or, Bdd.or_), true);
                         ((`And, Bdd.and_), false);
                         ((`And, Bdd.and_), true);
                       ])
                vars)
            vars)
        fs)

(* [eval_cof] against the built restrict, evaluated at the assignment
   the word encodes: bit [u land 63] for variable [u].  The operands
   are random tables on [shift .. shift + 4] ([shift = -3] reaches
   negative indices, [60] wraps past bit 63), both constants and a lone
   variable; [v] runs from two levels above every top to two below
   every variable, so it falls above, at and below the tops.  Every
   answer is taken before any restrict is built, and none may move
   [node_count]. *)
let eval_cof_prop =
  prop "eval_cof is the restrict's value at the word's assignment" ~count:30
    QCheck2.Gen.(triple int (oneofl [ 0; -3; 60 ]) (list_size (return 4) int))
    (fun (seed, shift, words) ->
      let n = 5 in
      let st = Random.State.make [| seed |] in
      let m = Bdd.manager () in
      let bvs =
        Array.append
          (Array.init 4 (fun _ -> random_bv st n))
          [| Bv.create n false; Bv.create n true; Bv.var n 2 |]
      in
      let fs =
        Array.map (fun bv -> Bdd.rename m (Bv.to_bdd m bv) (fun k -> k + shift)) bvs
      in
      let before = Bdd.node_count m in
      let answers = ref [] in
      Array.iteri
        (fun i f ->
          for v = shift - 2 to shift + n + 1 do
            List.iter
              (fun w ->
                List.iter
                  (fun a -> answers := ((i, v, a, w), Bdd.eval_cof f v a w) :: !answers)
                  [ false; true ])
              words
          done)
        fs;
      let no_node = Bdd.node_count m = before in
      no_node
      && List.for_all
           (fun ((i, v, a, w), got) ->
             got
             = Bdd.eval (Bdd.restrict m fs.(i) v a) (fun u ->
                   (w lsr (u land 63)) land 1 = 1))
           !answers)

let suite =
  basic_tests @ table_tests
  @ List.map
      (fun p -> QCheck_alcotest.to_alcotest ~long:false p)
      (oracle_props
       @ [
           eviction_prop;
           size_prop;
           cofactor_decision_prop;
           exchange_close_prop;
           eval_cof_prop;
         ])
