(* The resource governor: degraded runs must still produce correct
   networks, unlimited budgets must be inert, and the BLIF/PLA parsers
   must report malformed input with a line number instead of crashing. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let names n = List.init n (Printf.sprintf "x%d")

let cone_spec m ~seed =
  let net = Randnet.cones ~ninputs:24 ~noutputs:6 ~seed () in
  Randnet.spec_of_network m net

let lut_count net = (Network.stats net).Network.lut_count

(* ---- governor mechanics ---- *)

let governor_tests =
  [
    Alcotest.test_case "unlimited budget is inert" `Quick (fun () ->
        check_bool "not limited" false (Budget.is_limited Budget.unlimited);
        let m = Bdd.manager () in
        let spec = cone_spec m ~seed:7 in
        let baseline = Driver.decompose m spec in
        let governed = Driver.decompose ~budget:(Budget.create ()) m spec in
        check_int "same lut count" (lut_count baseline) (lut_count governed));
    Alcotest.test_case "check raises past the node limit" `Quick (fun () ->
        let m = Bdd.manager () in
        let b = Budget.create ~node_budget:0 () in
        Budget.attach b m;
        ignore (Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1));
        (match Budget.check b ~where:"test" with
        | () -> Alcotest.fail "expected Out_of_budget"
        | exception Budget.Out_of_budget { reason = Budget.Nodes; where } ->
            check_string "where" "test" where
        | exception Budget.Out_of_budget { reason = Budget.Deadline; _ } ->
            Alcotest.fail "wrong reason");
        Budget.detach b m);
    Alcotest.test_case "exempt suspends the checks" `Quick (fun () ->
        let m = Bdd.manager () in
        let b = Budget.create ~node_budget:0 () in
        Budget.attach b m;
        ignore (Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1));
        Budget.exempt b (fun () -> Budget.check b ~where:"inside");
        Budget.detach b m);
    Alcotest.test_case "degradation ladder is sticky and terminal" `Quick
      (fun () ->
        let m = Bdd.manager () in
        let b = Budget.create ~timeout:10.0 () in
        Budget.attach b m;
        check_bool "starts full" true (Budget.stage b = Budget.Full);
        let s1 = Budget.degrade b m Budget.Deadline in
        check_bool "no-symmetry" true (s1 = Budget.No_symmetry);
        let s2 = Budget.degrade b m Budget.Deadline in
        check_bool "no-sharing" true (s2 = Budget.No_sharing);
        let s3 = Budget.degrade b m Budget.Deadline in
        check_bool "shannon-only" true (s3 = Budget.Shannon_only);
        let s4 = Budget.degrade b m Budget.Deadline in
        check_bool "stays terminal" true (s4 = Budget.Shannon_only);
        (* terminal stage disarms the budget: checks are free *)
        Budget.check b ~where:"after");
    Alcotest.test_case "attach re-arms a reused budget" `Quick (fun () ->
        let b = Budget.create ~node_budget:0 () in
        (* run 1: exceed the allowance, ride the ladder to the bottom *)
        let m1 = Bdd.manager () in
        Budget.attach b m1;
        ignore (Bdd.and_ m1 (Bdd.var m1 0) (Bdd.var m1 1));
        (match Budget.check b ~where:"run1" with
        | () -> Alcotest.fail "expected Out_of_budget in run 1"
        | exception Budget.Out_of_budget _ -> ());
        ignore (Budget.degrade b m1 Budget.Nodes);
        ignore (Budget.degrade b m1 Budget.Nodes);
        ignore (Budget.degrade b m1 Budget.Nodes);
        check_bool "run 1 ends at the terminal stage" true
          (Budget.stage b = Budget.Shannon_only);
        Budget.detach b m1;
        (* run 2: attach must reset the stage and re-anchor the node
           baseline at the new manager, not inherit run 1's state *)
        let m2 = Bdd.manager () in
        Budget.attach b m2;
        check_bool "stage reset to full" true (Budget.stage b = Budget.Full);
        Budget.check b ~where:"run2-fresh";
        ignore (Bdd.and_ m2 (Bdd.var m2 0) (Bdd.var m2 1));
        (match Budget.check b ~where:"run2" with
        | () -> Alcotest.fail "expected a fresh allowance to be enforced"
        | exception Budget.Out_of_budget { reason = Budget.Nodes; _ } -> ()
        | exception Budget.Out_of_budget { reason = Budget.Deadline; _ } ->
            Alcotest.fail "wrong reason");
        Budget.detach b m2);
    Alcotest.test_case "polls land in the run's own stats" `Quick (fun () ->
        let stats_a = Stats.create () and stats_b = Stats.create () in
        let a = Budget.create ~node_budget:1_000_000 ~stats:stats_a () in
        let b = Budget.create ~node_budget:1_000_000 ~stats:stats_b () in
        let m = Bdd.manager () in
        Budget.attach a m;
        Budget.check a ~where:"one";
        Budget.check a ~where:"two";
        Budget.detach a m;
        check_bool "budget a counted its own polls" true
          (stats_a.Stats.budget_checks >= 2);
        let a_polls = stats_a.Stats.budget_checks in
        Budget.attach b m;
        Budget.check b ~where:"three";
        Budget.detach b m;
        check_bool "budget b counted its own polls" true
          (stats_b.Stats.budget_checks >= 1);
        (* the growth hook may add polls, but never to the other run *)
        check_int "no cross-talk into a" a_polls stats_a.Stats.budget_checks);
    Alcotest.test_case "effort names roundtrip" `Quick (fun () ->
        List.iter
          (fun e ->
            match Budget.effort_of_string (Budget.effort_name e) with
            | Ok e' -> check_bool (Budget.effort_name e) true (e = e')
            | Error msg -> Alcotest.fail msg)
          [ Budget.Quick; Budget.Normal; Budget.Thorough ];
        check_bool "unknown is an error" true
          (Result.is_error (Budget.effort_of_string "frantic")));
    Alcotest.test_case "effort scales the search knobs" `Quick (fun () ->
        let cfg = Config.mulop_dc in
        let quick =
          Budget.apply_effort (Budget.create ~effort:Budget.Quick ()) cfg
        in
        let thorough =
          Budget.apply_effort (Budget.create ~effort:Budget.Thorough ()) cfg
        in
        let normal = Budget.apply_effort (Budget.create ()) cfg in
        check_bool "normal is identity" true (normal = cfg);
        check_bool "quick shrinks seeds" true
          (quick.Config.seeds <= cfg.Config.seeds);
        check_bool "quick shrinks symmetry budget" true
          (quick.Config.symmetry_budget <= cfg.Config.symmetry_budget);
        check_int "thorough grows seeds" (2 * cfg.Config.seeds)
          thorough.Config.seeds);
    Alcotest.test_case "driver errors render human-readably" `Quick (fun () ->
        let contains s sub =
          let n = String.length sub in
          let rec at i =
            i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
          in
          at 0
        in
        check_bool "iteration budget" true
          (contains
             (Driver.internal_error_message (Driver.Iteration_limit 42))
             "42");
        check_bool "registered printer" true
          (contains
             (Printexc.to_string (Driver.Internal Driver.Worklist_deadlock))
             "deadlock"))
  ]

(* ---- degraded decompositions ---- *)

let degradation_tests =
  [
    Alcotest.test_case "expired deadline: shannon-only, still correct" `Quick
      (fun () ->
        let m = Bdd.manager () in
        let spec = cone_spec m ~seed:3 in
        let stats = Stats.create () in
        let budget = Budget.create ~timeout:0.0 ~stats () in
        let report = Driver.decompose_report ~budget ~stats m spec in
        check_bool "degraded to shannon-only" true
          (report.Driver.degraded_to = Budget.Shannon_only);
        check_bool "verified" true
          (Driver.verify m spec report.Driver.network);
        let stages =
          List.map (fun (s, _, _) -> s) (Stats.degradations stats)
        in
        check_bool "ladder recorded in firing order" true
          (stages = [ "no-symmetry"; "no-sharing"; "shannon-only" ]);
        check_bool "budget polls recorded in the run's own stats" true
          (stats.Stats.budget_checks > 0));
    Alcotest.test_case "tiny node budget: degraded but correct" `Quick
      (fun () ->
        (* The allowance is a quarter of what an unbudgeted run of the
           same spec builds on a fresh manager, so a kernel that builds
           fewer nodes still trips it. *)
        let need =
          let m = Bdd.manager () in
          let spec = cone_spec m ~seed:11 in
          let before = Bdd.node_count m in
          ignore (Driver.decompose m spec);
          Bdd.node_count m - before
        in
        let m = Bdd.manager () in
        let spec = cone_spec m ~seed:11 in
        let budget = Budget.create ~node_budget:(max 1 (need / 4)) () in
        let report = Driver.decompose_report ~budget m spec in
        check_bool "degraded" true
          (report.Driver.degraded_to <> Budget.Full);
        check_bool "verified" true
          (Driver.verify m spec report.Driver.network));
    Alcotest.test_case "generous budget: no degradation, same result" `Quick
      (fun () ->
        let m = Bdd.manager () in
        let spec = cone_spec m ~seed:7 in
        let baseline = Driver.decompose m spec in
        let budget = Budget.create ~timeout:3600.0 ~node_budget:50_000_000 () in
        let report = Driver.decompose_report ~budget m spec in
        check_bool "not degraded" true
          (report.Driver.degraded_to = Budget.Full);
        check_int "identical lut count" (lut_count baseline)
          (lut_count report.Driver.network));
  ]

(* ---- parser error paths ---- *)

let expect_parse_error name ~line ~parse input =
  Alcotest.test_case name `Quick (fun () ->
      match parse input with
      | _ -> Alcotest.fail "expected a parse error"
      | exception Blif.Parse_error (ln, _) -> check_int "line" line ln
      | exception Pla.Parse_error (ln, _) -> check_int "line" line ln)

let blif_parse s = ignore (Blif.parse s)
let pla_parse s = ignore (Pla.parse s)

let parser_tests =
  [
    expect_parse_error "blif: cube arity mismatch" ~line:5 ~parse:blif_parse
      ".model bad\n.inputs a b\n.outputs y\n.names a b y\n1-1 1\n.end\n";
    expect_parse_error "blif: malformed cube" ~line:5 ~parse:blif_parse
      ".model bad\n.inputs a b\n.outputs y\n.names a b y\nxy 1\n.end\n";
    expect_parse_error "blif: cube outside .names" ~line:4 ~parse:blif_parse
      ".model bad\n.inputs a b\n.outputs y\n11 1\n.end\n";
    expect_parse_error "blif: unsupported directive" ~line:2 ~parse:blif_parse
      ".model bad\n.latch a b\n.end\n";
    expect_parse_error "blif: undefined signal" ~line:0 ~parse:blif_parse
      ".model bad\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n";
    expect_parse_error "pla: bad output-plane char" ~line:3 ~parse:pla_parse
      ".i 2\n.o 1\n11 z\n.e\n";
    expect_parse_error "pla: cube before .i/.o" ~line:1 ~parse:pla_parse
      "11 1\n.i 2\n.o 1\n.e\n";
    expect_parse_error "pla: input plane width" ~line:3 ~parse:pla_parse
      ".i 3\n.o 1\n11 1\n.e\n";
    expect_parse_error "pla: unknown .type" ~line:3 ~parse:pla_parse
      ".i 2\n.o 1\n.type fx\n11 1\n.e\n";
    expect_parse_error "pla: unsupported directive" ~line:3 ~parse:pla_parse
      ".i 2\n.o 1\n.phase 1\n11 1\n.e\n";
    expect_parse_error "pla: missing .i/.o" ~line:0 ~parse:pla_parse ".e\n";
  ]

(* ---- properties: degraded results stay BDD-equivalent ---- *)

let gen_fun n =
  let open QCheck2.Gen in
  let+ bits = list_size (return (1 lsl n)) bool in
  let arr = Array.of_list bits in
  Bv.of_fun n (fun i -> arr.(i))

let props =
  [
    QCheck2.Test.make
      ~name:"node-budget degradation preserves the specification" ~count:40
      QCheck2.Gen.(pair (gen_fun 7) (int_range 16 512))
      (fun (bv, node_budget) ->
        let m = Bdd.manager () in
        let f = Bv.to_bdd m bv in
        let spec = Driver.spec_of_csf m (names 7) [ ("f", f) ] in
        let budget = Budget.create ~node_budget () in
        let net = Driver.decompose ~budget m spec in
        Driver.verify m spec net);
    QCheck2.Test.make
      ~name:"expired deadline preserves multi-output specifications" ~count:20
      QCheck2.Gen.(pair (gen_fun 6) (gen_fun 6))
      (fun (bv1, bv2) ->
        let m = Bdd.manager () in
        let spec =
          Driver.spec_of_csf m (names 6)
            [ ("f", Bv.to_bdd m bv1); ("g", Bv.to_bdd m bv2) ]
        in
        let budget = Budget.create ~timeout:0.0 () in
        let net = Driver.decompose ~budget m spec in
        Driver.verify m spec net);
  ]

let suite =
  governor_tests @ degradation_tests @ parser_tests
  @ List.map (fun p -> QCheck_alcotest.to_alcotest ~long:false p) props
