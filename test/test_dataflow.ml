(* The screening tier: the cost, the order precondition and the
   backward chain of its two sweeps, soundness of every fact against a
   brute-force reference evaluator and the exact Careflow engine, and
   the pure-observer property of the screened semantic report. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tt bits =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  Bv.of_fun (log2 (String.length bits)) (fun i -> bits.[i] = '1')

(* Reference evaluator, independent of both engines under test: every
   reachable signal's value under [assign], optionally with one node
   complemented (for pointwise-observability checks). *)
let eval_all ?flip net assign =
  let tbl = Hashtbl.create 64 in
  Network.iter_cone net (fun s ->
      let id = Network.signal_id s in
      let v =
        match Network.view net s with
        | `Input nm -> assign nm
        | `Const b -> b
        | `Lut (fanins, table) ->
            let code = ref 0 in
            Array.iteri
              (fun j f ->
                if Hashtbl.find tbl (Network.signal_id f) then
                  code := !code lor (1 lsl j))
              fanins;
            Bv.get table !code
      in
      let v = match flip with Some fid when fid = id -> not v | _ -> v in
      Hashtbl.add tbl id v);
  tbl

let outputs_under net tbl =
  List.map
    (fun (name, s) -> (name, Hashtbl.find tbl (Network.signal_id s)))
    (Network.outputs net)

(* Assignment [vec] over the primary inputs. *)
let assign_of net vec =
  let idx = Hashtbl.create 8 in
  List.iteri (fun i (name, _) -> Hashtbl.add idx name i) (Network.inputs net);
  fun name -> (vec lsr Hashtbl.find idx name) land 1 = 1

let var_of_input_of net =
  let tbl = Hashtbl.create 8 in
  List.iteri (fun k (name, _) -> Hashtbl.add tbl name k) (Network.inputs net);
  fun name -> Hashtbl.find tbl name

let gen_seed = QCheck2.Gen.int_range 0 9999

let small_net seed =
  Randnet.cones ~ninputs:6 ~noutputs:4 ~window:4 ~gates_per_output:6 ~seed ()

(* x -> a -> b -> c, output on c, and an input nothing reads *)
let chain_net () =
  let net = Network.create () in
  let x = Network.add_input net "x" in
  let a = Network.not_gate net x in
  let b = Network.not_gate net a in
  let c = Network.not_gate net b in
  Network.set_output net "o" c;
  ignore (Network.add_input net "unused");
  (net, a, b, c)

let sweep_tests =
  [
    Alcotest.test_case "each sweep visits every reachable node once" `Quick
      (fun () ->
        let net, _, _, _ = chain_net () in
        check_int "two visits for each of x, a, b, c" 8
          (Dataflow.iterations (Dataflow.analyze net)));
    Alcotest.test_case "pointwise observability runs down a chain" `Quick
      (fun () ->
        (* each reader is the next link's only one, and an inverter is
           totally sensitive: the backward sweep carries o to a *)
        let net, a, b, c = chain_net () in
        let df = Dataflow.analyze net in
        List.iter
          (fun s ->
            match Dataflow.fact_of df s with
            | None -> Alcotest.fail "no fact"
            | Some nf ->
                check_bool "drives o" true
                  (nf.Dataflow.nf_obs_outputs = [ "o" ]))
          [ a; b; c ]);
    Alcotest.test_case "a fanin after its LUT is rejected as NET003" `Quick
      (fun () ->
        let net = Network.create () in
        let x = Network.add_input net "x" and y = Network.add_input net "y" in
        let n = Network.and_gate net x y in
        let late = Network.or_gate net x y in
        Network.Unsafe.set_lut net n ~fanins:[| x; late |] ~tt:(tt "0001");
        Network.set_output net "o" n;
        match Dataflow.analyze net with
        | _ -> Alcotest.fail "the order violation was accepted"
        | exception Invalid_argument msg ->
            check_bool "the message names NET003" true
              (String.starts_with ~prefix:"Dataflow.analyze: NET003" msg));
  ]

(* Rebuild [net] with fanin position [j] of node [target] dropped (its
   table cofactored on the claimed-vacuous position), preserving the
   input interface so {!Network.equivalent} applies. *)
let rebuild_dropping net target j =
  let nn = Network.create () in
  let map = Hashtbl.create 64 in
  List.iter
    (fun (name, s) ->
      Hashtbl.replace map (Network.signal_id s) (Network.add_input nn name))
    (Network.inputs net);
  Network.iter_cone net (fun s ->
      let id = Network.signal_id s in
      if not (Hashtbl.mem map id) then
        let s' =
          match Network.view net s with
          | `Input nm -> Network.add_input nn nm
          | `Const b -> Network.const nn b
          | `Lut (fanins, table) ->
              let fanins' =
                Array.to_list
                  (Array.map
                     (fun f -> Hashtbl.find map (Network.signal_id f))
                     fanins)
              in
              if id <> Network.signal_id target then
                Network.add_lut nn ~fanins:fanins' ~tt:table
              else
                let k = Array.length fanins in
                if k = 1 then Network.const nn (Bv.get table 0)
                else
                  let expand c =
                    ((c lsr j) lsl (j + 1)) lor (c land ((1 lsl j) - 1))
                  in
                  Network.add_lut nn
                    ~fanins:(List.filteri (fun i _ -> i <> j) fanins')
                    ~tt:(Bv.of_fun (k - 1) (fun c -> Bv.get table (expand c)))
        in
        Hashtbl.replace map id s');
  List.iter
    (fun (name, s) ->
      Network.set_output nn name (Hashtbl.find map (Network.signal_id s)))
    (Network.outputs net);
  nn

let support_tests =
  [
    Alcotest.test_case "a vacuous fanin is found, dropping it is exact"
      `Quick (fun () ->
        let net = Network.create () in
        let x = Network.add_input net "x" and y = Network.add_input net "y" in
        (* the table is just bit 0: fanin y (position 1) is vacuous
           ([add_lut] would drop it, so go through the rewriter) *)
        let n = Network.and_gate net x y in
        Network.Unsafe.set_lut net n ~fanins:[| x; y |] ~tt:(tt "0101");
        Network.set_output net "o" n;
        let df = Dataflow.analyze net in
        (match Dataflow.fact_of df n with
        | None -> Alcotest.fail "no fact"
        | Some nf ->
            check_bool "position 1 vacuous" true
              (nf.Dataflow.nf_vacuous = [ 1 ]));
        check_bool "dropping the vacuous fanin preserves the network" true
          (Network.equivalent net (rebuild_dropping net n 1)));
    Alcotest.test_case "a reconvergent fanin is a containment candidate"
      `Quick (fun () ->
        let net = Network.create () in
        let x = Network.add_input net "x" and y = Network.add_input net "y" in
        let a = Network.and_gate net x y in
        (* or(a, x): x's support {x} is inside a's support {x, y} *)
        let n = Network.add_lut net ~fanins:[ a; x ] ~tt:(tt "0111") in
        Network.set_output net "o" n;
        let df = Dataflow.analyze net in
        match Dataflow.fact_of df n with
        | None -> Alcotest.fail "no fact"
        | Some nf ->
            check_bool "position 1 contained" true
              (List.mem 1 nf.Dataflow.nf_contained);
            check_bool "a contained fanin is not also vacuous" true
              (not (List.mem 1 nf.Dataflow.nf_vacuous)));
  ]

let screening_tests =
  [
    Alcotest.test_case "a fully witnessed output driver is screenable"
      `Quick (fun () ->
        let net = Network.create () in
        let x = Network.add_input net "x" and y = Network.add_input net "y" in
        let n = Network.and_gate net x y in
        Network.set_output net "o" n;
        let df = Dataflow.analyze net in
        (match Dataflow.fact_of df n with
        | None -> Alcotest.fail "no fact"
        | Some nf ->
            check_bool "all four codes witnessed" true nf.Dataflow.nf_all_codes;
            check_bool "pointwise drives o" true
              (nf.Dataflow.nf_obs_outputs = [ "o" ]));
        check_bool "window screenable" true
          (Semantics.window_screenable net df n);
        let m = Bdd.manager () in
        check_bool "full-observability hint" true
          (Semantics.full_observable_hint m net df n);
        check_bool "facts were counted" true (Dataflow.fact_count df > 0);
        check_bool "iterations were counted" true (Dataflow.iterations df > 0));
    Alcotest.test_case "a dead node is never screenable" `Quick (fun () ->
        let net = Network.create () in
        let x = Network.add_input net "x" and y = Network.add_input net "y" in
        let n = Network.and_gate net x y in
        (* xor(n, n) cancels n: it drives nothing pointwise *)
        let o = Network.add_lut net ~fanins:[ n; n ] ~tt:(tt "0110") in
        Network.set_output net "o" o;
        let df = Dataflow.analyze net in
        (match Dataflow.fact_of df n with
        | None -> Alcotest.fail "no fact"
        | Some nf ->
            check_bool "no pointwise outputs" true
              (nf.Dataflow.nf_obs_outputs = []));
        check_bool "not screenable" false
          (Semantics.window_screenable net df n);
        let m = Bdd.manager () in
        check_bool "no observability hint" false
          (Semantics.full_observable_hint m net df n));
    Alcotest.test_case "SUP findings are identical in both modes" `Quick
      (fun () ->
        let net = Network.create () in
        let x = Network.add_input net "x" and y = Network.add_input net "y" in
        let n = Network.and_gate net x y in
        Network.Unsafe.set_lut net n ~fanins:[| x; y |] ~tt:(tt "0101");
        Network.set_output net "o" n;
        let report dataflow =
          let m = Bdd.manager () in
          Semantics.analyze_report ~dataflow m
            ~var_of_input:(var_of_input_of net) net
        in
        let a = report true and b = report false in
        let sup r =
          List.filter
            (fun f -> Diagnostic.family f.Diagnostic.code = "SUP")
            r.Semantics.findings
        in
        check_bool "SUP001 reported" true
          (List.exists (fun f -> f.Diagnostic.code = "SUP001") (sup a));
        check_bool "same SUP findings with screening off" true
          (Diagnostic.normalize (sup a) = Diagnostic.normalize (sup b)));
  ]

(* every claimed-vacuous fanin really can be dropped: cofactor-equal
   locally, and the rebuilt network is BDD-equivalent globally *)
let vacuous_sound =
  QCheck2.Test.make ~name:"vacuous fanins are sound (exact equivalence)"
    ~count:30 gen_seed (fun seed ->
      let net = small_net seed in
      (* [add_lut] never constructs a vacuous fanin, so inject one:
         widen the first binary LUT with a third, ignored fanin *)
      let injected = ref false in
      (match Network.lut_signals net with
      | s :: _ -> (
          match Network.view net s with
          | `Lut (fanins, table) when Array.length fanins = 2 ->
              let _, extra = List.hd (Network.inputs net) in
              Network.Unsafe.set_lut net s
                ~fanins:(Array.append fanins [| extra |])
                ~tt:(Bv.of_fun 3 (fun c -> Bv.get table (c land 3)));
              injected := true
          | _ -> ())
      | [] -> ());
      let df = Dataflow.analyze net in
      ((not !injected)
      || List.exists
           (fun nf -> nf.Dataflow.nf_vacuous <> [])
           (Dataflow.facts df))
      && List.for_all
           (fun nf ->
             let s = nf.Dataflow.nf_signal in
             match Network.local_tt net s with
             | None -> true
             | Some table ->
                 List.for_all
                   (fun j ->
                     Bv.equal (Bv.cofactor table j false)
                       (Bv.cofactor table j true)
                     && Network.equivalent net (rebuild_dropping net s j))
                   nf.Dataflow.nf_vacuous)
           (Dataflow.facts df))

(* observability and code facts agree with the exact engine: a
   pointwise-driven node's ODC set is empty (its observability is the
   whole care space), flipping it really complements every claimed
   output at every vector, and witnessed codes are reachable *)
let obs_sound =
  QCheck2.Test.make
    ~name:"observability and code witnesses are sound (Careflow)" ~count:15
    gen_seed (fun seed ->
      let net = small_net seed in
      let df = Dataflow.analyze net in
      let m = Bdd.manager () in
      let flow = Careflow.analyze m ~var_of_input:(var_of_input_of net) net in
      flow.Careflow.truncated = None
      && List.for_all
           (fun nf ->
             let s = nf.Dataflow.nf_signal in
             let info =
               List.find
                 (fun i -> Network.signal_equal i.Careflow.signal s)
                 flow.Careflow.nodes
             in
             let obs_ok =
               nf.Dataflow.nf_obs_outputs = []
               || Bdd.equal info.Careflow.observable flow.Careflow.care_any
                  &&
                  let id = Network.signal_id s in
                  let pointwise = ref true in
                  for vec = 0 to 63 do
                    let assign = assign_of net vec in
                    let base = outputs_under net (eval_all net assign) in
                    let flipped =
                      outputs_under net (eval_all ~flip:id net assign)
                    in
                    List.iter
                      (fun o ->
                        if List.assoc o base = List.assoc o flipped then
                          pointwise := false)
                      nf.Dataflow.nf_obs_outputs
                  done;
                  !pointwise
             in
             let reachable =
               Array.fold_left
                 (fun acc b -> if Bdd.is_zero b then acc else acc + 1)
                 0 info.Careflow.code_sets
             in
             let codes_ok =
               nf.Dataflow.nf_codes_seen <= reachable
               && (not nf.Dataflow.nf_all_codes)
                  || reachable = Array.length info.Careflow.code_sets
             in
             obs_ok && codes_ok)
           (Dataflow.facts df))

(* the tentpole property: screening changes cost, never the report *)
let pure_observer =
  QCheck2.Test.make ~name:"screening is a pure observer under truncation"
    ~count:10 gen_seed (fun seed ->
      let net =
        Randnet.cones ~ninputs:8 ~noutputs:6 ~window:5 ~gates_per_output:8
          ~seed ()
      in
      let luts = List.length (Network.lut_signals net) in
      let steps = max 1 (luts / 2) in
      let report dataflow =
        let m = Bdd.manager () in
        Semantics.analyze_report
          ~check:(Careflow.step_limiter ~max_steps:steps ())
          ~dataflow ~sat_timeout:1e9 m ~var_of_input:(var_of_input_of net)
          net
      in
      let a = report true and b = report false in
      Diagnostic.normalize a.Semantics.findings
      = Diagnostic.normalize b.Semantics.findings
      && b.Semantics.coverage.Semantics.screened_out = 0
      && a.Semantics.coverage.Semantics.sat_calls
         <= b.Semantics.coverage.Semantics.sat_calls
      && a.Semantics.coverage.Semantics.df_facts
         = b.Semantics.coverage.Semantics.df_facts)

(* The cube evaluator against the table, lane by lane: the words are
   arbitrary ints (bits above the 62 lanes included), read through
   reversed slots, and the result must be the table's value on every
   lane and 0 above them. *)
let eval_cover_matches_table =
  QCheck2.Test.make ~name:"eval_cover equals Bv.get on every lane (0-8 inputs)"
    ~count:300
    QCheck2.Gen.(
      let* k = int_range 0 8 in
      let* bits = list_size (return (1 lsl k)) bool in
      let+ words = list_size (return (k + 1)) int in
      let arr = Array.of_list bits in
      (Bv.of_fun k (fun i -> arr.(i)), Array.of_list words))
    (fun (table, words) ->
      let k = Bv.nvars table in
      let slots = Array.init k (fun j -> k - j) in
      let expect = ref 0 in
      for lane = 0 to 61 do
        let code = ref 0 in
        for j = 0 to k - 1 do
          if (words.(slots.(j)) lsr lane) land 1 = 1 then
            code := !code lor (1 lsl j)
        done;
        if Bv.get table !code then expect := !expect lor (1 lsl lane)
      done;
      Dataflow.eval_cover (Isop.cover table true) words slots = !expect)

let props =
  [
    vacuous_sound;
    obs_sound;
    pure_observer;
    eval_cover_matches_table;
  ]

(* The shipped example circuits under deep lint: with and without
   screening the findings are identical, and with it off nothing is
   screened. *)
let test_examples_pure_observer () =
  let examples_dir = Paths.examples_dir () in
  let blifs =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".blif")
    |> List.sort compare
  in
  check_bool "example circuits found" true (blifs <> []);
  List.iter
    (fun file ->
      let net = Blif.parse_file (Filename.concat examples_dir file) in
      if Diagnostic.errors (Net_check.analyze net) = [] then begin
        let report dataflow =
          Semantics.analyze_report ~dataflow (Bdd.manager ())
            ~var_of_input:(var_of_input_of net) net
        in
        let a = report true and b = report false in
        check_bool (file ^ ": same findings either way") true
          (Diagnostic.normalize a.Semantics.findings
          = Diagnostic.normalize b.Semantics.findings);
        check_int (file ^ ": nothing screened with screening off") 0
          b.Semantics.coverage.Semantics.screened_out
      end)
    blifs

let suite =
  sweep_tests @ support_tests @ screening_tests
  @ [
      Alcotest.test_case "screening is a pure observer on the examples"
        `Quick test_examples_pure_observer;
    ]
  @ List.map (fun p -> QCheck_alcotest.to_alcotest ~long:false p) props
