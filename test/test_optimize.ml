(* The verified rewrite loop: networks with redundancy the structural
   passes cannot see must shrink, the audit guard must hold on every
   outcome, and optimization must never increase the LUT count. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tt bits =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  Bv.of_fun (log2 (String.length bits)) (fun i -> bits.[i] = '1')

let var_of_input_of net =
  let tbl = Hashtbl.create 8 in
  List.iteri (fun k (name, _) -> Hashtbl.add tbl name k) (Network.inputs net);
  fun name -> Hashtbl.find tbl name

let audit_inputs net =
  List.mapi (fun k (name, _) -> (name, k)) (Network.inputs net)

(* Independent equivalence check of an optimize outcome against a fresh
   copy of the input network (full care). *)
let equivalent golden outcome =
  let m = Bdd.manager () in
  Semantics.audit m ~inputs:(audit_inputs golden) ~golden
    ~candidate:outcome.Optimize.network
  = []

(* The dc_dups example: e and n are complements, so LUTs over (e, n)
   never see the codes 00 and 11.  p (= e and not n) and q (= e or not
   n) are structurally distinct but both compute plain e on every
   reachable code. *)
let dups_net () =
  let net = Network.create () in
  let a = Network.add_input net "a"
  and b = Network.add_input net "b"
  and c = Network.add_input net "c" in
  let e = Network.add_lut net ~fanins:[ a; b ] ~tt:(tt "1001") in
  let n = Network.add_lut net ~fanins:[ a; b ] ~tt:(tt "0110") in
  let p = Network.add_lut net ~fanins:[ e; n ] ~tt:(tt "0100") in
  let q = Network.add_lut net ~fanins:[ e; n ] ~tt:(tt "1101") in
  Network.set_output net "x" (Network.and_gate net p c);
  Network.set_output net "y" (Network.or_gate net q c);
  net

(* The dc_dead example: d = e and n is constant 0 because e and n are
   complements, so f = (not d) and c collapses to a wire from c and the
   whole n cone dies. *)
let dead_net () =
  let net = Network.create () in
  let a = Network.add_input net "a"
  and b = Network.add_input net "b"
  and c = Network.add_input net "c" in
  let e = Network.add_lut net ~fanins:[ a; b ] ~tt:(tt "1001") in
  let n = Network.add_lut net ~fanins:[ a; b ] ~tt:(tt "0110") in
  let d = Network.add_lut net ~fanins:[ e; n ] ~tt:(tt "0001") in
  Network.set_output net "f"
    (Network.add_lut net ~fanins:[ d; c ] ~tt:(tt "0010"));
  Network.set_output net "g" (Network.and_gate net e c);
  net

(* v reads (a, b) but its table ignores b, which only a foreign
   producer can leave behind ([Network.add_lut] drops such fanins).  v
   drives an output directly and every code of (a, b) is reached, so the
   window stage screens v without a SAT call, and only v's screened
   facts let the fanin pruning drop b.  w's and(a, c) is masked by d,
   so it needs a real window. *)
let vacuous_net () =
  let net = Network.create () in
  let a = Network.add_input net "a"
  and b = Network.add_input net "b"
  and c = Network.add_input net "c"
  and d = Network.add_input net "d" in
  let v = Network.and_gate net a b in
  Network.Unsafe.set_lut net v ~fanins:[| a; b |] ~tt:(tt "0101");
  Network.set_output net "v" v;
  Network.set_output net "w"
    (Network.and_gate net (Network.and_gate net a c) d);
  net

let luts net = (Network.stats net).Network.lut_count

let unit_tests =
  [
    Alcotest.test_case "DC-hidden duplicates merge" `Quick (fun () ->
        let m = Bdd.manager () in
        let o = Optimize.run m (dups_net ()) in
        check_int "before" 6 o.Optimize.luts_before;
        check_int "after" 3 o.Optimize.luts_after;
        check_bool "audit clean" true (o.Optimize.audit = []);
        check_bool "rewrites recorded" true (o.Optimize.actions <> []);
        check_bool "equivalent" true (equivalent (dups_net ()) o));
    Alcotest.test_case "constant cone folds away" `Quick (fun () ->
        let m = Bdd.manager () in
        let o = Optimize.run m (dead_net ()) in
        check_int "before" 5 o.Optimize.luts_before;
        check_int "after" 2 o.Optimize.luts_after;
        check_bool "audit clean" true (o.Optimize.audit = []);
        check_bool "equivalent" true (equivalent (dead_net ()) o));
    Alcotest.test_case "optimization reaches a fixpoint" `Quick (fun () ->
        let m = Bdd.manager () in
        let once = Optimize.run m (dups_net ()) in
        let twice = Optimize.run m once.Optimize.network in
        check_int "no further passes" 0 twice.Optimize.passes;
        check_bool "no further actions" true (twice.Optimize.actions = []);
        check_int "luts stable" once.Optimize.luts_after
          twice.Optimize.luts_after);
    Alcotest.test_case "empty care set disables rewriting" `Quick (fun () ->
        (* With nothing cared for, every rewrite would be justified —
           and none is trustworthy.  The loop must refuse to touch the
           network rather than optimize it into an arbitrary one. *)
        let m = Bdd.manager () in
        let o =
          Optimize.run ~care_of_output:(fun _ -> Bdd.zero m) m (dups_net ())
        in
        check_int "no passes" 0 o.Optimize.passes;
        check_int "luts unchanged" o.Optimize.luts_before o.Optimize.luts_after);
    Alcotest.test_case "SAT audit engine accepts the same wins" `Quick
      (fun () ->
        (* The dc_dups rewrites preserve the global functions exactly
           (the differing rows are unreachable), so the stricter SAT
           miter must accept them too. *)
        let m = Bdd.manager () in
        let o = Optimize.run ~audit_engine:`Sat m (dups_net ()) in
        check_int "after" 3 o.Optimize.luts_after;
        check_bool "audit clean" true (o.Optimize.audit = []));
    Alcotest.test_case "window facts alone shrink the examples" `Quick
      (fun () ->
        (* A starved exact engine leaves every node to the window stage:
           the windowed and screened facts must find the same wins as
           the exact engine, and the windows must cover every node. *)
        List.iter
          (fun (name, net, before, after) ->
            let m = Bdd.manager () in
            let stats = Stats.create () in
            let o =
              Optimize.run ~stats
                ~check:(Careflow.step_limiter ~max_steps:0 ())
                m (net ())
            in
            check_int (name ^ ": before") before o.Optimize.luts_before;
            check_int (name ^ ": after") after o.Optimize.luts_after;
            check_bool (name ^ ": audit clean") true (o.Optimize.audit = []);
            check_bool (name ^ ": equivalent") true (equivalent (net ()) o);
            check_bool (name ^ ": windows built") true
              (stats.Stats.windows_built > 0);
            check_int (name ^ ": nothing truncated") 0
              stats.Stats.sem_truncations)
          [
            ("dups", dups_net, 6, 3);
            ("dead", dead_net, 5, 2);
            ("vacuous", vacuous_net, 3, 2);
          ]);
    Alcotest.test_case "stats mirror the analysis counters" `Quick (fun () ->
        let m = Bdd.manager () in
        let stats = Stats.create () in
        ignore (Optimize.run ~stats m (dups_net ()));
        check_bool "sem nodes counted" true (stats.Stats.sem_nodes > 0));
  ]

(* ---- properties ---- *)

let props =
  [
    QCheck2.Test.make
      ~name:"optimize never increases LUTs and preserves the functions"
      ~count:30
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let net =
          Randnet.cones ~ninputs:5 ~noutputs:3 ~window:4 ~gates_per_output:6
            ~seed ()
        in
        let golden =
          Randnet.cones ~ninputs:5 ~noutputs:3 ~window:4 ~gates_per_output:6
            ~seed ()
        in
        let m = Bdd.manager () in
        let o = Optimize.run m net in
        o.Optimize.luts_after <= o.Optimize.luts_before
        && o.Optimize.audit = []
        && equivalent golden o);
    QCheck2.Test.make
      ~name:"decomposed networks optimize to audited-equivalent networks"
      ~count:10
      QCheck2.Gen.(
        pair
          (list_size (return 64) bool)
          (list_size (return 64) bool))
      (fun (bits1, bits2) ->
        (* decompose a random two-output spec, then optimize the result:
           the outcome must still realize the decomposed functions. *)
        let bv bits =
          let arr = Array.of_list bits in
          Bv.of_fun 6 (fun i -> arr.(i))
        in
        let m = Bdd.manager () in
        let names = List.init 6 (fun i -> Printf.sprintf "x%d" i) in
        let spec =
          Driver.spec_of_csf m names
            [ ("f", Bv.to_bdd m (bv bits1)); ("g", Bv.to_bdd m (bv bits2)) ]
        in
        let r = Driver.decompose_report m spec in
        let golden = r.Driver.network in
        let o = Optimize.run m golden in
        o.Optimize.luts_after <= o.Optimize.luts_before
        && o.Optimize.audit = []
        && Semantics.audit m ~inputs:(audit_inputs golden) ~golden
             ~candidate:o.Optimize.network
           = []);
    QCheck2.Test.make
      ~name:"care-set don't cares only ever help"
      ~count:15
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        (* Optimizing with a restricted care set can only allow more
           rewrites than full care, never fewer LUTs removed — and the
           result must still match the input ON the care set. *)
        let fresh () =
          Randnet.cones ~ninputs:5 ~noutputs:2 ~window:4 ~gates_per_output:5
            ~seed ()
        in
        let net = fresh () in
        let m = Bdd.manager () in
        (* care = x0 (don't care whenever x0 = 0) *)
        let care = Bdd.var m 0 in
        let o = Optimize.run ~care_of_output:(fun _ -> care) m net in
        let golden = fresh () in
        let full = Optimize.run m (fresh ()) in
        o.Optimize.luts_after <= full.Optimize.luts_after
        && o.Optimize.audit = []
        && Semantics.audit
             ~care_of_output:(fun _ -> care)
             m ~inputs:(audit_inputs golden) ~golden
             ~candidate:o.Optimize.network
           = []);
  ]

let suite =
  unit_tests @ List.map (fun p -> QCheck_alcotest.to_alcotest ~long:false p) props
