(* The semantic (SDC/ODC) dataflow passes: one hand-built network per
   SEM code, the care-set-aware audit, and the pure-observer property of
   deep-checked decomposition runs. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tt bits =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  Bv.of_fun (log2 (String.length bits)) (fun i -> bits.[i] = '1')

let contains msg sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
  in
  go 0

let has ?loc code findings =
  List.exists
    (fun f ->
      f.Diagnostic.code = code
      && match loc with None -> true | Some l -> f.Diagnostic.loc = Some l)
    findings

let report ?(m = Bdd.manager ()) ?care_of_output ?check net =
  let var_of_input =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun k (name, _) -> Hashtbl.add tbl name k) (Network.inputs net);
    fun name -> Hashtbl.find tbl name
  in
  Semantics.analyze_report ?care_of_output ?check m ~var_of_input net

let analyze ?m ?care_of_output net =
  (report ?m ?care_of_output net).Semantics.findings

(* x -> g = and(x,y) implies the or-LUT over (g, x) can never see
   g=1, x=0: its row 1 is a satisfiability don't care. *)
let sem001_net () =
  let net = Network.create () in
  let x = Network.add_input net "x" and y = Network.add_input net "y" in
  let g = Network.add_lut net ~fanins:[ x; y ] ~tt:(tt "0001") in
  let o = Network.add_lut net ~fanins:[ g; y ] ~tt:(tt "1001") in
  Network.set_output net "o" o;
  net

(* o = xor(n, n) cancels n: complementing n flips both fanins at once,
   so no output ever changes — n is functionally dead. *)
let sem002_net () =
  let net = Network.create () in
  let x = Network.add_input net "x" and y = Network.add_input net "y" in
  let n = Network.add_lut net ~fanins:[ x; y ] ~tt:(tt "0001") in
  let o = Network.add_lut net ~fanins:[ n; n ] ~tt:(tt "0110") in
  Network.set_output net "o" o;
  net

(* z = and(x, not x) by reconvergence: the table is a plain AND, but the
   global function is the constant 0. *)
let sem003_net () =
  let net = Network.create () in
  let x = Network.add_input net "x" in
  let n = Network.not_gate net x in
  let z = Network.add_lut net ~fanins:[ x; n ] ~tt:(tt "0001") in
  Network.set_output net "z" z;
  net

(* and(x,y) built twice with different structure: directly, and as
   nor(not x, not y).  No structural pass can relate them; their global
   functions are equal. *)
let sem004_net () =
  let net = Network.create () in
  let x = Network.add_input net "x" and y = Network.add_input net "y" in
  let d = Network.add_lut net ~fanins:[ x; y ] ~tt:(tt "0001") in
  let nx = Network.not_gate net x and ny = Network.not_gate net y in
  let d' = Network.add_lut net ~fanins:[ nx; ny ] ~tt:(tt "1000") in
  Network.set_output net "o1" d;
  Network.set_output net "o2" d';
  net

(* Two LUTs over the same fanins whose tables differ only at the
   unreachable row (g=1, x=0): the difference lives entirely inside the
   don't cares, so the twins are mergeable. *)
let sem006_net () =
  let net = Network.create () in
  let x = Network.add_input net "x" and y = Network.add_input net "y" in
  let g = Network.add_lut net ~fanins:[ x; y ] ~tt:(tt "0001") in
  let a = Network.add_lut net ~fanins:[ g; x ] ~tt:(tt "1001") in
  let b = Network.add_lut net ~fanins:[ g; x ] ~tt:(tt "1101") in
  Network.set_output net "oa" a;
  Network.set_output net "ob" b;
  net

let sem_tests =
  [
    Alcotest.test_case "SEM001: unreachable LUT row" `Quick (fun () ->
        let fs = analyze (sem001_net ()) in
        check_bool "sem001" true (has ~loc:"o" "SEM001" fs));
    Alcotest.test_case "SEM002: functionally dead node" `Quick (fun () ->
        let fs = analyze (sem002_net ()) in
        check_bool "sem002" true (has "SEM002" fs));
    Alcotest.test_case "SEM003: constant by reconvergence" `Quick (fun () ->
        let fs = analyze (sem003_net ()) in
        check_bool "sem003" true (has ~loc:"z" "SEM003" fs);
        (* the structural pass sees a perfectly ordinary AND table *)
        check_bool "net008 silent" false
          (has "NET008" (Net_check.analyze (sem003_net ()))));
    Alcotest.test_case "SEM004: semantic duplicate" `Quick (fun () ->
        let net = sem004_net () in
        let fs = analyze net in
        check_bool "sem004" true (has ~loc:"o2" "SEM004" fs);
        check_bool "net007 silent" false (has "NET007" (Net_check.analyze net)));
    Alcotest.test_case "SEM005: identical outputs" `Quick (fun () ->
        let fs = analyze (sem004_net ()) in
        check_bool "sem005" true (has ~loc:"o2" "SEM005" fs));
    Alcotest.test_case "SEM006 folds into SEM004 for the same pair" `Quick
      (fun () ->
        (* In sem006_net the twins also compute the same function on the
           care set, so the pair gets ONE finding: SEM004 noting the
           SEM006 evidence, not two findings. *)
        let fs = analyze (sem006_net ()) in
        check_bool "no separate sem006" false (has ~loc:"ob" "SEM006" fs);
        check_bool "sem004 present" true (has ~loc:"ob" "SEM004" fs);
        let merged =
          List.find
            (fun f -> f.Diagnostic.code = "SEM004" && f.Diagnostic.loc = Some "ob")
            fs
        in
        check_bool "notes SEM006" true
          (contains merged.Diagnostic.message "SEM006"));
    Alcotest.test_case "SEM006 alone when the pair is not a duplicate" `Quick
      (fun () ->
        (* a = and(x,y), b = xnor-ish twin differing only at x=0 rows;
           both are masked by x downstream, so the differing rows are
           unobservable (free) — yet the global functions differ at
           x=0, so the pair is NOT a SEM004 duplicate. *)
        let net = Network.create () in
        let x = Network.add_input net "x" and y = Network.add_input net "y" in
        let a = Network.add_lut net ~fanins:[ x; y ] ~tt:(tt "0001") in
        let b = Network.add_lut net ~fanins:[ x; y ] ~tt:(tt "1001") in
        Network.set_output net "oa" (Network.and_gate net a x);
        Network.set_output net "ob" (Network.and_gate net b x);
        let fs = analyze net in
        check_bool "sem006" true (has "SEM006" fs);
        check_bool "twin pair not reported as duplicate" true
          (List.for_all
             (fun f ->
               f.Diagnostic.code <> "SEM004"
               || not (contains f.Diagnostic.message "SEM006"))
             fs));
    Alcotest.test_case "SEM008: budget truncation" `Quick (fun () ->
        (* w, a 9-input parity LUT, is wider than any window center may
           be, so once the exact engine is starved no engine covers it;
           o = and(w, x0) is still covered by its window. *)
        let k = Complete_dc.max_code_bits + 1 in
        let net = Network.create () in
        let x =
          Array.init k (fun i -> Network.add_input net (Printf.sprintf "x%d" i))
        in
        let parity c =
          let rec go c = c <> 0 && (c land 1 = 1) <> go (c lsr 1) in
          go c
        in
        let w =
          Network.add_lut net ~fanins:(Array.to_list x) ~tt:(Bv.of_fun k parity)
        in
        Network.set_output net "o" (Network.and_gate net w x.(0));
        let r = report ~check:(Careflow.step_limiter ~max_steps:0 ()) net in
        check_bool "sem008" true (has ~loc:"semantics" "SEM008" r.Semantics.findings);
        let c = r.Semantics.coverage in
        check_int "exact" 0 c.Semantics.exact_nodes;
        check_int "w alone escapes" 1 c.Semantics.truncated_nodes;
        check_int "o is windowed" 1 c.Semantics.windowed_nodes);
    Alcotest.test_case "no care set silences the dataflow" `Quick (fun () ->
        (* With an empty care set nothing is observable and nothing is
           reachable; the passes must not drown the report in findings
           that only reflect the vacuous care space. *)
        let m = Bdd.manager () in
        let fs =
          analyze ~m ~care_of_output:(fun _ -> Bdd.zero m) (sem004_net ())
        in
        check_bool "no sem001" false (has "SEM001" fs);
        check_bool "no sem002" false (has "SEM002" fs);
        check_bool "no sem003" false (has "SEM003" fs);
        check_bool "no sem004" false (has "SEM004" fs);
        check_bool "no sem005" false (has "SEM005" fs);
        check_bool "no sem006" false (has "SEM006" fs));
  ]

(* ---- the care-set-aware audit (SEM007) ---- *)

(* f = x or y versus f = x xor y: they differ exactly at x=y=1. *)
let audit_nets () =
  let golden = Network.create () in
  let x = Network.add_input golden "x" and y = Network.add_input golden "y" in
  Network.set_output golden "f" (Network.or_gate golden x y);
  let candidate = Network.create () in
  let x' = Network.add_input candidate "x"
  and y' = Network.add_input candidate "y" in
  Network.set_output candidate "f" (Network.xor_gate candidate x' y');
  (golden, candidate)

let audit_tests =
  [
    Alcotest.test_case "audit: disagreement is SEM007 with witness" `Quick
      (fun () ->
        let golden, candidate = audit_nets () in
        let m = Bdd.manager () in
        let fs =
          Semantics.audit m
            ~inputs:[ ("x", 0); ("y", 1) ]
            ~golden ~candidate
        in
        check_int "one finding" 1 (List.length fs);
        let f = List.hd fs in
        check_string "code" "SEM007" f.Diagnostic.code;
        check_bool "witness names both inputs" true
          (contains f.Diagnostic.message "x=1"
          && contains f.Diagnostic.message "y=1"));
    Alcotest.test_case "audit: don't cares excuse the disagreement" `Quick
      (fun () ->
        let golden, candidate = audit_nets () in
        let m = Bdd.manager () in
        (* care set = everything except x=y=1 *)
        let care =
          Bdd.not_ m (Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1))
        in
        let fs =
          Semantics.audit
            ~care_of_output:(fun _ -> care)
            m
            ~inputs:[ ("x", 0); ("y", 1) ]
            ~golden ~candidate
        in
        check_int "clean" 0 (List.length fs));
    Alcotest.test_case "audit: missing outputs on either side" `Quick
      (fun () ->
        let golden, _ = audit_nets () in
        let candidate = Network.create () in
        let x = Network.add_input candidate "x"
        and y = Network.add_input candidate "y" in
        Network.set_output candidate "g" (Network.or_gate candidate x y);
        let m = Bdd.manager () in
        let fs =
          Semantics.audit m
            ~inputs:[ ("x", 0); ("y", 1) ]
            ~golden ~candidate
        in
        check_bool "golden's f missing" true (has ~loc:"f" "SEM007" fs);
        check_bool "candidate's g missing" true (has ~loc:"g" "SEM007" fs));
  ]

(* ---- regression: NET007 catches permuted duplicates ---- *)

let net007_tests =
  [
    Alcotest.test_case "NET007: duplicate up to fanin order" `Quick (fun () ->
        let net = Network.create () in
        let x = Network.add_input net "x" and y = Network.add_input net "y" in
        (* x and not y, once as (x, y) and once as (y, x) with the table
           permuted to match: same local function, different structure. *)
        let a = Network.add_lut net ~fanins:[ x; y ] ~tt:(tt "0100") in
        let b = Network.add_lut net ~fanins:[ y; x ] ~tt:(tt "0010") in
        Network.set_output net "oa" a;
        Network.set_output net "ob" b;
        check_bool "flagged" true (has "NET007" (Net_check.analyze net)));
    Alcotest.test_case "NET007: permuted but different stays silent" `Quick
      (fun () ->
        let net = Network.create () in
        let x = Network.add_input net "x" and y = Network.add_input net "y" in
        (* x and not y vs y and not x: same table under the fanin swap,
           but the permutation corrects it to a different function. *)
        let a = Network.add_lut net ~fanins:[ x; y ] ~tt:(tt "0100") in
        let b = Network.add_lut net ~fanins:[ y; x ] ~tt:(tt "0100") in
        Network.set_output net "oa" a;
        Network.set_output net "ob" b;
        check_bool "silent" false (has "NET007" (Net_check.analyze net)));
  ]

(* ---- determinism: rendering is independent of finding order ---- *)

let determinism_tests =
  [
    Alcotest.test_case "renderers are order-independent" `Quick (fun () ->
        let fs =
          [
            Diagnostic.make ~loc:"b" "NET006" "dead";
            Diagnostic.make ~loc:"a" "NET008" "constant";
            Diagnostic.make ~loc:"a" "NET006" "dead";
            Diagnostic.make "NET001" "dangling";
          ]
        in
        let rev = List.rev fs in
        let text l = Format.asprintf "%a" Diagnostic.pp_list l in
        check_string "text" (text fs) (text rev);
        check_string "json" (Diagnostic.to_json fs) (Diagnostic.to_json rev);
        (* normalized order: no-loc first, then by (loc, code) *)
        let codes =
          List.map (fun f -> f.Diagnostic.code) (Diagnostic.normalize fs)
        in
        check_bool "sorted" true
          (codes = [ "NET001"; "NET006"; "NET008"; "NET006" ]));
    Alcotest.test_case "deep lint of a fixed net renders stably" `Quick
      (fun () ->
        let render () =
          Diagnostic.to_json (analyze (sem006_net ()))
        in
        check_string "byte-identical" (render ()) (render ()));
  ]

(* ---- property: deep checks are pure observers ---- *)

let names n = List.init n (fun i -> Printf.sprintf "x%d" i)

let gen_fun n =
  let open QCheck2.Gen in
  let+ bits = list_size (return (1 lsl n)) bool in
  let arr = Array.of_list bits in
  Bv.of_fun n (fun i -> arr.(i))

(* ---- the windowed SAT fallback ---- *)

let var_of_input_of net =
  let tbl = Hashtbl.create 8 in
  List.iteri (fun k (name, _) -> Hashtbl.add tbl name k) (Network.inputs net);
  fun name -> Hashtbl.find tbl name

let windowed_tests =
  [
    Alcotest.test_case "fallback covers a fully truncated run" `Quick
      (fun () ->
        (* The exact engine is killed on the first poll; the windowed
           engine must still find sem001_net's unreachable row, and the
           report must show full coverage with no SEM008. *)
        let net = sem001_net () in
        let m = Bdd.manager () in
        let r =
          Semantics.analyze_report
            ~check:(fun () -> raise (Careflow.Cutoff "test budget"))
            m ~var_of_input:(var_of_input_of net) net
        in
        check_bool "sem001 via window" true (has ~loc:"o" "SEM001" r.Semantics.findings);
        check_bool "no sem008" false (has "SEM008" r.Semantics.findings);
        check_int "exact" 0 r.Semantics.coverage.Semantics.exact_nodes;
        check_int "windowed" r.Semantics.coverage.Semantics.total_nodes
          r.Semantics.coverage.Semantics.windowed_nodes;
        check_int "truncated" 0 r.Semantics.coverage.Semantics.truncated_nodes;
        check_bool "sat calls counted" true
          (r.Semantics.coverage.Semantics.sat_calls > 0);
        check_bool "windows counted" true
          (r.Semantics.coverage.Semantics.windows_built > 0));
    Alcotest.test_case "fallback finds dead and constant nodes" `Quick
      (fun () ->
        let m = Bdd.manager () in
        let check2 =
          Semantics.analyze_report
            ~check:(fun () -> raise (Careflow.Cutoff "test budget"))
            m
            ~var_of_input:(var_of_input_of (sem002_net ()))
            (sem002_net ())
        in
        check_bool "sem002 via window" true (has "SEM002" check2.Semantics.findings);
        let check3 =
          Semantics.analyze_report
            ~check:(fun () -> raise (Careflow.Cutoff "test budget"))
            m
            ~var_of_input:(var_of_input_of (sem003_net ()))
            (sem003_net ())
        in
        check_bool "sem003 via window" true
          (has ~loc:"z" "SEM003" check3.Semantics.findings));
    Alcotest.test_case "the simulation pre-pass replaces the SAT queries"
      `Quick (fun () ->
        (* n = and(x, y) feeds the output xor(n, z): every code of n is
           reachable, and flipping n always flips the output, so random
           lanes witness every code as care and no query is left. *)
        let net = Network.create () in
        let x = Network.add_input net "x" and y = Network.add_input net "y" in
        let z = Network.add_input net "z" in
        let n = Network.add_lut net ~fanins:[ x; y ] ~tt:(tt "0001") in
        let o = Network.add_lut net ~fanins:[ n; z ] ~tt:(tt "0110") in
        Network.set_output net "o" o;
        let ctx = Window.context net in
        let run simulate =
          let counters = Complete_dc.counters () in
          match Complete_dc.analyze_node ~simulate ~counters ctx n with
          | None -> Alcotest.fail "a 2-input node is analyzed"
          | Some r ->
              check_bool "decided" true r.Complete_dc.decided;
              check_int "all codes care" 4 (Bv.count_ones r.Complete_dc.care);
              check_int "all codes reachable" 4
                (Bv.count_ones r.Complete_dc.reachable);
              check_int "one window" 1 counters.Complete_dc.windows_built;
              counters.Complete_dc.sat_calls
        in
        check_int "no query with the pre-pass" 0 (run true);
        check_int "one query per code without it" 4 (run false));
    Alcotest.test_case "a 16-input LUT is read through its covers" `Quick
      (fun () ->
        (* w, a 16-input LUT whose last fanin is vacuous, sits between
           a = and(x0, x1) and the outputs z = or(w, x0) and
           y = and(w, x1).  Flipping a flips w on some assignment of
           its other fanins; z sees w only where x0 = 0 and y only
           where x1 = 1, so a's one don't care is x0 = 1, x1 = 0
           (code 1).  w's table is parity, then a random table, over
           its first 15 fanins. *)
        let k = 16 in
        let low = (1 lsl (k - 1)) - 1 in
        let rs = Random.State.make [| k |] in
        let random = Bv.of_fun (k - 1) (fun _ -> Random.State.bool rs) in
        let parity m =
          let rec go m = if m = 0 then false else (m land 1 = 1) <> go (m lsr 1) in
          go m
        in
        List.iter
          (fun (name, f) ->
            let net = Network.create () in
            let x =
              Array.init (k + 1) (fun i ->
                  Network.add_input net (Printf.sprintf "x%d" i))
            in
            let a = Network.and_gate net x.(0) x.(1) in
            let w = Network.and_gate net a x.(2) in
            let table = Bv.of_fun k (fun m -> f (m land low)) in
            Network.Unsafe.set_lut net w
              ~fanins:(Array.init k (fun j -> if j = 0 then a else x.(j + 1)))
              ~tt:table;
            (* the simulations' evaluator on w's cover, lane by lane *)
            let words =
              Array.init k (fun _ ->
                  Random.State.bits rs
                  lor (Random.State.bits rs lsl 30)
                  lor (Random.State.bits rs lsl 60))
            in
            let expect = ref 0 in
            for lane = 0 to 61 do
              let code = ref 0 in
              Array.iteri
                (fun j wd ->
                  if (wd lsr lane) land 1 = 1 then code := !code lor (1 lsl j))
                words;
              if Bv.get table !code then expect := !expect lor (1 lsl lane)
            done;
            check_int (name ^ ": eval_cover on every lane") !expect
              (Dataflow.eval_cover (Isop.cover table true) words
                 (Array.init k Fun.id));
            Network.set_output net "z" (Network.or_gate net w x.(0));
            Network.set_output net "y" (Network.and_gate net w x.(1));
            (match Dataflow.fact_of (Dataflow.analyze net) w with
            | None -> Alcotest.fail "no fact for w"
            | Some nf ->
                check_bool (name ^ ": only the last fanin is vacuous") true
                  (nf.Dataflow.nf_vacuous = [ k - 1 ]));
            let ctx = Window.context net in
            let tables simulate s =
              let counters = Complete_dc.counters () in
              match Complete_dc.analyze_node ~simulate ~counters ctx s with
              | None -> Alcotest.fail "a 2-input node is analyzed"
              | Some r ->
                  check_bool (name ^ ": decided") true r.Complete_dc.decided;
                  (r.Complete_dc.care, r.Complete_dc.reachable)
            in
            List.iter
              (fun s ->
                let care, reach = tables true s in
                let care', reach' = tables false s in
                check_bool (name ^ ": the simulation agrees with the solver")
                  true
                  (Bv.equal care care' && Bv.equal reach reach'))
              (a :: List.map snd (Network.outputs net));
            let care, reach = tables true a in
            check_bool (name ^ ": a's care set is every code but 1") true
              (Bv.equal care (tt "1011"));
            check_int (name ^ ": every code of a is reachable") 4
              (Bv.count_ones reach);
            let r =
              Semantics.analyze_report
                ~check:(fun () -> raise (Careflow.Cutoff "test budget"))
                (Bdd.manager ()) ~var_of_input:(var_of_input_of net) net
            in
            check_bool (name ^ ": SUP001 names the vacuous fanin") true
              (List.exists
                 (fun f ->
                   f.Diagnostic.code = "SUP001"
                   && contains f.Diagnostic.message "position 15")
                 r.Semantics.findings);
            (* a window center has at most 8 fanins, so w alone is
               left out *)
            let c = r.Semantics.coverage in
            check_int (name ^ ": w alone is truncated") 1
              c.Semantics.truncated_nodes;
            check_int (name ^ ": every other node is windowed")
              (c.Semantics.total_nodes - 1) c.Semantics.windowed_nodes)
          [ ("parity", parity); ("random", Bv.get random) ]);
    Alcotest.test_case "clean exact run reports exact coverage" `Quick
      (fun () ->
        let net = sem001_net () in
        let m = Bdd.manager () in
        let r =
          Semantics.analyze_report m ~var_of_input:(var_of_input_of net) net
        in
        check_int "windowed" 0 r.Semantics.coverage.Semantics.windowed_nodes;
        check_int "truncated" 0 r.Semantics.coverage.Semantics.truncated_nodes;
        check_int "exact" r.Semantics.coverage.Semantics.total_nodes
          r.Semantics.coverage.Semantics.exact_nodes;
        check_int "no sat calls" 0 r.Semantics.coverage.Semantics.sat_calls);
  ]

(* ---- the SAT audit ---- *)

let sat_audit_tests =
  [
    Alcotest.test_case "audit_sat: disagreement with witness" `Quick (fun () ->
        let golden, candidate = audit_nets () in
        let r = Semantics.audit_sat ~golden ~candidate [ "x"; "y" ] in
        check_int "refuted" 1 r.Semantics.outputs_refuted;
        check_bool "sem007" true (has ~loc:"f" "SEM007" r.Semantics.audit_findings);
        let f =
          List.find (fun f -> f.Diagnostic.code = "SEM007") r.Semantics.audit_findings
        in
        (* the or/xor pair differs exactly at x=1 y=1 *)
        check_bool "witness" true (contains f.Diagnostic.message "x=1 y=1"));
    Alcotest.test_case "audit_sat: dc cubes mask the difference" `Quick
      (fun () ->
        let golden, candidate = audit_nets () in
        let r =
          Semantics.audit_sat
            ~dc_cubes_of_output:(fun _ -> [ [ ("x", true); ("y", true) ] ])
            ~golden ~candidate [ "x"; "y" ]
        in
        check_int "proved" 1 r.Semantics.outputs_proved;
        check_bool "clean" true (r.Semantics.audit_findings = []));
    Alcotest.test_case "audit_sat: identical networks prove clean" `Quick
      (fun () ->
        let golden, _ = audit_nets () in
        let candidate, _ = audit_nets () in
        let r = Semantics.audit_sat ~golden ~candidate [ "x"; "y" ] in
        check_int "proved" 1 r.Semantics.outputs_proved;
        check_int "refuted" 0 r.Semantics.outputs_refuted;
        check_bool "clean" true (r.Semantics.audit_findings = []));
    Alcotest.test_case "audit_sat: missing outputs reported" `Quick (fun () ->
        let golden, _ = audit_nets () in
        let candidate = Network.create () in
        let x = Network.add_input candidate "x" in
        Network.set_output candidate "g" x;
        let r = Semantics.audit_sat ~golden ~candidate [ "x"; "y" ] in
        check_bool "missing from candidate" true
          (has ~loc:"f" "SEM007" r.Semantics.audit_findings);
        check_bool "missing from golden" true
          (has ~loc:"g" "SEM007" r.Semantics.audit_findings));
  ]

(* The SAT audit reads its SEM007 witness from a solver model, so which
   disagreeing minterm it names depends on the encoding.  Whatever it
   names must be a real disagreement inside the care set: both networks
   are evaluated there.  The outputs it refutes must also be exactly
   the ones the BDD audit refutes. *)
let witness_of msg =
  let marker = "e.g. at " in
  let n = String.length marker in
  let rec find i =
    if i + n > String.length msg then Alcotest.fail ("no witness in: " ^ msg)
    else if String.sub msg i n = marker then
      String.sub msg (i + n) (String.length msg - i - n)
    else find (i + 1)
  in
  List.map
    (fun a ->
      match String.split_on_char '=' a with
      | [ name; v ] -> (name, v = "1")
      | _ -> Alcotest.fail ("bad assignment " ^ a))
    (String.split_on_char ' ' (find 0))

let sat_audit_witness_prop =
  QCheck2.Test.make ~name:"audit_sat witnesses are real disagreements"
    ~count:60
    QCheck2.Gen.(
      triple (int_range 0 100_000) (int_range 0 100_000)
        (list_size (int_range 0 2)
           (list_size (int_range 1 3) (pair (int_range 0 5) bool))))
    (fun (seed_g, seed_c, dc) ->
      let net seed =
        Randnet.cones ~ninputs:6 ~noutputs:3 ~window:5 ~gates_per_output:5
          ~seed ()
      in
      let golden = net seed_g and candidate = net seed_c in
      let inputs = List.init 6 (Printf.sprintf "x%d") in
      let dc_cubes =
        List.map (List.map (fun (i, b) -> (Printf.sprintf "x%d" i, b))) dc
      in
      let r =
        Semantics.audit_sat
          ~dc_cubes_of_output:(fun _ -> dc_cubes)
          ~golden ~candidate inputs
      in
      let refuted =
        List.filter_map
          (fun f ->
            if f.Diagnostic.code <> "SEM007" then None
            else
              let at = witness_of f.Diagnostic.message in
              let value name = List.assoc name at in
              let out = Option.get f.Diagnostic.loc in
              let in_dc =
                List.exists
                  (List.for_all (fun (name, b) -> value name = b))
                  dc_cubes
              in
              let g = List.assoc out (Network.eval golden value)
              and c = List.assoc out (Network.eval candidate value) in
              if in_dc || g = c then
                QCheck2.Test.fail_reportf "%s: no disagreement at %s" out
                  f.Diagnostic.message;
              Some out)
          r.Semantics.audit_findings
      in
      let m = Bdd.manager () in
      let vars = List.mapi (fun k name -> (name, k)) inputs in
      let care =
        Bdd.not_ m
          (Bdd.or_list m
             (List.map
                (fun cube ->
                  Bdd.and_list m
                    (List.map
                       (fun (name, b) ->
                         let v = List.assoc name vars in
                         if b then Bdd.var m v else Bdd.nvar m v)
                       cube))
                dc_cubes))
      in
      let bdd_refuted =
        List.filter_map
          (fun f -> if f.Diagnostic.code = "SEM007" then f.Diagnostic.loc else None)
          (Semantics.audit ~care_of_output:(fun _ -> care) m ~inputs:vars
             ~golden ~candidate)
      in
      r.Semantics.outputs_unknown = 0
      && r.Semantics.outputs_refuted = List.length refuted
      && List.sort compare refuted = List.sort compare bdd_refuted)

let props =
  [
    QCheck2.Test.make ~name:"deep checks are pure observers" ~count:25
      QCheck2.Gen.(pair (gen_fun 6) (gen_fun 6))
      (fun (bv1, bv2) ->
        let run checks =
          let m = Bdd.manager () in
          let spec =
            Driver.spec_of_csf m (names 6)
              [ ("f", Bv.to_bdd m bv1); ("g", Bv.to_bdd m bv2) ]
          in
          let r = Driver.decompose_report ~checks m spec in
          let s = Network.stats r.Driver.network in
          (s.Network.lut_count, s.Network.depth, s.Network.max_fanin)
        in
        run Diagnostic.Off = run Diagnostic.Deep);
    QCheck2.Test.make
      ~name:"whole-network windows match the exact SDC/ODC don't cares"
      ~count:40
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        (* With unbounded depths a window is the whole circuit: the SAT
           engine's complete don't cares must contain every exact
           SDC/ODC don't care (the satellite soundness bound is the
           other inclusion, so on these nets the two sets coincide). *)
        let net =
          Randnet.cones ~ninputs:5 ~noutputs:3 ~window:4 ~gates_per_output:5
            ~seed ()
        in
        let m = Bdd.manager () in
        let flow = Careflow.analyze m ~var_of_input:(var_of_input_of net) net in
        let ctx = Window.context net in
        let counters = Complete_dc.counters () in
        flow.Careflow.truncated = None
        && List.for_all
             (fun info ->
               match
                 Complete_dc.analyze_node ~tfi_depth:max_int
                   ~tfo_depth:max_int ~counters ctx info.Careflow.signal
               with
               | None -> true
               | Some r ->
                   r.Complete_dc.decided
                   && List.for_all
                        (fun c ->
                          let exact_free =
                            Bdd.is_zero
                              (Bdd.and_ m
                                 info.Careflow.code_sets.(c)
                                 info.Careflow.observable)
                          in
                          let exact_unreachable =
                            Bdd.is_zero info.Careflow.code_sets.(c)
                          in
                          let win_dc = not (Bv.get r.Complete_dc.care c) in
                          let win_unreachable =
                            not (Bv.get r.Complete_dc.reachable c)
                          in
                          exact_free = win_dc
                          && exact_unreachable = win_unreachable)
                        (List.init
                           (1 lsl Bv.nvars r.Complete_dc.care)
                           Fun.id))
             flow.Careflow.nodes);
  ]

(* The window's complete don't cares by enumerating every assignment
   of its leaves: copy A evaluates the window, copy B its center's
   transitive fanout with the center complemented, and a code is care
   when some assignment reaching it makes a root differ.  Plain
   table lookups, independent of the simulator and the solver. *)
let brute_force_window net w =
  let center = Window.center w in
  let fanins = Array.of_list (Network.fanins net center) in
  let leaves = Window.leaves w in
  let n = Network.node_count net in
  let care = Array.make (1 lsl Array.length fanins) false in
  let reach = Array.make (1 lsl Array.length fanins) false in
  for a = 0 to (1 lsl Array.length leaves) - 1 do
    let va = Array.make n false and vb = Array.make n false in
    let has_b = Array.make n false in
    Array.iteri
      (fun i l -> va.(Network.signal_id l) <- (a lsr i) land 1 = 1)
      leaves;
    let value_a f =
      match Network.view net f with
      | `Const b -> b
      | `Input _ | `Lut _ -> va.(Network.signal_id f)
    in
    let value_b f =
      let id = Network.signal_id f in
      if has_b.(id) then vb.(id) else value_a f
    in
    let code value fs =
      let c = ref 0 in
      Array.iteri (fun j f -> if value f then c := !c lor (1 lsl j)) fs;
      !c
    in
    Array.iter
      (fun s ->
        match Network.view net s with
        | `Lut (fs, table) ->
            let id = Network.signal_id s in
            va.(id) <- Bv.get table (code value_a fs);
            if Window.in_tfo w s then begin
              vb.(id) <-
                (if Network.signal_equal s center then not va.(id)
                 else Bv.get table (code value_b fs));
              has_b.(id) <- true
            end
        | `Input _ | `Const _ -> Alcotest.fail "window internals are LUTs")
      (Window.internals w);
    let c = code value_a fanins in
    reach.(c) <- true;
    if
      Array.exists
        (fun r -> va.(Network.signal_id r) <> vb.(Network.signal_id r))
        (Window.roots w)
    then care.(c) <- true
  done;
  (care, reach)

let brute_force_prop =
  QCheck2.Test.make
    ~name:"windowed don't cares equal brute force, with and without the \
           pre-pass"
    ~count:30
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let net =
        Randnet.cones ~ninputs:6 ~noutputs:4 ~window:4 ~gates_per_output:16
          ~seed ()
      in
      let ctx = Window.context net in
      List.for_all
        (fun s ->
          let w = Window.build ctx ~center:s ~tfi_depth:4 ~tfo_depth:4 in
          Array.length (Window.leaves w) > 12
          ||
          let care, reach = brute_force_window net w in
          let agrees simulate =
            match
              Complete_dc.analyze_node ~simulate
                ~counters:(Complete_dc.counters ()) ctx s
            with
            | None -> true
            | Some r ->
                r.Complete_dc.decided
                && Array.for_all Fun.id
                     (Array.mapi
                        (fun c b ->
                          Bv.get r.Complete_dc.care c = b
                          && Bv.get r.Complete_dc.reachable c = reach.(c))
                        care)
          in
          agrees true && agrees false)
        (Network.lut_signals net))

let suite =
  sem_tests @ audit_tests @ net007_tests @ determinism_tests @ windowed_tests
  @ sat_audit_tests
  @ List.map
      (fun p -> QCheck_alcotest.to_alcotest ~long:false p)
      (props @ [ brute_force_prop; sat_audit_witness_prop ])
