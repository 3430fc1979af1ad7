(* Bench_report: schema round trip, baseline diffing, schema-version
   gating, and the Stats JSON projection and merge the bench relies
   on. *)

module R = Bench_report

let mk_stats () =
  let s = Stats.create () in
  s.Stats.score_calls <- 1000;
  s.Stats.score_hits <- 600;
  s.Stats.cof_lookups <- 400;
  s.Stats.cof_fresh <- 40;
  s.Stats.restricts <- 2000;
  s.Stats.sem_nodes <- 7;
  Stats.add_phase s "bound-select" 0.25;
  Stats.add_phase s "symmetry" 0.125;
  Stats.add_degradation s ~stage:"no-symmetry" ~reason:"nodes" ~where:"step";
  Stats.add_finding s ~severity:"warning" ~code:"CHK001" ~message:"demo";
  s

let mk_run ?(name = "rd73") ?(algorithm = "mulop-dc") ?(stable = true)
    ?(luts = Some 6) ?(alloc = 1.0e6) ?stats () =
  {
    R.name;
    algorithm;
    stable;
    wall = 0.125;
    alloc_bytes = alloc;
    luts;
    clbs = Some 5;
    depth = Some 2;
    bdd_nodes = Some 912;
    stats = (match stats with Some s -> s | None -> mk_stats ());
  }

let mk_section ?(name = "table1") ?(runs = [ mk_run () ]) () =
  {
    R.name;
    title = "Table 1";
    command = "dune exec bench/main.exe -- table1";
    columns = [ "circuit"; "clbs"; "gain"; "time"; "note"; "ratio" ];
    rows =
      [
        {
          R.label = "rd73";
          cells =
            [
              ("clbs", R.Int 5);
              ("gain", R.Pct 16.7);
              ("time", R.Secs 0.125);
              ("note", R.Str "a|b");
              ("ratio", R.Float 1.5);
            ];
        };
      ];
    runs;
    notes = [ "a note" ];
    wall = 0.5;
    alloc_bytes = 2.0e6;
    stats = mk_stats ();
  }

let mk_report ?(sections = [ mk_section () ]) () =
  { R.schema = R.schema_version; created = "2026-08-08T00:00:00Z"; quick = true; sections }

let canon r = Json.to_string (R.to_json r)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---- schema round trip ---- *)

let test_roundtrip () =
  let r = mk_report () in
  let text = Json.to_string (R.to_json r) in
  match Json.parse text with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok j -> (
      match R.of_json j with
      | Error msg -> Alcotest.failf "of_json failed: %s" msg
      | Ok r' ->
          Alcotest.(check string) "serialization round trip" text (canon r');
          Alcotest.(check bool) "quick survives" true r'.R.quick;
          let s = List.hd r'.R.sections in
          Alcotest.(check (list string))
            "columns survive"
            [ "circuit"; "clbs"; "gain"; "time"; "note"; "ratio" ]
            s.R.columns;
          let run = List.hd s.R.runs in
          Alcotest.(check (option int)) "luts survive" (Some 6) run.R.luts;
          Alcotest.(check int)
            "stats counters survive" 1000
            (Stats.counter run.R.stats "score_calls"))

let test_stats_roundtrip () =
  let s = mk_stats () in
  match Stats.of_json (Stats.to_json s) with
  | Error msg -> Alcotest.failf "stats of_json failed: %s" msg
  | Ok s' ->
      Alcotest.(check string)
        "stats JSON round trip"
        (Json.to_string (Stats.to_json s))
        (Json.to_string (Stats.to_json s'));
      Alcotest.(check (list (triple string string string)))
        "events keep order" (Stats.degradations s) (Stats.degradations s');
      List.iter
        (fun name ->
          Alcotest.(check int)
            (name ^ " survives")
            (Stats.counter s name) (Stats.counter s' name))
        Stats.counter_names

let test_stats_json_matches_schema () =
  (* every counter field of the schema must be present in the emitted
     object under its schema name — the bench diff relies on it *)
  let j = Stats.to_json (mk_stats ()) in
  List.iter
    (fun name ->
      match Json.mem_int name j with
      | Some _ -> ()
      | None -> Alcotest.failf "counter %s missing from Stats.to_json" name)
    Stats.counter_names;
  List.iter
    (fun key ->
      if Json.member key j = None then
        Alcotest.failf "field %s missing from Stats.to_json" key)
    [ "phases"; "degradations"; "findings" ]

(* Every counter gets its own value, so a counter that [merge] skipped
   or mixed up with another shows. *)
let numbered_stats k =
  let fields =
    List.mapi (fun i name -> (name, Json.int ((i + 1) * k))) Stats.counter_names
  in
  match Stats.of_json (Json.Obj fields) with
  | Ok s -> s
  | Error msg -> Alcotest.failf "stats of_json failed: %s" msg

let test_stats_merge () =
  let into = numbered_stats 1 and s = numbered_stats 100 in
  Stats.add_degradation into ~stage:"a" ~reason:"nodes" ~where:"step";
  Stats.add_degradation s ~stage:"b" ~reason:"nodes" ~where:"step";
  Stats.add_degradation s ~stage:"c" ~reason:"deadline" ~where:"step";
  Stats.add_finding into ~severity:"info" ~code:"X1" ~message:"first";
  Stats.add_finding s ~severity:"warning" ~code:"X2" ~message:"second";
  Stats.add_phase into "symmetry" 0.25;
  Stats.add_phase s "symmetry" 0.5;
  Stats.add_phase s "step" 0.125;
  Stats.merge ~into s;
  List.iteri
    (fun i name ->
      Alcotest.(check int) (name ^ " summed") ((i + 1) * 101)
        (Stats.counter into name);
      Alcotest.(check int) (name ^ " of the source unchanged") ((i + 1) * 100)
        (Stats.counter s name))
    Stats.counter_names;
  Alcotest.(check (list string))
    "degradations keep firing order" [ "a"; "b"; "c" ]
    (List.map (fun (stage, _, _) -> stage) (Stats.degradations into));
  Alcotest.(check (list string))
    "findings keep firing order" [ "X1"; "X2" ]
    (List.map (fun (_, code, _) -> code) (Stats.findings into));
  Alcotest.(check (float 0.0))
    "shared phase summed" 0.75
    (Stats.phase_time into "symmetry");
  Alcotest.(check (float 0.0)) "new phase added" 0.125
    (Stats.phase_time into "step")

let test_stats_add_coverage () =
  let coverage ~truncated =
    {
      Semantics.exact_nodes = 5;
      windowed_nodes = 3;
      truncated_nodes = truncated;
      total_nodes = 8 + truncated;
      sat_calls = 11;
      sat_conflicts = 13;
      windows_built = 17;
      dataflow_nodes = 19;
      df_iterations = 23;
      df_facts = 29;
      screened_out = 31;
      wall_dataflow = 0.5;
      wall_exact = 0.5;
      wall_sat = 0.5;
    }
  in
  let s = Stats.create () in
  Stats.add_coverage s (coverage ~truncated:0);
  Stats.add_coverage s (coverage ~truncated:2);
  List.iter
    (fun (name, expected) ->
      Alcotest.(check int) name expected (Stats.counter s name))
    [
      ("sem_nodes", 16);
      ("sem_truncations", 1);
      ("sat_calls", 22);
      ("sat_conflicts", 26);
      ("windows_built", 34);
      ("df_iterations", 46);
      ("df_facts", 58);
      ("screened_out", 62);
      ("score_calls", 0);
      ("budget_checks", 0);
    ]

(* ---- schema-version gating ---- *)

let test_schema_mismatch () =
  let reject text expected_fragment =
    match Json.parse text with
    | Error msg -> Alcotest.failf "parse failed: %s" msg
    | Ok j -> (
        match R.of_json j with
        | Ok _ -> Alcotest.failf "accepted %s" text
        | Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "error %S mentions %S" msg expected_fragment)
              true
              (contains ~needle:expected_fragment msg))
  in
  reject {|{"bench_schema":99,"sections":[]}|} "bench_schema 99";
  reject {|{"sections":[]}|} "bench_schema";
  reject {|[1,2,3]|} "object"

(* ---- diffing ---- *)

let test_diff_identical () =
  let r = mk_report () in
  let v = R.diff ~base:r ~current:r in
  Alcotest.(check bool) "identical pair passes" true (R.verdict_ok v);
  Alcotest.(check int) "no changed cells" 0 (List.length v.R.changed);
  Alcotest.(check int) "no missing" 0 (List.length v.R.missing)

let test_diff_regression () =
  let base = mk_report () in
  let current =
    mk_report ~sections:[ mk_section ~runs:[ mk_run ~luts:(Some 9) () ] () ] ()
  in
  let v = R.diff ~base ~current in
  Alcotest.(check bool) "regression fails the gate" false (R.verdict_ok v);
  match
    List.find_opt (fun d -> d.R.metric = "luts") v.R.changed
  with
  | None -> Alcotest.fail "lut regression not detected"
  | Some d ->
      Alcotest.(check (option (float 1e-6))) "base luts" (Some 6.0) d.R.base;
      Alcotest.(check (option (float 1e-6)))
        "current luts" (Some 9.0) d.R.current

let test_diff_counter_regression () =
  let worse = mk_stats () in
  worse.Stats.restricts <- 3000;
  let base = mk_report () in
  let current =
    mk_report
      ~sections:[ mk_section ~runs:[ mk_run ~stats:worse () ] () ]
      ()
  in
  let v = R.diff ~base ~current in
  Alcotest.(check bool)
    "counter regression detected" true
    (List.exists (fun d -> d.R.metric = "stats.restricts") v.R.changed);
  (* the same change on an unstable run must not gate *)
  let base_unstable =
    mk_report ~sections:[ mk_section ~runs:[ mk_run ~stable:false () ] () ] ()
  in
  let current_unstable =
    mk_report
      ~sections:
        [ mk_section ~runs:[ mk_run ~stable:false ~stats:worse () ] () ]
      ()
  in
  let v' = R.diff ~base:base_unstable ~current:current_unstable in
  Alcotest.(check bool) "unstable runs never gate" true (R.verdict_ok v')

(* Reports whose one run differs from the base only in [restricts]:
   [base_v] in the base, [cur_v] now. *)
let restricts_pair base_v cur_v =
  let with_restricts n =
    let s = mk_stats () in
    s.Stats.restricts <- n;
    mk_report ~sections:[ mk_section ~runs:[ mk_run ~stats:s () ] () ] ()
  in
  (with_restricts base_v, with_restricts cur_v)

let check_one_change what (base, current) =
  let v = R.diff ~base ~current in
  Alcotest.(check bool) (what ^ " fails the gate") false (R.verdict_ok v);
  Alcotest.(check (list string))
    (what ^ " lists exactly that cell")
    [ "table1 rd73/mulop-dc stats.restricts" ]
    (List.map
       (fun d -> String.concat " " [ d.R.d_section; d.R.d_run; d.R.metric ])
       v.R.changed)

let test_diff_zero_to_one () =
  (* the counter the old gate never compared: 0 in the base *)
  check_one_change "0 -> 1" (restricts_pair 0 1)

let test_diff_one_count () =
  check_one_change "+1" (restricts_pair 1000 1001);
  check_one_change "-1" (restricts_pair 1000 999)

let test_diff_missing () =
  let base =
    mk_report
      ~sections:[ mk_section (); mk_section ~name:"table2" () ]
      ()
  in
  let current = mk_report ~sections:[ mk_section () ] () in
  let v = R.diff ~base ~current in
  Alcotest.(check bool) "coverage loss fails the gate" false (R.verdict_ok v);
  Alcotest.(check (list string))
    "missing section named" [ "section table2" ] v.R.missing;
  (* a run disappearing inside a section is a loss too *)
  let base' =
    mk_report
      ~sections:
        [ mk_section ~runs:[ mk_run (); mk_run ~name:"rd84" () ] () ]
      ()
  in
  let v' = R.diff ~base:base' ~current in
  Alcotest.(check (list string))
    "missing run named" [ "run table1/rd84/mulop-dc" ] v'.R.missing

let test_diff_lut_drop () =
  (* the gate has no direction: an improvement moves a cell too *)
  let base = mk_report () in
  let current =
    mk_report ~sections:[ mk_section ~runs:[ mk_run ~luts:(Some 3) () ] () ] ()
  in
  let v = R.diff ~base ~current in
  Alcotest.(check bool) "a LUT drop fails" false (R.verdict_ok v);
  Alcotest.(check (list string))
    "the drop is listed" [ "luts" ]
    (List.map (fun d -> d.R.metric) v.R.changed)

let test_diff_wall_only () =
  let base = mk_report () in
  let slow = { (mk_run ()) with R.wall = 10.0 } in
  let current = mk_report ~sections:[ mk_section ~runs:[ slow ] () ] () in
  let v = R.diff ~base ~current in
  Alcotest.(check bool) "slow wall passes" true (R.verdict_ok v);
  Alcotest.(check int) "nothing listed" 0 (List.length v.R.changed)

(* ---- rendering and files ---- *)

let test_markdown_marks_command () =
  let md = R.markdown (mk_report ()) in
  Alcotest.(check bool)
    "table marked with producing command" true
    (contains ~needle:"dune exec bench/main.exe -- table1" md);
  Alcotest.(check bool)
    "table header rendered" true
    (contains ~needle:"| circuit |" md);
  Alcotest.(check bool)
    "pipes escaped in cells" true
    (contains ~needle:{|a\|b|} md)

let test_write_load () =
  let dir = Filename.temp_file "bench" "" in
  Sys.remove dir;
  let r = mk_report () in
  match R.write ~dir r with
  | Error msg -> Alcotest.failf "write failed: %s" msg
  | Ok (stamped, latest) ->
      Alcotest.(check bool)
        "stamped name embeds the timestamp" true
        (Filename.basename stamped = "BENCH_20260808T000000Z.json");
      (match R.load latest with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok r' ->
          Alcotest.(check string) "write/load round trip" (canon r) (canon r'));
      (match R.load (Filename.concat dir "nope.json") with
      | Ok _ -> Alcotest.fail "loaded a missing file"
      | Error _ -> ());
      Sys.remove stamped;
      Sys.remove latest;
      Unix.rmdir dir

(* A list of [n] fresh pairs costs 6 words a cell: a 3-word cons and a
   3-word pair, all on the minor heap.  Every reading must be within
   1 KB of that, wherever the minor heap stood when it was taken. *)
let test_measure_alloc () =
  let rec pairs n acc = if n = 0 then acc else pairs (n - 1) ((n, n) :: acc) in
  let n = 4096 in
  let expected = float_of_int (n * 6 * (Sys.word_size / 8)) in
  for _ = 1 to 5 do
    let l, _, alloc = R.measure (fun () -> pairs n []) in
    Alcotest.(check int) "the list was built" n (List.length l);
    if Float.abs (alloc -. expected) > 1024. then
      Alcotest.failf "measured %.0f B, allocated %.0f B" alloc expected
  done

let suite =
  [
    Alcotest.test_case "measure counts minor-heap allocation" `Quick
      test_measure_alloc;
    Alcotest.test_case "schema round trip" `Quick test_roundtrip;
    Alcotest.test_case "stats round trip" `Quick test_stats_roundtrip;
    Alcotest.test_case "stats JSON matches bench schema" `Quick
      test_stats_json_matches_schema;
    Alcotest.test_case "stats merge sums every counter" `Quick test_stats_merge;
    Alcotest.test_case "stats add_coverage" `Quick test_stats_add_coverage;
    Alcotest.test_case "schema-version mismatch is a clean error" `Quick
      test_schema_mismatch;
    Alcotest.test_case "diff: identical pair passes" `Quick test_diff_identical;
    Alcotest.test_case "diff: injected LUT regression fails" `Quick
      test_diff_regression;
    Alcotest.test_case "diff: counter regression, unstable exemption" `Quick
      test_diff_counter_regression;
    Alcotest.test_case "diff: a counter leaving zero fails" `Quick
      test_diff_zero_to_one;
    Alcotest.test_case "diff: one count up or down fails" `Quick
      test_diff_one_count;
    Alcotest.test_case "diff: missing coverage fails" `Quick test_diff_missing;
    Alcotest.test_case "diff: a LUT drop fails" `Quick test_diff_lut_drop;
    Alcotest.test_case "diff: a wall-time change passes" `Quick
      test_diff_wall_only;
    Alcotest.test_case "markdown marks the producing command" `Quick
      test_markdown_marks_command;
    Alcotest.test_case "write and load BENCH files" `Quick test_write_load;
  ]
