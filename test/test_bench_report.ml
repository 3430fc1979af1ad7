(* Bench_report: schema round trip, baseline diffing, schema-version
   gating, and the Stats JSON projection the bench schema embeds. *)

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
    columns = [ "circuit"; "clbs"; "gain"; "time"; "note"; "ratio"; "lat" ];
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
              ("lat", R.Millis 3.25);
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
            [ "circuit"; "clbs"; "gain"; "time"; "note"; "ratio"; "lat" ]
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
  let v = R.diff ~base:r ~current:r ~max_regress:10.0 in
  Alcotest.(check bool) "identical pair passes" true (R.verdict_ok v);
  Alcotest.(check int) "no regressions" 0 (List.length v.R.regressions);
  Alcotest.(check int) "no advisories" 0 (List.length v.R.advisories);
  Alcotest.(check int) "no missing" 0 (List.length v.R.missing)

let test_diff_regression () =
  let base = mk_report () in
  let current =
    mk_report ~sections:[ mk_section ~runs:[ mk_run ~luts:(Some 9) () ] () ] ()
  in
  let v = R.diff ~base ~current ~max_regress:10.0 in
  Alcotest.(check bool) "regression fails the gate" false (R.verdict_ok v);
  match
    List.find_opt (fun d -> d.R.metric = "luts") v.R.regressions
  with
  | None -> Alcotest.fail "lut regression not detected"
  | Some d ->
      Alcotest.(check (float 1e-6)) "base luts" 6.0 d.R.base;
      Alcotest.(check (float 1e-6)) "current luts" 9.0 d.R.current

let test_diff_counter_regression () =
  let worse = mk_stats () in
  worse.Stats.restricts <- 3000;
  let base = mk_report () in
  let current =
    mk_report
      ~sections:[ mk_section ~runs:[ mk_run ~stats:worse () ] () ]
      ()
  in
  let v = R.diff ~base ~current ~max_regress:10.0 in
  Alcotest.(check bool)
    "counter regression detected" true
    (List.exists (fun d -> d.R.metric = "stats.restricts") v.R.regressions);
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
  let v' = R.diff ~base:base_unstable ~current:current_unstable ~max_regress:10.0 in
  Alcotest.(check bool) "unstable runs never gate" true (R.verdict_ok v')

let test_diff_noise_floor () =
  (* +1 on a counter is > 10% of a tiny base but below the absolute
     floor: must not gate *)
  let small base_v cur_v =
    let s = Stats.create () in
    s.Stats.restricts <- base_v;
    let s' = Stats.create () in
    s'.Stats.restricts <- cur_v;
    ( mk_report
        ~sections:
          [ mk_section ~runs:[ mk_run ~alloc:0.0 ~stats:s () ] () ]
        (),
      mk_report
        ~sections:
          [ mk_section ~runs:[ mk_run ~alloc:0.0 ~stats:s' () ] () ]
        () )
  in
  let base, current = small 8 9 in
  let v = R.diff ~base ~current ~max_regress:10.0 in
  Alcotest.(check bool) "+1 under the floor passes" true (R.verdict_ok v);
  let base, current = small 100 200 in
  let v = R.diff ~base ~current ~max_regress:10.0 in
  Alcotest.(check bool) "x2 over the floor fails" false (R.verdict_ok v)

let test_diff_missing () =
  let base =
    mk_report
      ~sections:[ mk_section (); mk_section ~name:"table2" () ]
      ()
  in
  let current = mk_report ~sections:[ mk_section () ] () in
  let v = R.diff ~base ~current ~max_regress:10.0 in
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
  let v' = R.diff ~base:base' ~current ~max_regress:10.0 in
  Alcotest.(check (list string))
    "missing run named" [ "run table1/rd84/mulop-dc" ] v'.R.missing

let test_diff_improvement_and_advisory () =
  let base = mk_report () in
  let current =
    mk_report ~sections:[ mk_section ~runs:[ mk_run ~luts:(Some 3) () ] () ] ()
  in
  let v = R.diff ~base ~current ~max_regress:10.0 in
  Alcotest.(check bool) "improvement still passes" true (R.verdict_ok v);
  Alcotest.(check bool)
    "improvement recorded" true
    (List.exists (fun d -> d.R.metric = "luts") v.R.improvements);
  (* wall-clock changes are advisory, never regressions *)
  let slow = { (mk_run ()) with R.wall = 10.0 } in
  let current' = mk_report ~sections:[ mk_section ~runs:[ slow ] () ] () in
  let v' = R.diff ~base ~current:current' ~max_regress:10.0 in
  Alcotest.(check bool) "slow wall still passes" true (R.verdict_ok v');
  Alcotest.(check bool)
    "slow wall advised" true
    (List.exists (fun d -> d.R.metric = "wall") v'.R.advisories)

let test_verdict_json () =
  let base = mk_report () in
  let current =
    mk_report ~sections:[ mk_section ~runs:[ mk_run ~luts:(Some 9) () ] () ] ()
  in
  let v = R.diff ~base ~current ~max_regress:10.0 in
  let j = R.verdict_to_json v in
  Alcotest.(check (option bool)) "ok field" (Some false) (Json.mem_bool "ok" j);
  Alcotest.(check (option int))
    "verdict carries schema" (Some R.schema_version)
    (Json.mem_int "bench_schema" j);
  match Json.member "regressions" j with
  | Some (Json.Arr (_ :: _)) -> ()
  | _ -> Alcotest.fail "regressions array empty or missing"

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
    Alcotest.test_case "schema-version mismatch is a clean error" `Quick
      test_schema_mismatch;
    Alcotest.test_case "diff: identical pair passes" `Quick test_diff_identical;
    Alcotest.test_case "diff: injected LUT regression fails" `Quick
      test_diff_regression;
    Alcotest.test_case "diff: counter regression, unstable exemption" `Quick
      test_diff_counter_regression;
    Alcotest.test_case "diff: absolute noise floor" `Quick test_diff_noise_floor;
    Alcotest.test_case "diff: missing coverage fails" `Quick test_diff_missing;
    Alcotest.test_case "diff: improvements and wall advisories" `Quick
      test_diff_improvement_and_advisory;
    Alcotest.test_case "verdict JSON shape" `Quick test_verdict_json;
    Alcotest.test_case "markdown marks the producing command" `Quick
      test_markdown_marks_command;
    Alcotest.test_case "write and load BENCH files" `Quick test_write_load;
  ]
