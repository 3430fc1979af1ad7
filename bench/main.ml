(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) plus the extension sections.

     dune exec bench/main.exe             -- everything
     dune exec bench/main.exe -- table1 figure2 ...   -- selected sections
     dune exec bench/main.exe -- quick    -- skip the slowest circuits

   Sections: table1 table2 figure2 figure3 ablation governor check
   semantics optimize objective dataflow robdd batch

   Every run emits BENCH_<stamp>.json and BENCH_latest.json
   (Bench_report schema): per-section and per-run wall time, the
   Gc.allocated_bytes delta, Stats counters and LUT/CLB quality
   numbers.  Console tables and JSON render from the same structure,
   so they cannot disagree.

   Flags:
     --out DIR           where BENCH_*.json land (default ".")
     --against FILE      diff this run against a baseline report; exit 1
                         unless every deterministic cell of every stable
                         run equals the baseline and no run is missing
     --render-md [FILE]  render a report (default OUT/BENCH_latest.json)
                         as markdown to stdout and exit

   The tables of EXPERIMENTS.md are rendered via --render-md from the
   BENCH_latest.json of a full (non-quick) run. *)

module R = Bench_report

(* The circuits whose decomposition is slowest; skipped under `quick`. *)
let slow_circuits = [ "C499"; "C880"; "rot"; "count"; "e64" ]

(* Stats plumbing: [section_stats] is the per-run slot [run_driver]
   reads (the harness is single-threaded; the batch section's worker
   domains create their own per-job stats inside Batch), [section_agg]
   accumulates every run of the current section. *)
let section_agg = ref (Stats.create ())
let section_stats = ref (Stats.create ())

(* Measure one run: fresh stats + wall + allocation delta, merged into
   the section aggregate.  Returns everything a [R.run] needs. *)
let with_run_stats f =
  let s = Stats.create () in
  section_stats := s;
  let result, wall, alloc = R.measure f in
  Stats.merge ~into:!section_agg s;
  (result, wall, alloc, s)

let run_driver m cfg spec =
  let report = Driver.decompose_report ~cfg ~stats:!section_stats m spec in
  Network.sweep report.Driver.network

let row label cells = { R.label; cells }

let mk_run ?(stable = true) ?luts ?clbs ?depth ?bdd_nodes ~algorithm ~wall
    ~alloc ~stats name =
  {
    R.name;
    algorithm;
    stable;
    wall;
    alloc_bytes = alloc;
    luts;
    clbs;
    depth;
    bdd_nodes;
    stats;
  }

(* What a section computes; the runner adds name, wall, allocation and
   the aggregated stats. *)
type partial = {
  title : string;
  command : string;
  columns : string list;
  rows : R.row list;
  runs : R.run list;
  notes : string list;
}

let skip_note skipped =
  if skipped = [] then []
  else
    [
      Printf.sprintf "skipped under `quick`: %s"
        (String.concat ", " (List.rev skipped));
    ]

(* ------------------------------------------------------------------ *)
(* Table 1: CLB counts (XC3000) without / with don't-care exploitation *)
(* ------------------------------------------------------------------ *)

let table1 quick =
  let rows = ref [] and runs = ref [] and skipped = ref [] in
  let total_ii = ref 0 and total_dc = ref 0 in
  List.iter
    (fun e ->
      let label = (if e.Mcnc.exact then "" else "~") ^ e.Mcnc.name in
      if quick && List.mem e.Mcnc.name slow_circuits then
        skipped := label :: !skipped
      else begin
        (* each algorithm gets its own manager and spec, and its node
           count is read before the verify adds nodes of its own *)
        let run alg =
          let m = Bdd.manager () in
          let spec = e.Mcnc.build m in
          let net, w, a, s =
            with_run_stats (fun () -> run_driver m (Mulop.config_of alg) spec)
          in
          let nodes = Bdd.node_count m in
          assert (Driver.verify m spec net);
          (net, w, a, s, nodes)
        in
        let ii, ii_w, ii_a, ii_s, ii_nodes = run Mulop.Mulop_ii in
        let dc, dc_w, dc_a, dc_s, dc_nodes = run Mulop.Mulop_dc in
        let cii = Clb.clb_count Clb.First_fit ii in
        let cdc = Clb.clb_count Clb.First_fit dc in
        total_ii := !total_ii + cii;
        total_dc := !total_dc + cdc;
        let gain =
          100.0 *. (1.0 -. (float_of_int cdc /. float_of_int (max 1 cii)))
        in
        runs :=
          mk_run ~algorithm:"mulop-dc" ~wall:dc_w ~alloc:dc_a ~stats:dc_s
            ~luts:(Network.stats dc).Network.lut_count ~clbs:cdc
            ~bdd_nodes:dc_nodes e.Mcnc.name
          :: mk_run ~algorithm:"mulopII" ~wall:ii_w ~alloc:ii_a ~stats:ii_s
               ~luts:(Network.stats ii).Network.lut_count ~clbs:cii
               ~bdd_nodes:ii_nodes e.Mcnc.name
          :: !runs;
        rows :=
          row label
            [
              ("in", R.Int e.Mcnc.ninputs);
              ("out", R.Int e.Mcnc.noutputs);
              ("mulopII", R.Int cii);
              ("mulop-dc", R.Int cdc);
              ("gain", R.Pct gain);
              ("time", R.Secs (ii_w +. dc_w));
            ]
          :: !rows
      end)
    Mcnc.catalogue;
  let gain =
    100.0 *. (1.0 -. (float_of_int !total_dc /. float_of_int (max 1 !total_ii)))
  in
  {
    title = "Table 1: CLB counts for XC3000 (n_LUT = 5), mulopII vs mulop-dc";
    command = "dune exec bench/main.exe -- table1";
    columns = [ "circuit"; "in"; "out"; "mulopII"; "mulop-dc"; "gain"; "time" ];
    rows =
      List.rev
        (row "total"
           [
             ("mulopII", R.Int !total_ii);
             ("mulop-dc", R.Int !total_dc);
             ("gain", R.Pct gain);
           ]
        :: !rows);
    runs = List.rev !runs;
    notes =
      [
        "paper: alu2 gains ~35%, total gain > 10%; absolute counts differ \
         because stand-in functions replace the original MCNC netlists for \
         the rows marked '~' (see DESIGN.md section 4)";
        Printf.sprintf "measured total gain: %.1f%%" gain;
      ]
      @ skip_note !skipped;
  }

(* ------------------------------------------------------------------ *)
(* Table 2: mulop-dcII vs published mappers                            *)
(* ------------------------------------------------------------------ *)

let table2 quick =
  let rows = ref [] and runs = ref [] and skipped = ref [] in
  let total_dc = ref 0 and total_dcii = ref 0 in
  List.iter
    (fun e ->
      let label = (if e.Mcnc.exact then "" else "~") ^ e.Mcnc.name in
      if quick && List.mem e.Mcnc.name slow_circuits then
        skipped := label :: !skipped
      else begin
        let m = Bdd.manager () in
        let spec = e.Mcnc.build m in
        let net, wall, alloc, stats =
          with_run_stats (fun () ->
              run_driver m (Mulop.config_of Mulop.Mulop_dc) spec)
        in
        assert (Driver.verify m spec net);
        let first_fit = Clb.clb_count Clb.First_fit net in
        let matching = Clb.clb_count Clb.Max_matching net in
        total_dc := !total_dc + first_fit;
        total_dcii := !total_dcii + matching;
        let luts = (Network.stats net).Network.lut_count in
        runs :=
          mk_run ~algorithm:"mulop-dcII" ~wall ~alloc ~stats ~luts
            ~clbs:matching e.Mcnc.name
          :: !runs;
        rows :=
          row label
            [
              ("mulop-dc", R.Int first_fit);
              ("mulop-dcII", R.Int matching);
              ("luts", R.Int luts);
            ]
          :: !rows
      end)
    Mcnc.catalogue;
  {
    title = "Table 2: CLB counts, mulop-dcII (max-matching CLB merge)";
    command = "dune exec bench/main.exe -- table2";
    columns = [ "circuit"; "mulop-dc"; "mulop-dcII"; "luts" ];
    rows =
      List.rev
        (row "total"
           [
             ("mulop-dc", R.Int !total_dc); ("mulop-dcII", R.Int !total_dcii);
           ]
        :: !rows);
    runs = List.rev !runs;
    notes =
      [
        "the supplied paper text contains Table 2's structure but the OCR \
         lost the per-row values of FGMap / mis-pga(new) / IMODEC, so only \
         our own columns are measured: mulop-dc (first-fit merge) against \
         mulop-dcII (maximum-cardinality matching merge, Murgai et al.); \
         the paper's qualitative claim is that mulop-dcII wins overall";
        Printf.sprintf "matching merge saves %d CLBs over first-fit"
          (!total_dc - !total_dcii);
      ]
      @ skip_note !skipped;
  }

(* ------------------------------------------------------------------ *)
(* Figure 2: 8-bit adder from two-input gates                          *)
(* ------------------------------------------------------------------ *)

let figure2 quick =
  let rows = ref [] and runs = ref [] in
  let sizes = if quick then [ 4; 8 ] else [ 4; 6; 8 ] in
  List.iter
    (fun bits ->
      let m = Bdd.manager () in
      let spec = Arith.adder m ~bits in
      let cs = Network.stats (Circuits.conditional_sum_adder ~bits) in
      let name = Printf.sprintf "adder%d" bits in
      let dc, dc_w, dc_a, dc_s =
        with_run_stats (fun () ->
            run_driver m (Mulop.config_of ~lut_size:2 Mulop.Mulop_dc) spec)
      in
      let ii, ii_w, ii_a, ii_s =
        with_run_stats (fun () ->
            run_driver m (Mulop.config_of ~lut_size:2 Mulop.Mulop_ii) spec)
      in
      assert (Driver.verify m spec dc);
      assert (Driver.verify m spec ii);
      let sdc = Network.stats dc and sii = Network.stats ii in
      runs :=
        mk_run ~algorithm:"mulopII" ~wall:ii_w ~alloc:ii_a ~stats:ii_s
          ~luts:sii.Network.lut_count ~depth:sii.Network.depth name
        :: mk_run ~algorithm:"mulop-dc" ~wall:dc_w ~alloc:dc_a ~stats:dc_s
             ~luts:sdc.Network.lut_count ~depth:sdc.Network.depth name
        :: !runs;
      rows :=
        row (string_of_int bits)
          [
            ("cond-sum", R.Int cs.Network.lut_count);
            ("mulop-dc", R.Int sdc.Network.lut_count);
            ("no-DC", R.Int sii.Network.lut_count);
            ("depth(dc)", R.Int sdc.Network.depth);
          ]
        :: !rows)
    sizes;
  {
    title = "Figure 2: automatically generated adders (two-input gates)";
    command = "dune exec bench/main.exe -- figure2";
    columns = [ "bits"; "cond-sum"; "mulop-dc"; "no-DC"; "depth(dc)" ];
    rows = List.rev !rows;
    runs = List.rev !runs;
    notes =
      [
        "paper reference at 8 bits: 49 two-input gates for the generated \
         adder vs 90 for the conditional-sum adder; shape to reproduce: \
         generated < conditional-sum, and the don't-care concept is what \
         gets it there";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Figure 3: partial multiplier pm_n                                   *)
(* ------------------------------------------------------------------ *)

let figure3 quick =
  let rows = ref [] and runs = ref [] in
  let sizes = if quick then [ 3 ] else [ 3; 4 ] in
  List.iter
    (fun n ->
      let m = Bdd.manager () in
      let spec = Arith.partial_multiplier m ~n in
      let w = Network.stats (Circuits.wallace_partial_multiplier ~n) in
      let name = Printf.sprintf "pm%d" n in
      let dc, dc_w, dc_a, dc_s =
        with_run_stats (fun () ->
            run_driver m (Mulop.config_of ~lut_size:2 Mulop.Mulop_dc) spec)
      in
      let ii, ii_w, ii_a, ii_s =
        with_run_stats (fun () ->
            run_driver m (Mulop.config_of ~lut_size:2 Mulop.Mulop_ii) spec)
      in
      assert (Driver.verify m spec dc);
      assert (Driver.verify m spec ii);
      let gdc = (Network.stats dc).Network.lut_count in
      let gii = (Network.stats ii).Network.lut_count in
      runs :=
        mk_run ~algorithm:"mulopII" ~wall:ii_w ~alloc:ii_a ~stats:ii_s
          ~luts:gii name
        :: mk_run ~algorithm:"mulop-dc" ~wall:dc_w ~alloc:dc_a ~stats:dc_s
             ~luts:gdc name
        :: !runs;
      rows :=
        row (string_of_int n)
          [
            ("wallace", R.Int w.Network.lut_count);
            ("formula", R.Int (Circuits.wallace_gate_formula n));
            ("mulop-dc", R.Int gdc);
            ("no-DC", R.Int gii);
            ( "overhead",
              R.Pct (100.0 *. ((float_of_int gii /. float_of_int (max 1 gdc)) -. 1.0))
            );
          ]
        :: !rows)
    sizes;
  {
    title = "Figure 3: partial multiplier pm_n (two-input gates)";
    command = "dune exec bench/main.exe -- figure3";
    columns = [ "n"; "wallace"; "formula"; "mulop-dc"; "no-DC"; "overhead" ];
    rows = List.rev !rows;
    runs = List.rev !runs;
    notes =
      [
        "paper: the DC assignment is essential — without it pm_4 needs ~75% \
         more gates; the Wallace tree needs 10n^2 - 20n gates";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Ablation: contribution of each DC step                              *)
(* ------------------------------------------------------------------ *)

let ablation _quick =
  let circuits = [ "5xp1"; "alu2"; "clip"; "rd84"; "z4ml"; "f51m" ] in
  let variants =
    [
      ("none (mulopII)", Config.mulop_ii);
      ( "sym only",
        {
          Config.mulop_dc with
          Config.dc_steps =
            { Config.symmetry = true; sharing = false; cms = false };
        } );
      ( "share only",
        {
          Config.mulop_dc with
          Config.dc_steps =
            { Config.symmetry = false; sharing = true; cms = false };
        } );
      ( "cms only",
        {
          Config.mulop_dc with
          Config.dc_steps =
            { Config.symmetry = false; sharing = false; cms = true };
        } );
      ( "share+cms",
        {
          Config.mulop_dc with
          Config.dc_steps =
            { Config.symmetry = false; sharing = true; cms = true };
        } );
      ("all (mulop-dc)", Config.mulop_dc);
    ]
  in
  let rows = ref [] and runs = ref [] in
  List.iter
    (fun (variant, cfg) ->
      let total = ref 0 in
      let cells =
        List.map
          (fun circuit ->
            let e = Mcnc.find circuit in
            let m = Bdd.manager () in
            let spec = e.Mcnc.build m in
            let net, wall, alloc, stats =
              with_run_stats (fun () -> run_driver m cfg spec)
            in
            assert (Driver.verify m spec net);
            let clbs = Clb.clb_count Clb.First_fit net in
            total := !total + clbs;
            runs :=
              mk_run ~algorithm:variant ~wall ~alloc ~stats ~clbs
                ~luts:(Network.stats net).Network.lut_count circuit
              :: !runs;
            (circuit, R.Int clbs))
          circuits
      in
      rows := row variant (cells @ [ ("total", R.Int !total) ]) :: !rows)
    variants;
  {
    title = "Ablation: contribution of the three DC steps (CLBs, XC3000)";
    command = "dune exec bench/main.exe -- ablation";
    columns = ("variant" :: circuits) @ [ "total" ];
    rows = List.rev !rows;
    runs = List.rev !runs;
    notes =
      [
        "each DC step enabled in isolation and in combination, CLB counts \
         per circuit; 'all' is the paper's mulop-dc";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Governor: graceful degradation under resource budgets               *)
(* ------------------------------------------------------------------ *)

let governor quick =
  let ninputs, noutputs = if quick then (30, 8) else (48, 16) in
  let window, gates_per_output = if quick then (12, 24) else (16, 40) in
  let workload = Printf.sprintf "cones%dx%d" ninputs noutputs in
  (* timeout-governed rows depend on elapsed time, so their counters
     and degradation ladders are not reproducible: stable = false. *)
  let variants =
    [
      ("unlimited", true, fun stats -> Budget.create ~stats ());
      ( "effort quick",
        true,
        fun stats -> Budget.create ~effort:Budget.Quick ~stats () );
      ("timeout 1s", false, fun stats -> Budget.create ~timeout:1.0 ~stats ());
      ( "nodes 50k",
        true,
        fun stats -> Budget.create ~node_budget:50_000 ~stats () );
      ("nodes 5k", true, fun stats -> Budget.create ~node_budget:5_000 ~stats ());
      ("timeout 0s", false, fun stats -> Budget.create ~timeout:0.0 ~stats ());
    ]
  in
  let rows = ref [] and runs = ref [] in
  List.iter
    (fun (variant, stable, make_budget) ->
      let m = Bdd.manager () in
      let net =
        Randnet.cones ~ninputs ~noutputs ~window ~gates_per_output ~seed:42 ()
      in
      let spec = Randnet.spec_of_network m net in
      let o, wall, alloc, stats =
        with_run_stats (fun () ->
            let budget = make_budget !section_stats in
            Mulop.run ~budget ~stats:!section_stats m Mulop.Mulop_dc spec)
      in
      assert (Driver.verify m spec o.Mulop.network);
      runs :=
        mk_run ~stable ~algorithm:variant ~wall ~alloc ~stats
          ~luts:o.Mulop.lut_count ~clbs:o.Mulop.clb_count ~depth:o.Mulop.depth
          workload
        :: !runs;
      rows :=
        row variant
          [
            ("luts", R.Int o.Mulop.lut_count);
            ("clbs", R.Int o.Mulop.clb_count);
            ("depth", R.Int o.Mulop.depth);
            ("degraded-to", R.Str (Budget.stage_name o.Mulop.degraded_to));
            ("degr", R.Int (List.length (Stats.degradations stats)));
            ("time", R.Secs wall);
          ]
        :: !rows)
    variants;
  {
    title = "Governor: degradation ladder under deadline / node budgets";
    command = "dune exec bench/main.exe -- governor";
    columns = [ "budget"; "luts"; "clbs"; "depth"; "degraded-to"; "degr"; "time" ];
    rows = List.rev !rows;
    runs = List.rev !runs;
    notes =
      [
        Printf.sprintf
          "a random cone network (%s, seed 42) decomposed under shrinking \
           budgets; exceeding a budget never fails the run: the driver \
           drops symmetry maximization first, then the joint clique cover, \
           finally falls back to plain Shannon/MUX emission — every row is \
           verified against the specification"
          workload;
        "timeout rows are wall-clock-governed and excluded from regression \
         gating (stable = false)";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Assertion-layer overhead: --check=off vs cheap vs full              *)
(* ------------------------------------------------------------------ *)

let check_circuits quick =
  if quick then [ "rd73"; "misex1"; "5xp1" ]
  else [ "rd73"; "rd84"; "misex1"; "5xp1"; "clip"; "sao2"; "alu2" ]

let check_overhead quick =
  let rows = ref [] and runs = ref [] in
  List.iter
    (fun name ->
      let e = Mcnc.find name in
      let one algorithm checks =
        let m = Bdd.manager () in
        let spec = e.Mcnc.build m in
        let o, wall, alloc, stats =
          with_run_stats (fun () ->
              Mulop.run ~checks ~stats:!section_stats m Mulop.Mulop_dc spec)
        in
        runs :=
          mk_run ~algorithm ~wall ~alloc ~stats ~luts:o.Mulop.lut_count
            ~clbs:o.Mulop.clb_count name
          :: !runs;
        (o, wall)
      in
      let o_off, t_off = one "check-off" Diagnostic.Off in
      let o_cheap, t_cheap = one "check-cheap" Diagnostic.Cheap in
      let o_full, t_full = one "check-full" Diagnostic.Full in
      assert (o_off.Mulop.clb_count = o_cheap.Mulop.clb_count);
      assert (o_off.Mulop.clb_count = o_full.Mulop.clb_count);
      let pct t = 100.0 *. ((t /. Float.max 1e-9 t_off) -. 1.0) in
      rows :=
        row name
          [
            ("off", R.Secs t_off);
            ("cheap", R.Secs t_cheap);
            ("full", R.Secs t_full);
            ("cheap ovh", R.Pct (pct t_cheap));
            ("full ovh", R.Pct (pct t_full));
            ("findings", R.Int (List.length o_full.Mulop.findings));
          ]
        :: !rows)
    (check_circuits quick);
  {
    title = "Check: assertion-layer overhead (mulop-dc, n_LUT = 5)";
    command = "dune exec bench/main.exe -- check";
    columns =
      [ "circuit"; "off"; "cheap"; "full"; "cheap ovh"; "full ovh"; "findings" ];
    rows = List.rev !rows;
    runs = List.rev !runs;
    notes =
      [
        "wall time of one mulop-dc run per circuit at each --check level; \
         checks are pure observers: all levels must produce the same CLB \
         count, and a clean run reports zero findings";
        "overhead columns are relative to off; findings are from the full \
         run and must be 0 on a healthy build";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Semantic-pass overhead: --check=full vs --check=deep                *)
(* ------------------------------------------------------------------ *)

let semantics_overhead quick =
  let rows = ref [] and runs = ref [] in
  List.iter
    (fun name ->
      let e = Mcnc.find name in
      let one algorithm checks =
        let m = Bdd.manager () in
        let spec = e.Mcnc.build m in
        let o, wall, alloc, stats =
          with_run_stats (fun () ->
              Mulop.run ~checks ~stats:!section_stats m Mulop.Mulop_dc spec)
        in
        runs :=
          mk_run ~algorithm ~wall ~alloc ~stats ~luts:o.Mulop.lut_count
            ~clbs:o.Mulop.clb_count name
          :: !runs;
        (o, wall)
      in
      let o_full, t_full = one "check-full" Diagnostic.Full in
      let o_deep, t_deep = one "check-deep" Diagnostic.Deep in
      assert (o_full.Mulop.clb_count = o_deep.Mulop.clb_count);
      let sem =
        List.filter
          (fun f ->
            String.length f.Diagnostic.code >= 3
            && String.sub f.Diagnostic.code 0 3 = "SEM")
          o_deep.Mulop.findings
      in
      let pct = 100.0 *. ((t_deep /. Float.max 1e-9 t_full) -. 1.0) in
      rows :=
        row name
          [
            ("full", R.Secs t_full);
            ("deep", R.Secs t_deep);
            ("overhead", R.Pct pct);
            ("SEM findings", R.Int (List.length sem));
          ]
        :: !rows)
    (check_circuits quick);
  {
    title = "Semantics: SDC/ODC dataflow overhead (mulop-dc, n_LUT = 5)";
    command = "dune exec bench/main.exe -- semantics";
    columns = [ "circuit"; "full"; "deep"; "overhead"; "SEM findings" ];
    rows = List.rev !rows;
    runs = List.rev !runs;
    notes =
      [
        "--check=deep adds the semantic SDC/ODC dataflow over the final \
         network against the specification's care set; deep checks are \
         pure observers too: CLB counts must match, and SEM findings on \
         the engine's own output indicate leftover don't cares";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Optimize: the verified DC-driven rewrite loop                       *)
(* ------------------------------------------------------------------ *)

(* Two fixed networks carrying redundancy only the semantic analysis
   can see (the examples/circuits/dc_dups.blif and dc_dead.blif
   stories): e and n are complements, so LUTs over (e, n) never see the
   codes 00 and 11. *)
let redundant_nets () =
  let tt bits =
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    Bv.of_fun (log2 (String.length bits)) (fun i -> bits.[i] = '1')
  in
  let dups =
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
  in
  let dead =
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
  in
  [ ("dc_dups", dups); ("dc_dead", dead) ]

let optimize_bench quick =
  let rows = ref [] and runs = ref [] in
  let one name net =
    let m = Bdd.manager () in
    let o, wall, alloc, stats =
      with_run_stats (fun () -> Optimize.run ~stats:!section_stats m net)
    in
    (* the audit guard is the whole point: a kept outcome is equivalent *)
    assert (o.Optimize.audit = []);
    assert (o.Optimize.luts_after <= o.Optimize.luts_before);
    runs :=
      mk_run ~algorithm:"optimize" ~wall ~alloc ~stats
        ~luts:o.Optimize.luts_after ~clbs:o.Optimize.clbs_after name
      :: !runs;
    rows :=
      row name
        [
          ("luts", R.Int o.Optimize.luts_before);
          ("opt", R.Int o.Optimize.luts_after);
          ("clbs", R.Int o.Optimize.clbs_before);
          ("opt-clbs", R.Int o.Optimize.clbs_after);
          ("rewrites", R.Int (List.length o.Optimize.actions));
          ("time", R.Secs wall);
        ]
      :: !rows
  in
  List.iter (fun (name, net) -> one name net) (redundant_nets ());
  List.iter
    (fun name ->
      let e = Mcnc.find name in
      let m = Bdd.manager () in
      let spec = e.Mcnc.build m in
      let out = Mulop.run ~stats:(Stats.create ()) m Mulop.Mulop_dc spec in
      one name out.Mulop.network)
    (check_circuits quick);
  {
    title = "Optimize: verified DC-driven rewrite loop";
    command = "dune exec bench/main.exe -- optimize";
    columns = [ "circuit"; "luts"; "opt"; "clbs"; "opt-clbs"; "rewrites"; "time" ];
    rows = List.rev !rows;
    runs = List.rev !runs;
    notes =
      [
        "dc_dups / dc_dead are the redundant example networks (semantic \
         duplicates and a constant cone hidden behind complemented \
         reconvergence); the MCNC rows optimize the mulop-dc output, \
         which is usually already tight";
        "every outcome is audit-guarded: the section asserts care-set \
         equivalence and a non-increasing LUT count, so a regression \
         here fails the bench itself, not just the gate";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Extension: ROBDD sizes under symmetrization + symmetric sifting.    *)
(* Step 1 of the paper's DC concept comes from Scholl/Melchior/Hotz/   *)
(* Molitor (EDTC'97), whose own experiment is ROBDD-size reduction of  *)
(* incompletely specified functions; this section reproduces that      *)
(* effect with our substrate.                                          *)
(* ------------------------------------------------------------------ *)

let robdd _quick =
  let rows = ref [] and runs = ref [] in
  let total_before = ref 0 and total_after = ref 0 in
  List.iter
    (fun seed ->
      let name = Printf.sprintf "seed%d" seed in
      let (z_size, z_sifted, s_size, s_sifted), wall, alloc, stats =
        with_run_stats (fun () ->
            let m = Bdd.manager () in
            let st = Random.State.make [| seed |] in
            let nvars = 12 in
            let threshold = 4 + Random.State.int st 4 in
            let rec weight_fun v ones =
              if v = nvars then
                if ones >= threshold then Bdd.one m else Bdd.zero m
              else
                Bdd.ite m (Bdd.var m v)
                  (weight_fun (v + 1) (ones + 1))
                  (weight_fun (v + 1) ones)
            in
            let sym = weight_fun 0 0 in
            let dc = Bdd.random m ~nvars ~density:0.25 st in
            let on = Bdd.diff m sym dc in
            let isf = Isf.make m ~on ~dc in
            let vars = List.init nvars Fun.id in
            (* baseline: all DCs to 0, classical sifting *)
            let zeroed = Isf.on (Isf.assign_all_zero m isf) in
            let z_size = Bdd.size zeroed in
            let z_order =
              Reorder.sift m [ zeroed ]
                (Reorder.identity_of_support m [ zeroed ])
            in
            let z_sifted = Reorder.size_under m [ zeroed ] z_order in
            (* step 1: symmetrize, keep groups adjacent while sifting *)
            let r = Symmetry.maximize m [ isf ] vars in
            let f' =
              match r.Symmetry.functions with
              | [ f' ] -> Isf.on (Isf.assign_all_zero m f')
              | _ -> assert false
            in
            let s_size = Bdd.size f' in
            let groups = List.map Symmetry.group_vars r.Symmetry.groups in
            let start = Reorder.identity_of_support m [ f' ] in
            let s_order =
              if Array.length start >= 2 then
                Reorder.sift_symmetric m [ f' ] ~groups start
              else start
            in
            let s_sifted =
              if Array.length start >= 2 then
                Reorder.size_under m [ f' ] s_order
              else s_size
            in
            (z_size, z_sifted, s_size, s_sifted))
      in
      total_before := !total_before + z_sifted;
      total_after := !total_after + s_sifted;
      runs :=
        mk_run ~algorithm:"sym+sift" ~wall ~alloc ~stats ~bdd_nodes:s_sifted
          name
        :: !runs;
      rows :=
        row name
          [
            ("zeroed", R.Int z_size);
            ("sifted", R.Int z_sifted);
            ("symmetrized", R.Int s_size);
            ("sym+sifted", R.Int s_sifted);
            ( "gain",
              R.Pct
                (100.0
                *. (1.0 -. (float_of_int s_sifted /. float_of_int (max 1 z_sifted)))
                ) );
          ]
        :: !rows)
    [ 1; 2; 3; 4; 5; 6 ];
  {
    title =
      "Extension: ROBDD size under don't-care symmetrization (EDTC'97 effect)";
    command = "dune exec bench/main.exe -- robdd";
    columns = [ "seed"; "zeroed"; "sifted"; "symmetrized"; "sym+sifted"; "gain" ];
    rows = List.rev !rows;
    runs = List.rev !runs;
    notes =
      [
        "near-symmetric ISFs: a weight-threshold function of 12 variables \
         with 25% of the minterms punched out as don't cares; 'zeroed' \
         assigns all DCs to 0 (destroying the symmetry), 'symmetrized' \
         runs the step-1 assignment (recovering it); both are then \
         reordered with (symmetric) sifting";
        Printf.sprintf
          "shared-size totals: zeroed+sifted %d vs symmetrized+sym-sifted %d"
          !total_before !total_after;
      ];
  }

(* ------------------------------------------------------------------ *)
(* Batch: domain-parallel scaling over the small-circuit suite         *)
(* ------------------------------------------------------------------ *)

let batch_scaling quick =
  let circuits =
    if quick then [ "rd73"; "z4ml"; "misex1"; "5xp1" ]
    else
      [
        "rd73"; "rd84"; "z4ml"; "f51m"; "misex1"; "5xp1"; "clip"; "sao2";
        "9sym"; "alu2";
      ]
  in
  let job_list =
    List.map
      (fun name -> Batch.job ~name (fun m -> (Mcnc.find name).Mcnc.build m))
      circuits
  in
  let reports =
    List.map (fun jobs -> (jobs, Batch.run ~jobs job_list)) [ 1; 2; 4 ]
  in
  let counts report =
    List.map
      (fun r ->
        match r.Batch.outcome with
        | Ok s -> (r.Batch.job, s.Batch.lut_count, s.Batch.clb_count)
        | Error e -> failwith (r.Batch.job ^ ": " ^ e.Batch.message))
      report.Batch.results
  in
  let _, rep1 = List.hd reports in
  let base = counts rep1 in
  List.iter (fun (_, rep) -> assert (counts rep = base)) (List.tl reports);
  (* per-job runs come from the 1-domain pass: every job owns its
     manager and stats, so counters are deterministic; wall time and
     cross-domain allocation are not gateable, hence alloc 0. *)
  let runs =
    List.map
      (fun r ->
        match r.Batch.outcome with
        | Ok s ->
            Stats.merge ~into:!section_agg r.Batch.stats;
            mk_run ~algorithm:"mulop-dc" ~wall:r.Batch.seconds ~alloc:0.0
              ~stats:r.Batch.stats ~luts:s.Batch.lut_count
              ~clbs:s.Batch.clb_count ~depth:s.Batch.depth r.Batch.job
        | Error e -> failwith (r.Batch.job ^ ": " ^ e.Batch.message))
      rep1.Batch.results
  in
  let rows =
    List.map
      (fun (jobs, rep) ->
        row (string_of_int jobs)
          [
            ("wall", R.Secs rep.Batch.wall);
            ( "speedup",
              R.Float (rep1.Batch.wall /. Float.max 1e-9 rep.Batch.wall) );
          ])
      reports
  in
  {
    title = "Batch: domain-parallel scaling (mulop-dc, n_LUT = 5)";
    command = "dune exec bench/main.exe -- batch";
    columns = [ "domains"; "wall"; "speedup" ];
    rows;
    runs;
    notes =
      [
        Printf.sprintf
          "the whole suite decomposed by Batch.run with 1, 2 and 4 worker \
           domains; every job owns its BDD manager, budget and stats, so \
           per-circuit results are asserted bit-identical at every domain \
           count (%d circuits); speedup is bounded by the cores the host \
           grants (Domain.recommended_domain_count here: %d)"
          (List.length circuits)
          (Domain.recommended_domain_count ());
        "wall/speedup rows are scheduling-dependent and advisory; the \
         per-circuit runs (1-domain pass) carry the gateable counters";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Objective: area / delay / balanced Pareto points                    *)
(* ------------------------------------------------------------------ *)

let objective_bench quick =
  let load m name =
    match Mcnc.find name with
    | e -> e.Mcnc.build m
    | exception Not_found -> (List.assoc name Extra.catalogue) m
  in
  let rows = ref [] and runs = ref [] and skipped = ref [] in
  let eval ?(lut_size = 5) name =
    let label =
      if lut_size = 5 then name else Printf.sprintf "%s k=%d" name lut_size
    in
    let outcomes =
      List.map
        (fun objective ->
          let m = Bdd.manager () in
          let spec = load m name in
          let o, wall, alloc, s =
            with_run_stats (fun () ->
                Mulop.run ~lut_size ~objective ~stats:!section_stats m
                  Mulop.Mulop_dc spec)
          in
          assert (Driver.verify m spec o.Mulop.network);
          runs :=
            mk_run
              ~algorithm:
                (Printf.sprintf "mulop-dc/%s" (Cost.objective_name objective))
              ~wall ~alloc ~stats:s ~luts:o.Mulop.lut_count
              ~clbs:o.Mulop.clb_count ~depth:o.Mulop.depth label
            :: !runs;
          (o, wall))
        [ Cost.Area; Cost.Delay; Cost.Balanced ]
    in
    match outcomes with
    | [ (a, wa); (d, wd); (b, wb) ] ->
        rows :=
          row label
            [
              ("a-luts", R.Int a.Mulop.lut_count);
              ("a-depth", R.Int a.Mulop.depth);
              ("d-luts", R.Int d.Mulop.lut_count);
              ("d-depth", R.Int d.Mulop.depth);
              ("b-luts", R.Int b.Mulop.lut_count);
              ("b-depth", R.Int b.Mulop.depth);
              ("time", R.Secs (wa +. wd +. wb));
            ]
          :: !rows
    | _ -> assert false
  in
  (* Circuits whose area mapping leaves depth on the table (multi-step
     decompositions); apex7 only outside `quick` — its delay portfolio
     is the one slow run of the section. *)
  List.iter
    (fun name ->
      if quick && name = "apex7" then skipped := name :: !skipped
      else eval name)
    [ "t481"; "parity12"; "count"; "b9"; "duke2"; "apex7" ];
  (* LUT-size sweep at a fixed circuit: the k = 4/6 end-to-end path
     (CLI conventions, k-parametric CLB merging) exercised by the same
     three objectives. *)
  List.iter (fun k -> eval ~lut_size:k "5xp1") [ 4; 5; 6 ];
  {
    title =
      "Objective: area/delay/balanced Pareto points (mulop-dc, n_LUT = 5 \
       plus a k sweep)";
    command = "dune exec bench/main.exe -- objective";
    columns =
      [
        "circuit";
        "a-luts";
        "a-depth";
        "d-luts";
        "d-depth";
        "b-luts";
        "b-depth";
        "time";
      ];
    rows = List.rev !rows;
    runs = List.rev !runs;
    notes =
      [
        "delay and balanced run the two-pass portfolio (arrival-aware pass \
         raced against a plain area pass, winner by the objective's own \
         order), so d-depth <= a-depth on every row by construction";
        "5xp1 rows sweep the LUT size k; CLB counts use the k-parametric \
         merge rule (two LUTs of <= k-1 inputs sharing <= k distinct \
         inputs)";
      ]
      @ skip_note !skipped;
  }

(* ------------------------------------------------------------------ *)
(* Dataflow: the cheap screening tier in front of the exact/SAT engines *)
(* ------------------------------------------------------------------ *)

(* MCNC-shaped stand-ins: deterministic random cone networks (2-input
   gates, xor-biased) sized like apex7 / duke2 / rot, big enough that a
   small deterministic step budget truncates the exact engine and the
   windowed SAT fallback carries real load — which is where screening
   earns its keep. *)
let dataflow_nets quick =
  let mk name ~ninputs ~noutputs ~seed ~window ~gates_per_output =
    ( name,
      Randnet.cones ~ninputs ~noutputs ~window ~gates_per_output ~seed () )
  in
  [
    mk "apex7" ~ninputs:49 ~noutputs:37 ~seed:107 ~window:12
      ~gates_per_output:25;
    mk "duke2" ~ninputs:22 ~noutputs:29 ~seed:229 ~window:12
      ~gates_per_output:30;
  ]
  @
  if quick then []
  else
    [
      mk "rot" ~ninputs:135 ~noutputs:107 ~seed:135 ~window:11
        ~gates_per_output:20;
    ]

let dataflow_bench quick =
  let rows = ref [] and runs = ref [] in
  let skipped = if quick then [ "rot" ] else [] in
  let one (name, net) =
    let luts = (Network.stats net).Network.lut_count in
    (* Deterministic truncation: the step budget counts check() polls,
       which are placed identically with and without screening, so both
       modes hand the same node set to the SAT fallback. *)
    let steps = max 1 luts in
    let deep dataflow =
      let m = Bdd.manager () in
      let var_of_input =
        let tbl = Hashtbl.create 16 in
        List.iteri (fun k (nm, _) -> Hashtbl.add tbl nm k)
          (Network.inputs net);
        fun nm -> Hashtbl.find tbl nm
      in
      let report, wall, alloc, stats =
        with_run_stats (fun () ->
            let check = Careflow.step_limiter ~max_steps:steps () in
            Semantics.analyze_report ~check ~dataflow ~sat_timeout:1e9 m
              ~var_of_input net)
      in
      (* mirror the analyzer coverage into the run's stats: these are
         deterministic (step budget + complete SAT fallback), so the
         perf gate tracks them like any other counter *)
      Stats.add_coverage stats report.Semantics.coverage;
      runs :=
        mk_run
          ~algorithm:
            (if dataflow then "deep-lint/screened"
             else "deep-lint/unscreened")
          ~wall ~alloc ~stats ~luts name
        :: !runs;
      (report, wall)
    in
    let r_with, t_with = deep true in
    let r_without, t_without = deep false in
    (* screening is a pure observer: byte-identical findings, strictly
       less SAT work *)
    let norm r = Diagnostic.normalize r.Semantics.findings in
    assert (norm r_with = norm r_without);
    let c = r_with.Semantics.coverage in
    let c0 = r_without.Semantics.coverage in
    assert (c0.Semantics.screened_out = 0);
    assert (c.Semantics.screened_out > 0);
    assert (c.Semantics.sat_calls < c0.Semantics.sat_calls);
    rows :=
      row name
        [
          ("luts", R.Int luts);
          ("screened", R.Int c.Semantics.screened_out);
          ("sat", R.Int c.Semantics.sat_calls);
          ("sat-off", R.Int c0.Semantics.sat_calls);
          ("facts", R.Int c.Semantics.df_facts);
          ("with", R.Secs t_with);
          ("without", R.Secs t_without);
        ]
      :: !rows
  in
  List.iter one (dataflow_nets quick);
  {
    title = "Dataflow: screening tier ahead of the exact/SAT engines";
    command = "dune exec bench/main.exe -- dataflow";
    columns =
      [ "circuit"; "luts"; "screened"; "sat"; "sat-off"; "facts"; "with";
        "without" ];
    rows = List.rev !rows;
    runs = List.rev !runs;
    notes =
      [
        "deep lint under a deterministic step budget (exact engine \
         truncates at the same node in both modes); `sat` vs `sat-off` \
         is the solver-call saving, `screened` counts skipped work \
         units (exact ODC computations + finding-free SAT windows)";
        "the section asserts the screen is a pure observer: findings \
         with and without screening are identical, screened_out > 0 \
         and strictly fewer SAT calls with screening on";
      ]
      @ skip_note (List.rev skipped);
  }

(* ------------------------------------------------------------------ *)
(* CLI and main                                                        *)
(* ------------------------------------------------------------------ *)

let all_sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("figure2", figure2);
    ("figure3", figure3);
    ("ablation", ablation);
    ("governor", governor);
    ("check", check_overhead);
    ("semantics", semantics_overhead);
    ("optimize", optimize_bench);
    ("objective", objective_bench);
    ("dataflow", dataflow_bench);
    ("robdd", robdd);
    ("batch", batch_scaling);
  ]

type cli = {
  sections : string list;  (* empty = all *)
  quick : bool;
  out_dir : string;
  against : string option;
  render_md : string option option;  (* Some file = render FILE and exit *)
}

let usage () =
  prerr_endline
    "usage: bench [SECTION...] [quick] [--out DIR] [--against FILE]\n\
    \             [--render-md [FILE]]\n\
     sections: table1 table2 figure2 figure3 ablation governor check\n\
    \          semantics optimize objective dataflow robdd batch";
  exit 2

let parse_cli () =
  let rec go acc = function
    | [] -> acc
    | "--" :: rest -> go acc rest
    | "quick" :: rest -> go { acc with quick = true } rest
    | "--out" :: dir :: rest -> go { acc with out_dir = dir } rest
    | "--against" :: file :: rest -> go { acc with against = Some file } rest
    | "--render-md" :: file :: rest when Filename.check_suffix file ".json" ->
        go { acc with render_md = Some (Some file) } rest
    | "--render-md" :: rest -> go { acc with render_md = Some None } rest
    | name :: rest when List.mem_assoc name all_sections ->
        go { acc with sections = acc.sections @ [ name ] } rest
    | unknown :: _ ->
        Printf.eprintf "bench: unknown argument %S\n" unknown;
        usage ()
  in
  go
    {
      sections = [];
      quick = false;
      out_dir = ".";
      against = None;
      render_md = None;
    }
    (List.tl (Array.to_list Sys.argv))

let run_section name f quick =
  section_agg := Stats.create ();
  let p, wall, alloc = R.measure (fun () -> f quick) in
  let s =
    {
      R.name;
      title = p.title;
      command = p.command;
      columns = p.columns;
      rows = p.rows;
      runs = p.runs;
      notes = p.notes;
      wall;
      alloc_bytes = alloc;
      stats = !section_agg;
    }
  in
  Format.printf "@.%a@." R.pp_section s;
  Format.printf "%a@." Stats.pp !section_agg;
  s

let () =
  let cli = parse_cli () in
  (match cli.render_md with
  | None -> ()
  | Some file ->
      let path =
        Option.value
          ~default:(Filename.concat cli.out_dir "BENCH_latest.json")
          file
      in
      (match R.load path with
      | Error msg ->
          prerr_endline ("bench: " ^ msg);
          exit 2
      | Ok report -> print_string (R.markdown report));
      exit 0);
  Printf.printf
    "mfd benchmark harness — reproduction of C. Scholl, \"Multi-output\n\
     Functional Decomposition with Exploitation of Don't Cares\" (DATE'98)\n";
  let enabled name = cli.sections = [] || List.mem name cli.sections in
  let sections =
    List.filter_map
      (fun (name, f) ->
        if enabled name then Some (run_section name f cli.quick) else None)
      all_sections
  in
  let report =
    {
      R.schema = R.schema_version;
      created = R.created_now ();
      quick = cli.quick;
      sections;
    }
  in
  (match R.write ~dir:cli.out_dir report with
  | Ok (stamped, latest) -> Printf.printf "\nwrote %s and %s\n" stamped latest
  | Error msg ->
      prerr_endline ("bench: cannot write report: " ^ msg);
      exit 2);
  match cli.against with
  | None -> print_endline "done."
  | Some path -> (
      match R.load path with
      | Error msg ->
          prerr_endline ("bench: " ^ msg);
          exit 2
      | Ok base ->
          let v = R.diff ~base ~current:report in
          Format.printf "%a@." R.pp_verdict v;
          if not (R.verdict_ok v) then exit 1)
