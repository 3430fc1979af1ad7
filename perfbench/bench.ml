(* The mfd benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload through the library's public entry points on one
   domain, pass after pass, for S seconds, checks every output against
   a reference that does not come from the code under test, and prints
   one JSON object as its last line of standard output.  Run from the
   repository root; result files go to perfbench/out.  See README.md
   in this directory for the workloads, metrics and result files. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

(* {1 Workload inputs} *)

type reference =
  | Gates of Network.t  (** an independent gate network of the function *)
  | Spec  (** the specification BDDs, evaluated pointwise *)

type row = { name : string; build : Bdd.manager -> Driver.spec; reference : reference }

(* The ten seeded-cone stand-ins of the Table-1 catalogue, with the
   shape parameters their catalogue entries use:
   (name, inputs, outputs, catalogue seed, window, gates per output). *)
let cone_shapes =
  [
    ("apex7", 49, 37, 107, 12, 25);
    ("b9", 41, 21, 211, 11, 18);
    ("C880", 60, 26, 880, 13, 30);
    ("duke2", 22, 29, 229, 12, 30);
    ("e64", 65, 65, 640, 8, 10);
    ("misex1", 8, 7, 81, 8, 12);
    ("misex2", 25, 18, 82, 10, 14);
    ("rot", 135, 107, 135, 11, 20);
    ("sao2", 10, 4, 104, 10, 20);
    ("vg2", 25, 8, 258, 12, 22);
  ]

(* The small stand-ins another seed re-draws.  The others stay at their
   catalogue seeds: a re-drawn apex7 or duke2 takes anywhere from half
   to ten times as long, and re-drawn e64, misex2 and vg2 moved the
   decompose-k5 LUT total by up to 10% across ten seeds, which would
   swamp every end-to-end metric with input variance. *)
let redrawn = [ "misex1"; "sao2" ]

(* Seed 0 draws the catalogue's own stand-ins; any other seed re-draws
   the [redrawn] cones at the same shape. *)
let cone_row ~seed name =
  match List.find_opt (fun (n, _, _, _, _, _) -> n = name) cone_shapes with
  | None -> fail "no cone shape for %s" name
  | Some (_, ninputs, noutputs, cseed, window, gates_per_output) ->
      let e = Mcnc.find name in
      if e.Mcnc.exact || e.Mcnc.ninputs <> ninputs || e.Mcnc.noutputs <> noutputs
      then fail "cone shape of %s disagrees with the catalogue" name;
      let seed = if seed = 0 || not (List.mem name redrawn) then cseed else cseed + (seed * 7919) in
      let net = Randnet.cones ~ninputs ~noutputs ~window ~gates_per_output ~seed () in
      { name; build = (fun m -> Randnet.spec_of_network m net); reference = Gates net }

let catalogue_row name =
  let e = Mcnc.find name in
  { name; build = e.Mcnc.build; reference = Spec }

let row ~seed name =
  if List.exists (fun (n, _, _, _, _, _) -> n = name) cone_shapes then cone_row ~seed name
  else catalogue_row name

(* The Table-1 rows [decompose-k5] runs: all but rot and C880, left
   out to fit the run length (see README.md). *)
let k5_rows =
  [
    "5xp1"; "9sym"; "alu2"; "apex7"; "b9"; "C499"; "clip"; "count"; "duke2"; "e64"; "f51m";
    "misex1"; "misex2"; "rd73"; "rd84"; "sao2"; "vg2"; "z4ml";
  ]

let k2_rows ~seed =
  [
    {
      name = "adder8";
      build = (fun m -> Arith.adder m ~bits:8);
      reference = Gates (Circuits.conditional_sum_adder ~bits:8);
    };
    {
      name = "adder9";
      build = (fun m -> Arith.adder m ~bits:9);
      reference = Gates (Circuits.conditional_sum_adder ~bits:9);
    };
    {
      name = "pm4";
      build = (fun m -> Arith.partial_multiplier m ~n:4);
      reference = Gates (Circuits.wallace_partial_multiplier ~n:4);
    };
  ]
  @ List.map (row ~seed)
      [ "rd73"; "rd84"; "9sym"; "z4ml"; "5xp1"; "alu2"; "f51m"; "count"; "misex1"; "sao2" ]

(* {2 check-deep fixtures} *)

type fixture = {
  fname : string;
  blif : string;  (** path *)
  md5 : string;
  optimize : bool;
  findings : int;
  findings_md5 : string;
  exact_nodes : int;  (** nodes the exact engine covers at the step budget *)
}

type manifest = { step_budget : int; fixtures : fixture list }

(* Relative to the repository root, where the benchmark runs. *)
let fixtures_dir = "perfbench/fixtures"
let out_dir = "perfbench/out"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_manifest dir =
  let path = Filename.concat dir "MANIFEST.json" in
  let j =
    match Json.parse (read_file path) with
    | Ok j -> j
    | Error e -> fail "%s: %s" path e
    | exception Sys_error e -> fail "%s" e
  in
  let req what = function Some v -> v | None -> fail "%s: missing %s" path what in
  let fixture f =
    let str k = req k (Json.mem_str k f) in
    {
      fname = str "name";
      blif = Filename.concat dir (str "blif");
      md5 = str "md5";
      optimize = req "optimize" (Json.mem_bool "optimize" f);
      findings = req "findings" (Json.mem_int "findings" f);
      findings_md5 = str "findings_md5";
      exact_nodes = req "exact_nodes" (Json.mem_int "exact_nodes" f);
    }
  in
  {
    step_budget = req "step_budget" (Json.mem_int "step_budget" j);
    fixtures = List.map fixture (req "fixtures" (Json.mem_list "fixtures" j));
  }

(* A fixture's text; refuses one whose digest is not the manifest's. *)
let read_fixture f =
  let text = try read_file f.blif with Sys_error e -> fail "%s" e in
  if Digest.to_hex (Digest.string text) <> f.md5 then
    fail "%s: digest differs from MANIFEST.json; refusing to run on a changed fixture" f.blif;
  text

let parse_fixture f text =
  try Blif.parse text with Blif.Parse_error (l, msg) -> fail "%s:%d: %s" f.blif l msg

(* Findings in the normal form the manifest digests: one
   code/severity/location/message line per finding, sorted. *)
let findings_digest fs =
  let line (f : Diagnostic.t) =
    String.concat "\t"
      [
        f.Diagnostic.code;
        Diagnostic.severity_name f.Diagnostic.severity;
        Option.value ~default:"" f.Diagnostic.loc;
        f.Diagnostic.message;
      ]
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare (List.map line fs))))

(* {1 Per-pass accounting} *)

module Acc = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let add (t : t) k v = Hashtbl.replace t k (v +. Option.value ~default:0. (Hashtbl.find_opt t k))
  let addi t k v = add t k (float_of_int v)
  let get (t : t) k = Option.value ~default:0. (Hashtbl.find_opt t k)
  let to_list (t : t) = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])
end

type circuit = {
  cname : string;
  wall : float;
  probe : float;  (** the calibration kernel's time just before the circuit *)
  alloc : float;
  luts : int;
  clbs : int;
  depth : int;
}

type pass = {
  traced : bool;
  total_s : float;  (** sum of the timed library calls *)
  pass_wall : float;  (** the whole pass, checks included *)
  end_probe : float;  (** the calibration kernel's time after the last circuit *)
  counts : Acc.t;  (** count-type metrics; must repeat exactly *)
  gc : Gc.stat * Gc.stat;  (** quick_stat at pass start and end *)
  circuits : circuit list;
  fingerprints : string list;
}

let errors : string list ref = ref []
let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt
let ops = ref 0

(* Time and allocation of the library calls in [f], which must be
   exactly the pass's operations. *)
let timed f =
  let a0 = Gc.allocated_bytes () in
  let t0 = Mono.now () in
  let v = f () in
  let dt = Mono.now () -. t0 in
  (v, dt, Gc.allocated_bytes () -. a0)

exception Op_failed

(* One operation of a pass, [timed].  An operation that raises is an
   error; [Op_failed] then skips the rest of its circuit, so the run
   still ends with its result line. *)
let op_call circuit label f =
  incr ops;
  try timed f
  with e ->
    error "%s: %s raised %s" circuit label (Printexc.to_string e);
    raise Op_failed

let net_counts lut_size net =
  let s = Network.stats net in
  (s.Network.lut_count, Clb.clb_count ~lut_size Clb.First_fit net, s.Network.depth)

(* {1 decompose-k5 / decompose-k2} *)

let check_decomposition ~seed ~k row spec net =
  let s = Network.stats net in
  if s.Network.max_fanin > k then error "%s: a LUT has %d > %d inputs" row.name s.Network.max_fanin k;
  let vs = Sim.vectors ~seed ~random:1024 spec.Driver.input_names in
  let want =
    match row.reference with
    | Gates g -> fun b -> Sim.simulate vs g b
    | Spec ->
        let fs = List.map (fun (n, isf) -> (n, Isf.on isf)) spec.Driver.functions in
        if not (List.for_all (fun (_, isf) -> Isf.is_completely_specified isf) spec.Driver.functions)
        then error "%s: reference check needs a completely specified spec" row.name;
        fun b -> Sim.eval_bdds vs fs b
  in
  match Sim.mismatches vs ~got:(Sim.simulate vs net) ~want with
  | [] -> ()
  | bad -> error "%s: outputs %s differ from the reference" row.name (String.concat "," bad)

let stats_counts acc st =
  Acc.addi acc "score_cache.calls" st.Stats.score_calls;
  Acc.addi acc "score_cache.hits" st.Stats.score_hits;
  Acc.addi acc "score_cache.cof_fresh" st.Stats.cof_fresh;
  Acc.addi acc "score_cache.cof_extends" st.Stats.cof_extends;
  Acc.addi acc "score_cache.restricts" st.Stats.restricts;
  Acc.addi acc "score_cache.evicted" st.Stats.evicted;
  Acc.addi acc "budget.checks" st.Stats.budget_checks

let decompose_phases = [ "symmetry"; "bound-select"; "symmetry-commit" ]

let step_phases =
  [
    "step/cofactor-matrix"; "step/step2"; "step/step3"; "step/out-cof"; "step/encode";
    "step/alphas"; "step/g-construction";
  ]

let decompose_pass ~seed ~k ~verify rows =
  let acc = Acc.create () in
  let total = ref 0. and circuits = ref [] and fps = ref [] in
  List.iter
    (fun row ->
      (* Every circuit starts from a collected heap, so its GC work and
         the heap's high-water mark do not depend on the rows before; the
         calibration kernel runs in between. *)
      let probe = Calib.time () in
      let m = Bdd.manager () in
      let spec, _ = Trace.span "spec_build" row.name (fun () -> row.build m) in
      let stats = Stats.create () in
      match
        op_call row.name "Mulop.run" (fun () ->
            if !Trace.enabled then begin
              (* Exactly the calls [Mulop.run] makes for the area
                 objective, each under its own span. *)
              let cfg = Mulop.config_of ~lut_size:k Mulop.Mulop_dc in
              let r, id =
                Trace.span "decompose" row.name (fun () ->
                    Driver.decompose_report ~cfg ~stats m spec)
              in
              (* The driver's phase clock gives the children: its four
                 loop phases, and the step's own phases under "step". *)
              let phase parent p = Trace.child ~parent p row.name (Stats.phase_time stats p) in
              List.iter (fun p -> ignore (phase id p)) decompose_phases;
              let step_id = phase id "step" in
              List.iter (fun p -> ignore (phase step_id p)) step_phases;
              let net, _ = Trace.span "sweep" row.name (fun () -> Network.sweep r.Driver.network) in
              let _clbs, _ =
                Trace.span "clb" row.name (fun () -> Clb.clb_count ~lut_size:k Clb.First_fit net)
              in
              (net, r.Driver.step_count, r.Driver.shannon_count, r.Driver.alpha_count)
            end
            else
              let o = Mulop.run ~lut_size:k ~stats m Mulop.Mulop_dc spec in
              (o.Mulop.network, o.Mulop.step_count, o.Mulop.shannon_count, o.Mulop.alpha_count))
      with
      | exception Op_failed -> ()
      | (net, steps, shannon, alphas), dt, da ->
          total := !total +. dt;
          let luts, clbs, depth = net_counts k net in
          Acc.addi acc "luts" luts;
          Acc.addi acc "clbs" clbs;
          Acc.addi acc "depth" depth;
          Acc.add acc "alloc_bytes" da;
          Acc.addi acc "bdd.nodes" (Bdd.node_count m);
          Acc.addi acc "driver.steps" steps;
          Acc.addi acc "driver.shannon" shannon;
          Acc.addi acc "driver.alphas" alphas;
          Acc.addi acc "clb.pairs" (luts - clbs);
          stats_counts acc stats;
          circuits := { cname = row.name; wall = dt; probe; alloc = da; luts; clbs; depth } :: !circuits;
          fps := Sim.fingerprint net :: !fps;
          if verify then check_decomposition ~seed ~k row spec net)
    rows;
  (!total, acc, List.rev !circuits, List.rev !fps)

(* {1 check-deep} *)

(* One fixture's operations; its row and the final network's
   fingerprint. *)
let check_fixture ~verify ~step_budget acc f net =
  let name = f.fname in
  let wall = ref 0. and alloc = ref 0. in
  let op label g =
    let (v, id), dt, da = op_call name label (fun () -> Trace.span label name g) in
    wall := !wall +. dt;
    alloc := !alloc +. da;
    (v, id)
  in
  let probe = Calib.time () in
  let m = Bdd.manager () in
  let inputs = List.mapi (fun k (n, _) -> (n, k)) (Network.inputs net) in
  let var_of_input =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (n, k) -> Hashtbl.replace tbl n k) inputs;
    Hashtbl.find tbl
  in
  let structural, _ = op "net_check" (fun () -> Net_check.analyze net) in
  let check = Careflow.step_limiter ~max_steps:step_budget () in
  let report, id = op "analyze" (fun () -> Semantics.analyze_report ~check m ~var_of_input net) in
  let c = report.Semantics.coverage in
  List.iter
    (fun (tier, dur) -> ignore (Trace.child ~parent:id tier name dur))
    [
      ("dataflow", c.Semantics.wall_dataflow);
      ("careflow", c.Semantics.wall_exact);
      ("sat", c.Semantics.wall_sat);
    ];
  Acc.addi acc "bdd.nodes" (Bdd.node_count m);
  Acc.addi acc "careflow.bdd_nodes" (Bdd.node_count m);
  Acc.addi acc "careflow.exact_nodes" c.Semantics.exact_nodes;
  Acc.addi acc "window.nodes" c.Semantics.windowed_nodes;
  Acc.addi acc "window.built" c.Semantics.windows_built;
  Acc.addi acc "sat.calls" c.Semantics.sat_calls;
  Acc.addi acc "sat.conflicts" c.Semantics.sat_conflicts;
  Acc.addi acc "dataflow.iterations" c.Semantics.df_iterations;
  Acc.addi acc "dataflow.facts" c.Semantics.df_facts;
  Acc.addi acc "dataflow.screened_out" c.Semantics.screened_out;
  Acc.addi acc "truncated_nodes" c.Semantics.truncated_nodes;
  if c.Semantics.truncated_nodes > 0 then
    error "%s: %d node(s) covered by no engine" name c.Semantics.truncated_nodes;
  if c.Semantics.exact_nodes <> f.exact_nodes then
    error "%s: the exact engine covered %d node(s), expected %d" name c.Semantics.exact_nodes
      f.exact_nodes;
  let findings = structural @ report.Semantics.findings in
  if List.length findings <> f.findings || findings_digest findings <> f.findings_md5 then
    error "%s: %d finding(s), expected %d (or their digest differs)" name (List.length findings)
      f.findings;
  let final =
    if not f.optimize then net
    else begin
      let stats = Stats.create () in
      let o, _ = op "optimize" (fun () -> Optimize.run ~stats m net) in
      let cand = o.Optimize.network in
      Acc.addi acc "bdd.nodes" (Bdd.node_count m);
      Acc.addi acc "optimize.passes" o.Optimize.passes;
      Acc.addi acc "optimize.reverted" o.Optimize.reverted;
      Acc.addi acc "optimize.luts_saved" (o.Optimize.luts_before - o.Optimize.luts_after);
      Acc.addi acc "sat.calls" stats.Stats.sat_calls;
      Acc.addi acc "sat.conflicts" stats.Stats.sat_conflicts;
      Acc.addi acc "window.built" stats.Stats.windows_built;
      let bdd, _ = op "audit_bdd" (fun () -> Semantics.audit m ~inputs ~golden:net ~candidate:cand) in
      Acc.addi acc "bdd.nodes" (Bdd.node_count m);
      let sat, _ =
        op "audit_sat" (fun () ->
            Semantics.audit_sat ~golden:net ~candidate:cand (List.map fst inputs))
      in
      Acc.addi acc "audit.sat_calls" sat.Semantics.audit_sat_calls;
      Acc.addi acc "audit.sat_conflicts" sat.Semantics.audit_sat_conflicts;
      let bdd_ok = bdd = [] in
      let sat_ok =
        sat.Semantics.audit_findings = []
        && sat.Semantics.outputs_proved = List.length (Network.outputs net)
      in
      if bdd_ok <> sat_ok then error "%s: the BDD and SAT audits disagree" name
      else if not bdd_ok then error "%s: the optimized network is not equivalent" name;
      if verify then begin
        let vs = Sim.vectors ~seed:0 ~random:1024 (List.map fst inputs) in
        match Sim.mismatches vs ~got:(Sim.simulate vs cand) ~want:(Sim.simulate vs net) with
        | [] -> ()
        | bad -> error "%s: optimized outputs %s differ in simulation" name (String.concat "," bad)
      end;
      cand
    end
  in
  let (luts, clbs, depth), _ = op "clb" (fun () -> net_counts 5 final) in
  Acc.addi acc "luts" luts;
  Acc.addi acc "clbs" clbs;
  Acc.addi acc "depth" depth;
  Acc.add acc "alloc_bytes" !alloc;
  ({ cname = name; wall = !wall; probe; alloc = !alloc; luts; clbs; depth }, Sim.fingerprint final)

let check_fixture_pass ~verify manifest nets =
  let acc = Acc.create () in
  let total = ref 0. and circuits = ref [] and fps = ref [] in
  List.iter2
    (fun f net ->
      match check_fixture ~verify ~step_budget:manifest.step_budget acc f net with
      | exception Op_failed -> ()
      | c, fp ->
          total := !total +. c.wall;
          circuits := c :: !circuits;
          fps := fp :: !fps)
    manifest.fixtures nets;
  (!total, acc, List.rev !circuits, List.rev !fps)

(* {1 Statistics} *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples above it:
   [(percentile, value)], or [None] with ten samples or fewer. *)
let tail xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n <= 10 then None
  else Some (100. *. float_of_int (n - 10) /. float_of_int n, a.(n - 11))

(* {1 Driver} *)

type workload = Decompose of int | Check

let workload_of = function
  | "decompose-k5" -> Decompose 5
  | "decompose-k2" -> Decompose 2
  | "check-deep" -> Check
  | w -> fail "unknown workload %S (decompose-k5, decompose-k2, check-deep)" w

(* [setup_timer f] runs the set-up [f] once and returns a function that
   times a block of set-ups: the mean of as many as fill about
   [setup_block_s] seconds, so a set-up of a few milliseconds is not
   read off one short interval.  Every set-up starts from a collected
   heap (not timed), so the set-up's garbage cannot move
   [peak_heap_mb]. *)
let setup_block_s = 0.3

let setup_timer f =
  let once () =
    Gc.compact ();
    let t0 = Mono.now () in
    f ();
    Mono.now () -. t0
  in
  let reps = max 1 (int_of_float (Float.ceil (setup_block_s /. once ()))) in
  fun () ->
    let t = ref 0. in
    for _ = 1 to reps do
      t := !t +. once ()
    done;
    !t /. float_of_int reps

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME decompose-k5 | decompose-k2 | check-deep");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let kind = workload_of !workload in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !seconds < 1 then fail "--seconds must be at least 1";
  let traced_run = !trace = 1 in
  let setup, run_pass =
    match kind with
    | Decompose k ->
        let rows = ref [] in
        ( (fun () ->
            let rs =
              match k with 5 -> List.map (row ~seed:!seed) k5_rows | _ -> k2_rows ~seed:!seed
            in
            List.iter (fun r -> ignore (r.build (Bdd.manager ()))) rs;
            rows := rs),
          fun ~verify -> decompose_pass ~seed:!seed ~k ~verify !rows )
    | Check ->
        (* Reading and digest-checking the files is the benchmark's own
           work, done once; the set-up is [Blif.parse] alone. *)
        let manifest = load_manifest fixtures_dir in
        let texts = List.map read_fixture manifest.fixtures in
        let nets = ref [] in
        ( (fun () -> nets := List.map2 parse_fixture manifest.fixtures texts),
          fun ~verify -> check_fixture_pass ~verify manifest !nets )
  in
  let setup_block = setup_timer setup in
  let setup_samples = ref [] in
  (* Passes until the measuring time is used up, at least three.  Pass 0
     also verifies every output and warms the heap up; it is left out of
     [total_s].  A traced run alternates untraced and traced passes
     after it.  A block of set-ups follows every pass, so the blocks
     sample the whole run. *)
  let passes = ref [] in
  let peak_heap_words = ref 0 in
  let deadline = Mono.now () +. float_of_int !seconds in
  let last = ref 0. in
  while not (List.length !passes >= 3 && Mono.now () +. !last > deadline) do
    let n = List.length !passes in
    let traced = traced_run && n mod 2 = 1 in
    Trace.enabled := traced;
    Trace.pass := n;
    let g0 = Gc.quick_stat () in
    let t0 = Mono.now () in
    let total_s, counts, circuits, fingerprints = run_pass ~verify:(n = 0) in
    let pass_wall = Mono.now () -. t0 in
    let g1 = Gc.quick_stat () in
    Trace.enabled := false;
    (* The high-water mark after pass 0, before any set-up block: the
       heap's history up to here does not depend on timing. *)
    if n = 0 then peak_heap_words := g1.Gc.top_heap_words;
    let end_probe = Calib.time () in
    passes :=
      { traced; total_s; pass_wall; end_probe; counts; gc = (g0, g1); circuits; fingerprints }
      :: !passes;
    setup_samples := setup_block () :: !setup_samples;
    last := Mono.now () -. t0
  done;
  let setup_samples = List.rev !setup_samples in
  let passes = List.rev !passes in
  (* Determinism: every count and every produced network repeats. *)
  let first = List.hd passes in
  List.iteri
    (fun i p ->
      if p.fingerprints <> first.fingerprints then error "pass %d produced different networks" i;
      List.iter
        (fun (k, v) ->
          let v0 = Acc.get first.counts k in
          let same =
            if k <> "alloc_bytes" then v = v0
            else
              (* The runtime's allocation counter jitters in steps of
                 about 0.9 MB (forced minor collections), and spans
                 allocate: compare within a mode, to 1%. *)
              p.traced <> first.traced || Float.abs (v -. v0) <= 0.01 *. v0
          in
          if not same then error "pass %d: %s is %.0f, pass 0 had %.0f" i k v v0)
        (Acc.to_list p.counts))
    passes;
  let untraced = List.filter (fun p -> not p.traced) passes in
  let traced = List.filter (fun p -> p.traced) passes in
  (* Times at the calibration kernel's reference speed.  The run's
     kernel time is the mean over the passes after pass 0 of the two
     kernel runs around each circuit, weighted by the circuit's wall
     time, so that it samples the machine when the library ran.  One
     factor for the whole run: a single kernel run is too short to
     scale one circuit by. *)
  let kernel_s =
    let num = ref 0. and den = ref 0. in
    List.iter
      (fun p ->
        let rec go = function
          | [] -> ()
          | c :: rest ->
              let after = match rest with c' :: _ -> c'.probe | [] -> p.end_probe in
              num := !num +. (c.wall *. (c.probe +. after) /. 2.);
              den := !den +. c.wall;
              go rest
        in
        go p.circuits)
      (List.tl passes);
    (* No circuit completed after pass 0: the run has failed anyway. *)
    if !den > 0. then !num /. !den else Calib.reference_s
  in
  let scale = Calib.scale ~kernel_s in
  let totals ps = List.map (fun p -> scale p.total_s) ps in
  let timed = List.tl untraced in
  let c = first.counts in
  let mb b = b /. 1e6 in
  let end_to_end =
    [
      ("setup_s", scale (median setup_samples), "s");
      ("total_s", median (totals timed), "s");
      ("alloc_mb", mb (Acc.get c "alloc_bytes"), "MB");
      ("peak_heap_mb", mb (float_of_int (!peak_heap_words * (Sys.word_size / 8))), "MB");
      ("luts", Acc.get c "luts", "count");
      ("clbs", Acc.get c "clbs", "count");
      ("depth", Acc.get c "depth", "count");
      ("ops", float_of_int (!ops / List.length passes), "count");
    ]
  in
  let traced_idx =
    List.concat (List.mapi (fun i p -> if p.traced then [ i ] else []) passes)
  in
  (* Per-layer metrics: medians over the traced passes. *)
  let per_layer =
    if not traced_run then []
    else begin
      let per_pass p =
        let ss = Trace.of_pass p in
        let selfs = Trace.self_times ss in
        let self name =
          List.fold_left (fun a (s, t) -> if s.Trace.name = name then a +. t else a) 0. selfs
        in
        let sum = Trace.sum ss in
        let pass = List.nth passes p in
        let cnt k = Acc.get pass.counts k in
        let g0, g1 = pass.gc in
        let top = List.fold_left (fun a s -> if s.Trace.parent < 0 then a +. s.Trace.dur else a) 0. ss in
        let ratio a b = if b = 0. then 0. else a /. b in
        [
          ("bdd.build_s", sum "spec_build", "s");
          ("bdd.nodes", cnt "bdd.nodes", "count");
          ("bdd.nodes_per_lut", ratio (cnt "bdd.nodes") (cnt "luts"), "count");
          ("symmetry.s", sum "symmetry", "s");
          ("symmetry.commit_s", sum "symmetry-commit", "s");
          ("bound_select.s", sum "bound-select", "s");
          ("score_cache.calls", cnt "score_cache.calls", "count");
          ("score_cache.hit_rate", ratio (cnt "score_cache.hits") (cnt "score_cache.calls"), "ratio");
          ("score_cache.cof_fresh", cnt "score_cache.cof_fresh", "count");
          ("score_cache.cof_extends", cnt "score_cache.cof_extends", "count");
          ("score_cache.restricts", cnt "score_cache.restricts", "count");
          ("score_cache.evicted", cnt "score_cache.evicted", "count");
          ("step.s", sum "step", "s");
          ("step.self_s", self "step", "s");
          ("step.cofactor_matrix_s", sum "step/cofactor-matrix", "s");
          ("step.step2_s", sum "step/step2", "s");
          ("step.step3_s", sum "step/step3", "s");
          ("step.encode_s", sum "step/encode", "s");
          ("step.g_construction_s", sum "step/g-construction", "s");
          ("driver.steps", cnt "driver.steps", "count");
          ("driver.shannon", cnt "driver.shannon", "count");
          ("driver.alphas", cnt "driver.alphas", "count");
          ("driver.self_s", self "decompose", "s");
          ("budget.checks", cnt "budget.checks", "count");
          ("network.sweep_s", sum "sweep", "s");
          ("clb.s", sum "clb", "s");
          ("clb.pairs", cnt "clb.pairs", "count");
          ( "blif.parse_s",
            (match kind with Check -> scale (median setup_samples) | Decompose _ -> 0.),
            "s" );
          ("net_check.s", sum "net_check", "s");
          ("semantics.self_s", self "analyze", "s");
          ("dataflow.s", sum "dataflow", "s");
          ("dataflow.iterations", cnt "dataflow.iterations", "count");
          ("dataflow.facts", cnt "dataflow.facts", "count");
          ("dataflow.screened_out", cnt "dataflow.screened_out", "count");
          ("careflow.s", sum "careflow", "s");
          ("careflow.exact_nodes", cnt "careflow.exact_nodes", "count");
          ("careflow.bdd_nodes", cnt "careflow.bdd_nodes", "count");
          ("truncated_nodes", cnt "truncated_nodes", "count");
          ("sat.s", sum "sat", "s");
          ("window.built", cnt "window.built", "count");
          ("window.nodes", cnt "window.nodes", "count");
          ("sat.calls", cnt "sat.calls", "count");
          ("sat.conflicts", cnt "sat.conflicts", "count");
          ("sat.conflicts_per_call", ratio (cnt "sat.conflicts") (cnt "sat.calls"), "count");
          ("optimize.s", sum "optimize", "s");
          ("optimize.passes", cnt "optimize.passes", "count");
          ("optimize.reverted", cnt "optimize.reverted", "count");
          ( "optimize.accept_rate",
            ratio (cnt "optimize.passes") (cnt "optimize.passes" +. cnt "optimize.reverted"),
            "ratio" );
          ("optimize.luts_saved", cnt "optimize.luts_saved", "count");
          ("audit.bdd_s", sum "audit_bdd", "s");
          ("audit.sat_s", sum "audit_sat", "s");
          ("audit.sat_calls", cnt "audit.sat_calls", "count");
          ("audit.sat_conflicts", cnt "audit.sat_conflicts", "count");
          ("gc.minor_words", g1.Gc.minor_words -. g0.Gc.minor_words, "words");
          ("gc.promoted_words", g1.Gc.promoted_words -. g0.Gc.promoted_words, "words");
          ( "gc.minor_collections",
            float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections),
            "count" );
          ( "gc.major_collections",
            float_of_int (g1.Gc.major_collections - g0.Gc.major_collections),
            "count" );
          ( "trace.unattributed_s",
            pass.pass_wall -. top -. List.fold_left (fun a c -> a +. c.probe) 0. pass.circuits,
            "s" );
          ("trace.spans", float_of_int (List.length ss), "count");
        ]
      in
      let tables = List.map per_pass traced_idx in
      List.map
        (fun (n, _, u) ->
          let v t = List.find_map (fun (n', v, _) -> if n' = n then Some v else None) t in
          (n, median (List.filter_map v tables), u))
        (List.hd tables)
      @ [
          ("trace.total_s", median (totals traced), "s");
          ("trace.overhead_s", median (totals traced) -. median (totals timed), "s");
        ]
    end
  in
  (* Self time per span name, medians over the traced passes. *)
  let self_by_span =
    let per_pass p =
      let tbl = Acc.create () in
      List.iter (fun (s, t) -> Acc.add tbl s.Trace.name t) (Trace.self_times (Trace.of_pass p));
      tbl
    in
    let tables = List.map per_pass traced_idx in
    let names = List.sort_uniq compare (List.concat_map (fun t -> List.map fst (Acc.to_list t)) tables) in
    List.map (fun n -> (n, median (List.map (fun t -> Acc.get t n) tables))) names
  in
  let errs = List.rev !errors in
  List.iter (fun e -> prerr_endline ("bench: error: " ^ e)) errs;
  let failed = min !ops (List.length errs) in
  let attempted = !ops in
  let metric (n, v, u) = (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]) in
  let shown = if traced_run then per_layer else end_to_end in
  (* The result file: everything, for diagnosis and [compare]. *)
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let record =
    let open Json in
    let circuit c =
      Obj
        [
          ("name", Str c.cname);
          ("wall_s", Num c.wall);
          ("alloc_mb", Num (mb c.alloc));
          ("luts", int c.luts);
          ("clbs", int c.clbs);
          ("depth", int c.depth);
        ]
    in
    Obj
      [
        ("workload", Str !workload);
        ("seed", int !seed);
        ("seconds", int !seconds);
        ("trace", int !trace);
        ("correct", Bool (errs = []));
        ("attempted", int attempted);
        ("failed", int failed);
        ("errors", Arr (List.map (fun e -> Str e) errs));
        ("end_to_end", Obj (List.map metric end_to_end));
        ("per_layer", Obj (List.map metric per_layer));
        ("self_s", Obj (List.map (fun (n, v) -> (n, Num v)) self_by_span));
        ( "total_s_passes",
          Obj
            [
              ("count", int (List.length timed));
              ("median", Num (median (totals timed)));
              ( "tail",
                match tail (totals timed) with
                | Some (p, v) -> Obj [ ("percentile", Num p); ("value", Num v) ]
                | None -> Null );
              ("values", Arr (List.map (fun x -> Num x) (totals timed)));
            ] );
        ("kernel_s", Num kernel_s);
        ("setup_s_blocks", Arr (List.map (fun x -> Num x) setup_samples));
        ( "passes",
          Arr
            (List.map
               (fun p ->
                 Obj
                   [
                     ("traced", Bool p.traced);
                     ("wall_s", Num p.total_s);
                     ("circuits_s", Arr (List.map (fun c -> Num c.wall) p.circuits));
                     ( "probes_s",
                       Arr (List.map (fun c -> Num c.probe) p.circuits @ [ Num p.end_probe ]) );
                   ])
               passes) );
        ("circuits", Arr (List.map circuit first.circuits));
      ]
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644
    (Filename.concat out_dir "results.jsonl")
    (fun oc -> output_string oc (Json.to_string record ^ "\n"));
  if traced_run then
    Out_channel.with_open_text
      (Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.json" !workload !seed))
      (fun oc -> output_string oc (Json.to_string (Trace.to_json !Trace.spans)));
  List.iter (fun (n, v, u) -> Printf.printf "%-26s %14.6f %s\n" n v u) shown;
  (match tail (totals timed) with
  | Some (p, v) ->
      Printf.printf "passes: %d timed, median %.6f s, p%.0f %.6f s\n" (List.length timed)
        (median (totals timed)) p v
  | None ->
      Printf.printf "passes: %d timed, median %.6f s (too few for a tail percentile)\n"
        (List.length timed) (median (totals timed)));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (errs = []));
            ("attempted", Json.int attempted);
            ("failed", Json.int failed);
            ("metrics", Json.Obj (List.map metric shown));
          ]))
