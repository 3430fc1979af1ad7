(* mfd — multi-output functional decomposition with don't cares.

   Command-line front end: decompose builtin benchmarks or BLIF/PLA
   files into LUT networks, report LUT/CLB statistics, export BLIF or
   DOT, list the benchmark catalogue. *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let algorithm_conv =
  let parse = function
    | "mulopii" | "mulopII" -> Ok Mulop.Mulop_ii
    | "mulop-dc" | "dc" -> Ok Mulop.Mulop_dc
    | "mulop-dcii" | "mulop-dcII" | "dcii" -> Ok Mulop.Mulop_dc_ii
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  Arg.conv (parse, fun fmt a -> Format.pp_print_string fmt (Mulop.algorithm_name a))

(* The one input-error path of every command: a file that cannot be
   read or parsed, or an unknown benchmark name, becomes [Bad_input]
   carrying a message that names the file actually at fault, as
   [path:line: msg] for syntax errors. *)
exception Bad_input of string

let read parse path =
  match parse path with
  | v -> v
  | exception Sys_error msg -> raise (Bad_input msg)
  | exception (Blif.Parse_error (line, msg) | Pla.Parse_error (line, msg)) ->
      raise (Bad_input (Printf.sprintf "%s:%d: %s" path line msg))

let read_blif = read Blif.parse_file
let read_pla = read Pla.parse_file

(* Run [f]; on a bad input, or an output file that cannot be written,
   print the message on stderr and exit with [code]. *)
let exit_on_file_error ~code f =
  match f () with
  | v -> v
  | exception (Bad_input msg | Sys_error msg) ->
      prerr_endline msg;
      exit code

let load_spec m path_or_name =
  if Filename.check_suffix path_or_name ".blif" then begin
    let net = read_blif path_or_name in
    (Randnet.spec_of_network m net, Filename.basename path_or_name)
  end
  else if Filename.check_suffix path_or_name ".pla" then begin
    let pla = read_pla path_or_name in
    let isfs = Pla.to_isfs m ~var_of_column:(fun k -> k) pla in
    ( { Driver.input_names = pla.Pla.input_names; functions = isfs },
      Filename.basename path_or_name )
  end
  else begin
    match Mcnc.find path_or_name with
    | entry -> (entry.Mcnc.build m, entry.Mcnc.name)
    | exception Not_found -> (
        match List.assoc_opt path_or_name Extra.catalogue with
        | Some build -> (build m, path_or_name)
        | None ->
            raise
              (Bad_input
                 (Printf.sprintf "unknown benchmark %S (try `mfd list`)"
                    path_or_name)))
  end

let check_conv =
  let parse s =
    match Diagnostic.level_of_string s with
    | Ok l -> Ok l
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    (parse, fun fmt l -> Format.pp_print_string fmt (Diagnostic.level_name l))

let check_arg =
  Arg.(
    value
    & opt check_conv Diagnostic.Off
    & info [ "check" ] ~docv:"LEVEL"
        ~doc:
          "Assertion layer: $(b,off) (default), $(b,cheap) (bookkeeping \
           invariants: well-formed ISFs, refinement of committed don't-care \
           phases, proper clique covers, injective encodings, structural \
           soundness of the final network), $(b,full) (additionally \
           BDD-equivalence obligations: committed symmetries, step \
           composition vs specification, emitted LUT tables) or $(b,deep) \
           (additionally the semantic SDC/ODC dataflow passes over the \
           final network against the specification's care set).  Checks \
           never change the result; findings are printed after the run and \
           any $(b,Error) finding makes the command exit 1.")

(* Findings of a checked run: print them (stderr-like, but on stdout so
   they interleave with the run summary) and fail on errors. *)
let report_findings findings =
  if findings <> [] then
    Format.printf "%a@." Diagnostic.pp_list findings;
  if Diagnostic.errors findings <> [] then exit 1

let effort_conv =
  let parse s =
    match Budget.effort_of_string s with
    | Ok e -> Ok e
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt e -> Format.pp_print_string fmt (Budget.effort_name e))

let objective_conv =
  let parse s =
    match Cost.objective_of_string s with
    | Ok o -> Ok o
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    (parse, fun fmt o -> Format.pp_print_string fmt (Cost.objective_name o))

let objective_arg =
  Arg.(
    value
    & opt objective_conv Cost.Area
    & info [ "objective" ] ~docv:"OBJ"
        ~doc:
          "Mapping objective: $(b,area) (the default — the paper's \
           behaviour, unchanged), $(b,delay) (arrival-time-aware bound-set \
           scoring, critical items first) or $(b,balanced) (area scoring \
           with an arrival tie-in).  $(b,delay) and $(b,balanced) run a \
           two-pass portfolio — the objective pass raced against a plain \
           area pass — and keep the winner under the objective's own \
           order, so $(b,delay) never produces a deeper network than \
           $(b,area).")

let algorithm_arg =
  Arg.(
    value
    & opt algorithm_conv Mulop.Mulop_dc
    & info [ "a"; "algorithm" ] ~docv:"ALGO"
        ~doc:"One of $(b,mulopII), $(b,mulop-dc), $(b,mulop-dcII).")

let lut_size_arg =
  Arg.(
    value
    & opt int Config.default.Config.lut_size
    & info [ "k"; "lut-size" ] ~docv:"K" ~doc:"LUT input count (2 for gates).")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock deadline for the decomposition.  On exceedance the \
           run degrades (symmetry maximization first, then the joint \
           clique cover, finally plain Shannon/MUX emission) instead of \
           failing; a correct network is always produced.")

let node_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "node-budget" ] ~docv:"NODES"
        ~doc:
          "BDD node allowance beyond the nodes the specification itself \
           needs.  Each degradation stage is granted a fresh allowance; \
           see $(b,--timeout) for the degradation ladder.")

let effort_arg =
  Arg.(
    value
    & opt (some effort_conv) None
    & info [ "effort" ] ~docv:"LEVEL"
        ~doc:
          "Search effort: $(b,quick) shrinks the seed and merge budgets, \
           $(b,normal) is the default behaviour, $(b,thorough) enlarges \
           them.")

(* Build a fresh budget per decomposition run, wired to the same
   per-run stats instance the driver writes into. *)
let make_budget timeout node_budget effort ~stats () =
  Budget.create ?timeout ?node_budget ?effort ~stats ()

let run_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "Benchmark name (see $(b,mfd list)), a .blif file, or a .pla \
             file.")
  in
  let out_blif =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output-blif" ] ~docv:"FILE" ~doc:"Write the result as BLIF.")
  in
  let out_dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write the result as Graphviz DOT.")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Check the result against the spec.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.") in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print decomposition statistics (score-cache hit rates, \
             cofactor-vector reuse, per-phase wall time) after the run.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one machine-readable JSON object in the bench-report run \
             schema ($(b,bench_schema) 1): LUT/CLB/depth counts, wall time, \
             allocated bytes, live BDD nodes and the full statistics \
             counters — the same shape the bench harness writes into \
             $(b,BENCH_*.json).  Suppresses the text summary; file outputs \
             and exit codes are unchanged.")
  in
  let run target algorithm lut_size objective out_blif out_dot verify verbose
      stats json checks timeout node_budget effort =
    setup_logs verbose;
    let run_stats = Stats.create () in
    let m = Bdd.manager () in
    let spec, name =
      exit_on_file_error ~code:1 (fun () -> load_spec m target)
    in
    let budget = make_budget timeout node_budget effort ~stats:run_stats () in
    let outcome, wall, alloc =
      Bench_report.measure (fun () ->
          Mulop.run ~lut_size ~objective ~budget ~checks ~stats:run_stats
            m algorithm spec)
    in
    let verified =
      if verify then Some (Driver.verify m spec outcome.Mulop.network)
      else None
    in
    (match out_blif with
    | Some path -> Blif.write_file ~model:name path outcome.Mulop.network
    | None -> ());
    (match out_dot with
    | Some path ->
        let oc = open_out path in
        output_string oc (Network.to_dot outcome.Mulop.network);
        close_out oc
    | None -> ());
    if json then begin
      (* budgeted runs are wall-clock-governed, so their counters are
         not reproducible: mark them unstable for baseline diffing *)
      let r =
        {
          Bench_report.name;
          algorithm = Mulop.algorithm_name algorithm;
          stable = timeout = None && node_budget = None;
          wall;
          alloc_bytes = alloc;
          luts = Some outcome.Mulop.lut_count;
          clbs = Some outcome.Mulop.clb_count;
          depth = Some outcome.Mulop.depth;
          bdd_nodes = Some (Bdd.node_count m);
          stats = run_stats;
        }
      in
      print_endline
        (Json.to_string
           (Json.Obj
              ([
                 ("bench_schema", Json.int Bench_report.schema_version);
                 ("run", Bench_report.run_to_json r);
               ]
              @
              match verified with
              | None -> []
              | Some ok -> [ ("verified", Json.Bool ok) ])));
      if verified = Some false then exit 1;
      if Diagnostic.errors outcome.Mulop.findings <> [] then exit 1
    end
    else begin
      Format.printf "%s: %a@." name Mulop.pp_outcome outcome;
      if stats then Format.printf "%a@." Stats.pp run_stats;
      (match verified with
      | Some true ->
          Format.printf "verify: OK (network realizes the specification)@."
      | Some false ->
          Format.printf "verify: FAILED@.";
          exit 1
      | None -> ());
      report_findings outcome.Mulop.findings
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Decompose a benchmark or file into a LUT network.")
    Term.(
      const run $ target $ algorithm_arg $ lut_size_arg $ objective_arg
      $ out_blif $ out_dot $ verify $ verbose $ stats $ json $ check_arg $ timeout_arg
      $ node_budget_arg $ effort_arg)

let list_cmd =
  let list () =
    Format.printf "%-8s %5s %5s %-6s %s@." "name" "in" "out" "exact" "note";
    List.iter
      (fun e ->
        Format.printf "%-8s %5d %5d %-6b %s@." e.Mcnc.name e.Mcnc.ninputs
          e.Mcnc.noutputs e.Mcnc.exact e.Mcnc.note)
      Mcnc.catalogue;
    Format.printf "@.extra functions (not in the paper's tables):@.";
    List.iter
      (fun (name, _) -> Format.printf "  %s@." name)
      Extra.catalogue
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the builtin benchmark catalogue.")
    Term.(const list $ const ())

let compare_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET" ~doc:"Benchmark name, .blif or .pla file.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print decomposition statistics per algorithm.")
  in
  let compare target lut_size objective stats checks timeout node_budget
      effort =
    setup_logs false;
    let m = Bdd.manager () in
    let spec, name =
      exit_on_file_error ~code:1 (fun () -> load_spec m target)
    in
    Format.printf "%s (lut size %d%s):@." name lut_size
      (match objective with
      | Cost.Area -> ""
      | o -> ", objective " ^ Cost.objective_name o);
    let all_findings = ref [] in
    List.iter
      (fun alg ->
        let run_stats = Stats.create () in
        let budget =
          make_budget timeout node_budget effort ~stats:run_stats ()
        in
        let o =
          Mulop.run ~lut_size ~objective ~budget ~checks ~stats:run_stats
            m alg spec
        in
        Format.printf "  %a@." Mulop.pp_outcome o;
        if stats then Format.printf "  %a@." Stats.pp run_stats;
        if o.Mulop.findings <> [] then
          Format.printf "  %a@." Diagnostic.pp_list o.Mulop.findings;
        all_findings := !all_findings @ o.Mulop.findings)
      [ Mulop.Mulop_ii; Mulop.Mulop_dc; Mulop.Mulop_dc_ii ];
    if Diagnostic.errors !all_findings <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run all three algorithms on one target and compare counts.")
    Term.(
      const compare $ target $ lut_size_arg $ objective_arg $ stats $ check_arg
      $ timeout_arg $ node_budget_arg $ effort_arg)

let batch_cmd =
  let targets =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"TARGETS"
          ~doc:
            "Benchmark names, .blif files or .pla files — one decomposition \
             job each.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains.  Each job runs on its own BDD manager, budget \
             and stats, so results are identical for any $(docv); the pool \
             is clamped to the job count.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the report as one JSON object instead of a table.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Re-check every produced network against its specification.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Append each job's statistics block to the table.")
  in
  let batch targets jobs algorithm lut_size objective json verify stats
      checks timeout node_budget effort =
    setup_logs false;
    let job_of target =
      let name =
        if
          Filename.check_suffix target ".blif"
          || Filename.check_suffix target ".pla"
        then Filename.basename target
        else target
      in
      (* A bad input is the client's error, not an engine fault: the
         report files it under its own kind. *)
      Batch.job ~name (fun m ->
          match load_spec m target with
          | spec, _ -> spec
          | exception Bad_input msg ->
              raise (Batch.Job_rejected (Batch.Parse_error, msg)))
    in
    let report =
      Batch.run ~jobs ~lut_size ~objective ~algorithm ?timeout ?node_budget
        ?effort ~checks ~verify
        (List.map job_of targets)
    in
    if json then print_endline (Batch.to_json report)
    else Format.printf "%a@." (Batch.pp_text ~stats) report;
    let verify_failed =
      List.exists
        (fun r ->
          match r.Batch.outcome with
          | Ok s -> s.Batch.verified = Some false
          | Error _ -> false)
        report.Batch.results
    in
    if
      Batch.failures report <> []
      || Batch.error_findings report <> []
      || verify_failed
    then exit 1
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Decompose many targets with a pool of worker domains and print an \
          aggregate report."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Each target is one job: it gets its own BDD manager, a fresh \
              budget ($(b,--timeout) and $(b,--node-budget) are per job) and \
              its own statistics, so jobs never share mutable state and the \
              report is independent of $(b,--jobs).  A job that fails — \
              unknown benchmark, parse error, internal invariant violation — \
              is reported as a FAILED row; the rest of the batch completes.";
           `S Manpage.s_exit_status;
           `P "$(b,0) when every job succeeded (and verified, with \
               $(b,--verify));";
           `P "$(b,1) when any job failed, any Error-level finding was \
               raised, or verification failed.";
         ])
    Term.(
      const batch $ targets $ jobs $ algorithm_arg $ lut_size_arg
      $ objective_arg $ json $ verify $ stats $ check_arg $ timeout_arg
      $ node_budget_arg $ effort_arg)

let lint_cmd =
  let target =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "A $(b,.blif) file (network structure passes) or a $(b,.pla) \
             file (two-level hygiene passes).  May be omitted with \
             $(b,--codes).")
  in
  let lut_size =
    Arg.(
      value
      & opt (some int) None
      & info [ "k"; "lut-size" ] ~docv:"K"
          ~doc:
            "Arm the NET005 width pass: report LUTs with more than $(docv) \
             inputs.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit findings as a JSON array instead of text.")
  in
  let codes =
    Arg.(
      value & flag
      & info [ "codes" ]
          ~doc:"List every diagnostic code with severity and description.")
  in
  let no_style =
    Arg.(
      value & flag
      & info [ "no-style" ]
          ~doc:
            "Only run the structural (Error-level) passes; skip dead-LUT, \
             duplicate-LUT and degenerate-table warnings.")
  in
  let deep =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Additionally run the semantic SDC/ODC dataflow passes \
             ($(b,SEM*) codes) over a $(b,.blif) network: unreachable LUT \
             rows, functionally dead or constant nodes, semantic \
             duplicates, identical outputs, unexploited don't cares.  \
             Builds global BDDs, so it costs real time on large networks; \
             a built-in budget truncates the analysis (SEM008) rather \
             than hanging.  Requires the structural passes to be clean.  \
             Ignored for $(b,.pla) files.")
  in
  let sem_nodes =
    Arg.(
      value
      & opt int 4_000_000
      & info [ "sem-nodes" ] ~docv:"N"
          ~doc:
            "BDD-node budget for the exact semantic engine under \
             $(b,--deep).  When the exact analysis exceeds it, the \
             windowed SAT engine finishes the remaining nodes.")
  in
  let sem_timeout =
    Arg.(
      value
      & opt float 30.0
      & info [ "sem-timeout" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget for the exact semantic engine under \
                $(b,--deep).")
  in
  let sem_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "sem-steps" ] ~docv:"N"
          ~doc:
            "Replace the BDD-node/wall-clock budget of the exact engine \
             under $(b,--deep) with a deterministic budget of $(docv) \
             polls.  Two runs with the same $(docv) truncate at the same \
             node regardless of machine speed or screening mode, which \
             makes reports reproducible and comparable.")
  in
  let lint target lut_size json codes no_style deep sem_nodes sem_timeout
      sem_steps =
    setup_logs false;
    if codes then begin
      List.iter
        (fun (fam, entries) ->
          Format.printf "%s@." fam;
          List.iter
            (fun (code, sev, doc) ->
              Format.printf "  %-8s %-8s %s@." code
                (Diagnostic.severity_name sev) doc)
            entries)
        Diagnostic.families;
      exit 0
    end;
    let target =
      match target with
      | Some t -> t
      | None ->
          Printf.eprintf "mfd lint: a FILE argument is required (or --codes)\n";
          exit 3
    in
    let style = not no_style in
    let analyze () =
      if Filename.check_suffix target ".blif" then begin
        let net = read_blif target in
        let structural = Net_check.analyze ?lut_size ~style net in
        if deep && Diagnostic.errors structural = [] then begin
          (* The semantic passes need a traversable network and global
             BDDs; a generous default budget keeps the command
             interactive on pathological inputs, and the windowed SAT
             fallback covers what the exact engine's budget cannot. *)
          let m = Bdd.manager () in
          let var_of_input =
            let tbl = Hashtbl.create 16 in
            List.iteri (fun k (name, _) -> Hashtbl.add tbl name k) (Network.inputs net);
            fun name -> Hashtbl.find tbl name
          in
          let check =
            match sem_steps with
            | Some n -> Careflow.step_limiter ~max_steps:n ()
            | None ->
                Careflow.limiter ~max_nodes:sem_nodes ~timeout:sem_timeout m ()
          in
          let report = Semantics.analyze_report ~check m ~var_of_input net in
          (structural @ report.Semantics.findings, Some report.Semantics.coverage)
        end
        else (structural, None)
      end
      else if Filename.check_suffix target ".pla" then
        let pla = read_pla target in
        (Pla_check.analyze (Bdd.manager ()) pla, None)
      else begin
        Printf.eprintf "mfd lint: %s: expected a .blif or .pla file\n" target;
        exit 3
      end
    in
    let findings, coverage = exit_on_file_error ~code:3 analyze in
    (* Analyzer coverage rides along so a script can tell a clean
       report from a mostly-skipped one. *)
    let extra =
      match coverage with
      | None -> []
      | Some c ->
          [
            ( "coverage",
              Json.Obj
                [
                  ("exact_nodes", Json.int c.Semantics.exact_nodes);
                  ("windowed_nodes", Json.int c.Semantics.windowed_nodes);
                  ("truncated_nodes", Json.int c.Semantics.truncated_nodes);
                  ("total_nodes", Json.int c.Semantics.total_nodes);
                  ("sat_calls", Json.int c.Semantics.sat_calls);
                  ("sat_conflicts", Json.int c.Semantics.sat_conflicts);
                  ("windows_built", Json.int c.Semantics.windows_built);
                  ( "dataflow",
                    Json.Obj
                      [
                        ("nodes", Json.int c.Semantics.dataflow_nodes);
                        ("iterations", Json.int c.Semantics.df_iterations);
                        ("facts", Json.int c.Semantics.df_facts);
                        ("screened_out", Json.int c.Semantics.screened_out);
                      ] );
                  ( "wall",
                    Json.Obj
                      [
                        ("dataflow", Json.Num c.Semantics.wall_dataflow);
                        ("exact", Json.Num c.Semantics.wall_exact);
                        ("sat", Json.Num c.Semantics.wall_sat);
                      ] );
                ] );
          ]
    in
    if json then print_endline (Diagnostic.to_json ~extra findings)
    else begin
      Format.printf "%a@." Diagnostic.pp_list findings;
      match coverage with
      | Some c ->
          Format.printf
            "analyzer coverage: %d/%d node(s) exact, %d via windows, %d \
             truncated@."
            c.Semantics.exact_nodes c.Semantics.total_nodes
            c.Semantics.windowed_nodes c.Semantics.truncated_nodes;
          Format.printf
            "dataflow tier: %d fact(s) over %d node(s) in %d \
             iteration(s), %d work unit(s) screened@."
            c.Semantics.df_facts c.Semantics.dataflow_nodes
            c.Semantics.df_iterations c.Semantics.screened_out
      | None -> ()
    end;
    exit (Diagnostic.exit_code findings)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis passes over a BLIF network or a PLA file."
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "$(b,0) on a clean file (or Info-level findings only);";
           `P "$(b,1) when any Error-level finding is present;";
           `P "$(b,2) when Warnings but no Errors are present;";
           `P "$(b,3) on parse or I/O failure.";
         ])
    Term.(
      const lint $ target $ lut_size $ json $ codes $ no_style $ deep
      $ sem_nodes $ sem_timeout $ sem_steps)

let audit_cmd =
  let golden =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"GOLDEN" ~doc:"Reference network ($(b,.blif)).")
  in
  let candidate =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CANDIDATE" ~doc:"Network under audit ($(b,.blif)).")
  in
  let pla =
    Arg.(
      value
      & opt (some string) None
      & info [ "pla" ] ~docv:"SPEC"
          ~doc:
            "A $(b,.pla) specification whose don't-care plane defines the \
             care set: the networks only have to agree where $(docv) \
             cares.  Without it every minterm is cared for (plain \
             combinational equivalence).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit findings as JSON instead of text.")
  in
  let engine =
    Arg.(
      value
      & opt (enum [ ("bdd", `Bdd); ("sat", `Sat) ]) `Bdd
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Proof engine: $(b,bdd) (default) builds global BDDs over a \
             shared input space; $(b,sat) Tseitin-encodes both networks \
             into one CNF and solves a gated miter per output with the \
             CDCL solver — no global BDDs, so it scales where the BDD \
             engine blows up, and a per-output conflict budget turns \
             blow-up into an explicit $(b,SEM008) unknown instead of a \
             hang.  With $(b,--pla), the SAT engine supports $(b,.type f) \
             and $(b,fd) specifications (don't-care rows become blocked \
             cubes); use the BDD engine for $(b,fr)/$(b,fdr).")
  in
  let audit golden candidate pla json engine =
    setup_logs false;
    let m = Bdd.manager () in
    let run () =
      let g_net = read_blif golden in
      let c_net = read_blif candidate in
      (* Both networks must be structurally sound before their global
         functions can be built. *)
      List.iter
        (fun (path, net) ->
          let errors = Diagnostic.errors (Net_check.analyze ~style:false net) in
          if errors <> [] then begin
            Printf.eprintf "mfd audit: %s is structurally broken:\n" path;
            Format.eprintf "%a@." Diagnostic.pp_list errors;
            exit 3
          end)
        [ (golden, g_net); (candidate, c_net) ];
      (* One common variable space: the union of the input names of both
         networks (and of the specification, if given). *)
      let var_tbl = Hashtbl.create 16 in
      let inputs = ref [] in
      let bind name =
        if not (Hashtbl.mem var_tbl name) then begin
          let v = Hashtbl.length var_tbl in
          Hashtbl.add var_tbl name v;
          inputs := (name, v) :: !inputs
        end
      in
      List.iter (fun (name, _) -> bind name) (Network.inputs g_net);
      List.iter (fun (name, _) -> bind name) (Network.inputs c_net);
      let common_outputs =
        List.filter
          (fun (name, _) -> List.mem_assoc name (Network.outputs c_net))
          (Network.outputs g_net)
      in
      let union_outputs =
        List.length (Network.outputs g_net)
        + List.length (Network.outputs c_net)
        - List.length common_outputs
      in
      let findings, coverage =
        match engine with
        | `Bdd ->
            let care_of_output =
              match pla with
              | None -> None
              | Some path ->
                  let p = read_pla path in
                  List.iter bind p.Pla.input_names;
                  let cols = Array.of_list p.Pla.input_names in
                  let isfs =
                    Pla.to_isfs m
                      ~var_of_column:(fun k -> Hashtbl.find var_tbl cols.(k))
                      p
                  in
                  Some
                    (fun name ->
                      match List.assoc_opt name isfs with
                      | Some isf -> Isf.care m isf
                      | None -> Bdd.one m)
            in
            let findings =
              Semantics.audit ?care_of_output m ~inputs:(List.rev !inputs)
                ~golden:g_net ~candidate:c_net
            in
            let missing = union_outputs - List.length common_outputs in
            let refuted = List.length findings - missing in
            ( findings,
              Json.Obj
                [
                  ("engine", Json.Str "bdd");
                  ("outputs_checked", Json.int union_outputs);
                  ( "outputs_proved",
                    Json.int (List.length common_outputs - refuted) );
                  ("outputs_refuted", Json.int refuted);
                  ("outputs_unknown", Json.int 0);
                  ("outputs_missing", Json.int missing);
                ] )
        | `Sat ->
            let dc_cubes_of_output =
              match pla with
              | None -> None
              | Some path ->
                  let p = read_pla path in
                  (match p.Pla.kind with
                  | `F | `Fd -> ()
                  | `Fr | `Fdr ->
                      Printf.eprintf
                        "mfd audit: --engine sat supports .type f/fd \
                         specifications only (the dc-set of %s is not a cube \
                         list); use --engine bdd\n"
                        path;
                      exit 3);
                  let names = Array.of_list p.Pla.input_names in
                  let outs = Array.of_list p.Pla.output_names in
                  let cubes = Array.make (Array.length outs) [] in
                  List.iter
                    (fun (cube, out_plane) ->
                      Array.iteri
                        (fun j ch ->
                          if ch = '-' then
                            let lits =
                              List.filter_map Fun.id
                                (Array.to_list
                                   (Array.mapi
                                      (fun k lit ->
                                        match lit with
                                        | Cover.L0 -> Some (names.(k), false)
                                        | Cover.L1 -> Some (names.(k), true)
                                        | Cover.Ldash -> None)
                                      cube))
                            in
                            cubes.(j) <- lits :: cubes.(j))
                        out_plane)
                    p.Pla.rows;
                  let table = Hashtbl.create 8 in
                  Array.iteri
                    (fun j name -> Hashtbl.replace table name (List.rev cubes.(j)))
                    outs;
                  Some
                    (fun name ->
                      Option.value ~default:[] (Hashtbl.find_opt table name))
            in
            let a =
              Semantics.audit_sat ?dc_cubes_of_output ~golden:g_net
                ~candidate:c_net
                (List.rev_map fst !inputs)
            in
            ( a.Semantics.audit_findings,
              Json.Obj
                [
                  ("engine", Json.Str "sat");
                  ("outputs_checked", Json.int union_outputs);
                  ("outputs_proved", Json.int a.Semantics.outputs_proved);
                  ("outputs_refuted", Json.int a.Semantics.outputs_refuted);
                  ("outputs_unknown", Json.int a.Semantics.outputs_unknown);
                  ( "outputs_missing",
                    Json.int (union_outputs - List.length common_outputs) );
                  ("sat_calls", Json.int a.Semantics.audit_sat_calls);
                  ("sat_conflicts", Json.int a.Semantics.audit_sat_conflicts);
                ] )
      in
      if json then
        print_endline
          (Diagnostic.to_json ~extra:[ ("coverage", coverage) ] findings)
      else if findings = [] then
        Format.printf "equivalent%s@."
          (if pla = None then "" else " modulo the specification's don't cares")
      else Format.printf "%a@." Diagnostic.pp_list findings;
      exit (if findings = [] then 0 else 1)
    in
    exit_on_file_error ~code:3 run
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Prove two BLIF networks equivalent, modulo a specification's \
          don't-care set."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Builds the global BDDs of both networks over a shared input \
              space and checks every output pair for equality wherever the \
              specification cares.  With $(b,--pla), the don't-care plane \
              of the PLA defines the care set per output — the audit \
              accepts any network that realizes an extension of the \
              incompletely specified function, which is exactly the \
              contract of the decomposition engine.  Each disagreement is \
              reported as a SEM007 finding with a counterexample minterm.  \
              $(b,--engine sat) proves the same obligations with the CDCL \
              solver on a per-output miter instead of global BDDs.";
           `S Manpage.s_exit_status;
           `P "$(b,0) when the networks are equivalent modulo the care set;";
           `P "$(b,1) when any output disagrees inside the care set, is \
               missing on either side, or (SAT engine) the solver budget \
               left a verdict unknown;";
           `P "$(b,3) on parse or I/O failure, or a structurally broken \
               input network.";
         ])
    Term.(const audit $ golden $ candidate $ pla $ json $ engine)

let optimize_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"The network to optimize ($(b,.blif)).")
  in
  let pla =
    Arg.(
      value
      & opt (some string) None
      & info [ "pla" ] ~docv:"SPEC"
          ~doc:
            "A $(b,.pla) specification whose don't-care plane defines the \
             care set: rewrites may change output functions outside it, \
             and the guarding audit only demands agreement inside it.  \
             Without it every minterm is cared for.")
  in
  let out_blif =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output-blif" ] ~docv:"FILE"
          ~doc:"Write the optimized network as BLIF.")
  in
  let passes =
    Arg.(
      value & opt int 4
      & info [ "passes" ] ~docv:"N"
          ~doc:"Maximum analyze/rewrite/audit iterations.")
  in
  let engine =
    Arg.(
      value
      & opt (enum [ ("bdd", `Bdd); ("sat", `Sat) ]) `Bdd
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Audit engine guarding each rewrite pass: $(b,bdd) (default) \
             is the care-set-aware BDD audit; $(b,sat) uses the CDCL \
             miter — stricter (it ignores $(b,--pla) and demands full \
             equivalence) but immune to BDD blow-up on big networks.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one machine-readable JSON object instead of the summary.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print analysis statistics (SAT calls, windows) after the run.")
  in
  let optimize target pla out_blif passes engine json stats =
    setup_logs false;
    let m = Bdd.manager () in
    let run () =
      let net = read_blif target in
      let errors = Diagnostic.errors (Net_check.analyze ~style:false net) in
      if errors <> [] then begin
        Printf.eprintf "mfd optimize: %s is structurally broken:\n" target;
        Format.eprintf "%a@." Diagnostic.pp_list errors;
        exit 3
      end;
      (* The care set must live in the optimizer's input variable space:
         input [k] of the network is BDD variable [k]. *)
      let care_of_output =
        match pla with
        | None -> None
        | Some path ->
            let p = read_pla path in
            let index_of =
              let tbl = Hashtbl.create 16 in
              List.iteri
                (fun k (name, _) -> Hashtbl.replace tbl name k)
                (Network.inputs net);
              tbl
            in
            let cols = Array.of_list p.Pla.input_names in
            Array.iter
              (fun name ->
                if not (Hashtbl.mem index_of name) then begin
                  Printf.eprintf
                    "mfd optimize: specification input %s is not an input of \
                     %s\n"
                    name target;
                  exit 3
                end)
              cols;
            let isfs =
              Pla.to_isfs m
                ~var_of_column:(fun k -> Hashtbl.find index_of cols.(k))
                p
            in
            Some
              (fun name ->
                match List.assoc_opt name isfs with
                | Some isf -> Isf.care m isf
                | None -> Bdd.one m)
      in
      let run_stats = Stats.create () in
      let o =
        Optimize.run ?care_of_output ~max_passes:passes ~audit_engine:engine
          ~stats:run_stats m net
      in
      (match out_blif with
      | Some path ->
          Blif.write_file
            ~model:(Filename.remove_extension (Filename.basename target))
            path o.Optimize.network
      | None -> ());
      if json then begin
        let action a =
          Json.Obj
            [
              ("rule", Json.Str (Optimize.rule_name a.Optimize.rule));
              ("node", Json.Str a.Optimize.node);
              ("detail", Json.Str a.Optimize.detail);
            ]
        in
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("file", Json.Str target);
                  ("luts_before", Json.int o.Optimize.luts_before);
                  ("luts_after", Json.int o.Optimize.luts_after);
                  ("clbs_before", Json.int o.Optimize.clbs_before);
                  ("clbs_after", Json.int o.Optimize.clbs_after);
                  ("passes", Json.int o.Optimize.passes);
                  ("reverted", Json.int o.Optimize.reverted);
                  ("actions", Json.Arr (List.map action o.Optimize.actions));
                  ("equivalent", Json.Bool (o.Optimize.audit = []));
                  ( "findings",
                    Json.Arr (List.map Diagnostic.finding_json o.Optimize.audit)
                  );
                ]))
      end
      else begin
        Format.printf
          "%s: luts %d -> %d, clbs %d -> %d (%d pass%s, %d rewrite%s%s)@."
          (Filename.basename target) o.Optimize.luts_before
          o.Optimize.luts_after o.Optimize.clbs_before o.Optimize.clbs_after
          o.Optimize.passes
          (if o.Optimize.passes = 1 then "" else "es")
          (List.length o.Optimize.actions)
          (if List.length o.Optimize.actions = 1 then "" else "s")
          (if o.Optimize.reverted = 0 then ""
           else Printf.sprintf ", %d reverted" o.Optimize.reverted);
        List.iter
          (fun a ->
            Format.printf "  %-16s %s: %s@."
              (Optimize.rule_name a.Optimize.rule)
              a.Optimize.node a.Optimize.detail)
          o.Optimize.actions;
        if o.Optimize.audit = [] then
          Format.printf "audit: equivalent%s@."
            (if pla = None || engine = `Sat then ""
             else " modulo the specification's don't cares")
        else Format.printf "%a@." Diagnostic.pp_list o.Optimize.audit;
        if stats then Format.printf "%a@." Stats.pp run_stats
      end;
      exit (if o.Optimize.audit = [] then 0 else 1)
    in
    exit_on_file_error ~code:3 run
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Rewrite a LUT network with its computed don't cares, under an \
          equivalence audit."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "The rewrite loop behind the $(b,SEM*) lint findings: each \
              pass analyzes the network (exact SDC/ODC dataflow with the \
              windowed SAT fallback), folds constant and dead nodes \
              (SEM002/SEM003), merges semantic duplicates and twin LUTs \
              (SEM004/SEM006), repoints identical outputs (SEM005) and \
              refills don't-care table rows to drop redundant fanins — \
              then audits the candidate against the original input and \
              keeps it only when the audit proves equivalence on the care \
              set.  A rejected candidate is retried with only the \
              composition-safe subset of rewrites before the loop stops.";
           `S Manpage.s_exit_status;
           `P "$(b,0) on success — the output is provably equivalent;";
           `P "$(b,1) when the final audit reports findings (not expected: \
               failing candidates are reverted, never kept);";
           `P "$(b,3) on parse or I/O failure, or a structurally broken \
               input network.";
         ])
    Term.(
      const optimize $ target $ pla $ out_blif $ passes $ engine $ json $ stats)

let () =
  let doc = "multi-output functional decomposition with don't cares" in
  let info = Cmd.info "mfd" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            list_cmd;
            compare_cmd;
            batch_cmd;
            lint_cmd;
            audit_cmd;
            optimize_cmd;
          ]))
