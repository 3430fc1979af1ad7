(* The SEM passes: semantic lint over the Careflow SDC/ODC dataflow,
   with a windowed SAT fallback for the nodes the exact dataflow's
   budget could not reach.  All iteration is over lists/arrays in
   topological order, never over hashtable order, so reports are
   deterministic run to run. *)

let rows_blurb rows total =
  let shown = List.filteri (fun i _ -> i < 8) rows in
  Printf.sprintf "%s%s of %d"
    (String.concat ","
       (List.map (fun c -> string_of_int c) shown))
    (if List.length rows > List.length shown then ",..." else "")
    total

let of_flow m net flow =
  let name_of = Net_check.namer net in
  let findings = ref [] in
  let add ?loc code msg = findings := Diagnostic.make ?loc code msg :: !findings in
  let no_care = Bdd.is_zero flow.Careflow.care_any in
  (* A table bit is free when no cared-for input vector both reaches its
     row and observes the node: flipping it can never change a cared-for
     output. *)
  let free info c =
    Bdd.disjoint m info.Careflow.code_sets.(c) info.Careflow.observable
  in
  List.iter
    (fun info ->
      let loc = name_of info.Careflow.signal in
      let nrows = Array.length info.Careflow.code_sets in
      (* SEM001: unreachable table rows (satisfiability don't cares).
         With an empty care space every row is vacuously unreachable;
         reporting that would just restate the degenerate care set. *)
      let sdc_rows =
        List.filter
          (fun c -> Bdd.is_zero info.Careflow.code_sets.(c))
          (List.init nrows Fun.id)
      in
      if sdc_rows <> [] && nrows > 1 && not no_care then
        add ~loc "SEM001"
          (Printf.sprintf
             "table row%s %s unreachable from the primary inputs"
             (if List.length sdc_rows > 1 then "s" else "")
             (rows_blurb sdc_rows nrows));
      (* SEM002: functionally dead (ODC covers the whole care space) *)
      if Bdd.is_zero info.Careflow.observable && not no_care then
        add ~loc "SEM002"
          "complementing this node never changes any cared-for output";
      (* SEM003: constant on the care set (NET008 only sees the table) *)
      if not no_care then begin
        let g = info.Careflow.global in
        if Bdd.equal_on m ~care:flow.Careflow.care_any g (Bdd.zero m) then
          add ~loc "SEM003" "computes constant 0 on the care set"
        else if Bdd.equal_on m ~care:flow.Careflow.care_any g (Bdd.one m) then
          add ~loc "SEM003" "computes constant 1 on the care set"
      end)
    flow.Careflow.nodes;
  (* SEM004: functional duplicates up to fanin permutation/complement.
     Constant-on-care nodes are excluded (SEM003 already owns them).
     Collected, not emitted: a pair that is also an in-place mergeable
     twin (SEM006) must fold into one finding noting both codes. *)
  let pair_key a b =
    let ia = Network.signal_id a.Careflow.signal
    and ib = Network.signal_id b.Careflow.signal in
    (min ia ib, max ia ib)
  in
  let dups = ref [] in
  if not no_care then begin
    let care = flow.Careflow.care_any in
    let interesting =
      List.filter
        (fun info ->
          let g = info.Careflow.global in
          (not (Bdd.equal_on m ~care g (Bdd.zero m)))
          && not (Bdd.equal_on m ~care g (Bdd.one m)))
        flow.Careflow.nodes
    in
    let rec scan = function
      | [] -> ()
      | info :: rest ->
          (match
             List.find_opt
               (fun prev ->
                 Bdd.equal_on m ~care prev.Careflow.global info.Careflow.global
                 || Bdd.equal_on m ~care
                      (Bdd.not_ m prev.Careflow.global)
                      info.Careflow.global)
               (List.filter
                  (fun prev ->
                    Network.signal_id prev.Careflow.signal
                    < Network.signal_id info.Careflow.signal)
                  interesting)
           with
          | Some prev ->
              let complemented =
                not
                  (Bdd.equal_on m ~care prev.Careflow.global
                     info.Careflow.global)
              in
              dups :=
                ( pair_key prev info,
                  name_of info.Careflow.signal,
                  Printf.sprintf
                    "computes the same function as LUT %s on the care set%s"
                    (name_of prev.Careflow.signal)
                    (if complemented then " (complemented)" else "") )
                :: !dups
          | None -> ());
          scan rest
    in
    scan interesting
  end;
  (* SEM006 candidates: mergeable twins — same fanin set, tables
     differing only in free bits that were fixed inconsistently.
     Grouping uses the same canonical form as the structural NET007
     pass.  Every bit is trivially free on an empty care space, so the
     pass needs one.  Also collected before emission, for the same
     SEM004 dedup reason. *)
  let twins = ref [] in
  let groups = Hashtbl.create 16 in
  let group_keys = ref [] in
  if not no_care then
  List.iter
    (fun info ->
      match Network.view net info.Careflow.signal with
      | `Input _ | `Const _ -> ()
      | `Lut (fanins, tt) ->
          let sorted, ctt, remap = Net_check.canonical_lut fanins tt in
          let key =
            String.concat ","
              (Array.to_list
                 (Array.map
                    (fun f -> string_of_int (Network.signal_id f))
                    sorted))
          in
          if not (Hashtbl.mem groups key) then group_keys := key :: !group_keys;
          Hashtbl.add groups key (info, ctt, remap))
    flow.Careflow.nodes;
  List.iter
    (fun key ->
      match List.rev (Hashtbl.find_all groups key) with
      | [] | [ _ ] -> ()
      | members ->
          let rec pairs = function
            | [] -> ()
            | (a, att, ra) :: rest ->
                List.iter
                  (fun (b, btt, rb) ->
                    let nrows = 1 lsl Bv.nvars att in
                    let differing =
                      List.filter
                        (fun c -> Bv.get att c <> Bv.get btt c)
                        (List.init nrows Fun.id)
                    in
                    if
                      differing <> []
                      && List.for_all
                           (fun c -> free a (ra c) || free b (rb c))
                           differing
                    then
                      twins :=
                        ( pair_key a b,
                          name_of b.Careflow.signal,
                          Printf.sprintf
                            "row%s %s differ from LUT %s only in free \
                             don't-care bits; assigning them alike would \
                             merge the LUTs"
                            (if List.length differing > 1 then "s" else "")
                            (rows_blurb differing nrows)
                            (name_of a.Careflow.signal),
                          rows_blurb differing nrows )
                        :: !twins)
                  rest;
                pairs rest
          in
          pairs members)
    (List.rev !group_keys);
  let dups = List.rev !dups and twins = List.rev !twins in
  (* emit SEM004, folding in the SEM006 evidence for the same pair *)
  List.iter
    (fun (key, loc, msg) ->
      match List.find_opt (fun (k, _, _, _) -> k = key) twins with
      | Some (_, _, _, blurb) ->
          add ~loc "SEM004"
            (Printf.sprintf
               "%s; rows %s also differ only in free don't-care bits, so the \
                pair is mergeable in place (SEM006)"
               msg blurb)
      | None -> add ~loc "SEM004" msg)
    dups;
  (* SEM005: identical primary outputs (on the union of their cares) *)
  let rec out_pairs = function
    | [] -> ()
    | (name, g) :: rest ->
        List.iter
          (fun (name', g') ->
            let care =
              Bdd.or_ m
                (List.assoc name flow.Careflow.cares)
                (List.assoc name' flow.Careflow.cares)
            in
            if (not (Bdd.is_zero care)) && Bdd.equal_on m ~care g g' then
              add ~loc:name' "SEM005"
                (Printf.sprintf
                   "provably identical to output %s on the care set" name))
          rest;
        out_pairs rest
  in
  out_pairs flow.Careflow.outputs;
  (* emit the SEM006 findings not folded into a SEM004 above *)
  List.iter
    (fun (key, loc, msg, _) ->
      if not (List.exists (fun (k, _, _) -> k = key) dups) then
        add ~loc "SEM006" msg)
    twins;
  List.rev !findings

(* The windowed pass half: findings a window result alone justifies.
   Window leaves are free, so window-unreachable rows are globally
   unreachable; window roots cut every path out, so a window-empty care
   set means a globally dead node; a table constant across the
   window-reachable rows is constant everywhere reachable. *)
let of_windowed net results =
  let name_of = Net_check.namer net in
  let findings = ref [] in
  let add ?loc code msg = findings := Diagnostic.make ?loc code msg :: !findings in
  List.iter
    (fun r ->
      let loc = name_of r.Complete_dc.signal in
      let k = Bv.nvars r.Complete_dc.care in
      let nrows = 1 lsl k in
      let sdc_rows =
        List.filter
          (fun c -> not (Bv.get r.Complete_dc.reachable c))
          (List.init nrows Fun.id)
      in
      if sdc_rows <> [] && nrows > 1 then
        add ~loc "SEM001"
          (Printf.sprintf
             "table row%s %s unreachable from the primary inputs (window \
              analysis)"
             (if List.length sdc_rows > 1 then "s" else "")
             (rows_blurb sdc_rows nrows));
      if Bv.is_zero r.Complete_dc.care then
        add ~loc "SEM002"
          "complementing this node never changes any cared-for output \
           (window analysis)";
      if nrows > 1 then begin
        match Network.view net r.Complete_dc.signal with
        | `Input _ | `Const _ -> ()
        | `Lut (_, tt) -> (
            let reachable_vals =
              List.filter_map
                (fun c ->
                  if Bv.get r.Complete_dc.reachable c then Some (Bv.get tt c)
                  else None)
                (List.init nrows Fun.id)
            in
            match reachable_vals with
            | [] -> ()
            | v :: rest when List.for_all (fun x -> x = v) rest ->
                add ~loc "SEM003"
                  (Printf.sprintf
                     "computes constant %d on the care set (window analysis)"
                     (if v then 1 else 0))
            | _ -> ())
      end)
    results;
  List.rev !findings

(* The SUP passes: provably-redundant and candidate-redundant fanins,
   straight off the cheap dataflow facts.  Both are mode-independent —
   a SUP001 is justified by the local truth table alone and a SUP002
   by the structural support over-approximation — so the report is
   identical whether or not the facts are also used for screening. *)
let of_dataflow net df =
  let name_of = Net_check.namer net in
  let findings = ref [] in
  let add ?loc code msg = findings := Diagnostic.make ?loc code msg :: !findings in
  List.iter
    (fun nf ->
      match Network.view net nf.Dataflow.nf_signal with
      | `Input _ | `Const _ -> ()
      | `Lut (fanins, _) ->
          let loc = name_of nf.Dataflow.nf_signal in
          List.iter
            (fun j ->
              add ~loc "SUP001"
                (Printf.sprintf
                   "truth table ignores fanin %s (position %d); dropping it \
                    cannot change the node"
                   (name_of fanins.(j)) j))
            nf.Dataflow.nf_vacuous;
          List.iter
            (fun j ->
              add ~loc "SUP002"
                (Printf.sprintf
                   "fanin %s (position %d) has its input support contained \
                    in the other fanins'; reconvergent — a candidate for \
                    exact redundancy pruning"
                   (name_of fanins.(j)) j))
            nf.Dataflow.nf_contained)
    (Dataflow.facts df);
  List.rev !findings

type coverage = {
  exact_nodes : int;
  windowed_nodes : int;
  truncated_nodes : int;
  total_nodes : int;
  sat_calls : int;
  sat_conflicts : int;
  windows_built : int;
  dataflow_nodes : int;
  df_iterations : int;
  df_facts : int;
  screened_out : int;
  wall_dataflow : float;
  wall_exact : float;
  wall_sat : float;
}

type report = { findings : Diagnostic.t list; coverage : coverage }

(* An exactly-known observability set: a node that pointwise drives an
   output whose care set is the whole care space has observable =
   care_any, so the exact engine may skip the ODC computation without
   changing any fact derived from it. *)
let full_observable_hint ?care_of_output m net df =
  let care_of name =
    match care_of_output with Some f -> f name | None -> Bdd.one m
  in
  let cares =
    List.map (fun (name, _) -> (name, care_of name)) (Network.outputs net)
  in
  let care_any = Bdd.or_list m (List.map snd cares) in
  fun s ->
    match Dataflow.fact_of df s with
    | None -> false
    | Some nf ->
        List.exists
          (fun o ->
            match List.assoc_opt o cares with
            | Some c -> Bdd.equal c care_any
            | None -> false)
          nf.Dataflow.nf_obs_outputs

(* Can the windowed SAT engine be skipped for this node without losing
   a finding?  Only when the cheap facts prove the window would report
   nothing: every fanin code was witnessed reachable (so window
   reachability, which over-approximates, is total — no SEM001, and
   the table takes both values on reachable rows — no SEM003) and the
   node pointwise drives some output (the flip crosses every root cut,
   so the windowed care set is non-empty — no SEM002). *)
let window_screenable net df s =
  match (Dataflow.fact_of df s, Network.view net s) with
  | Some nf, `Lut (fanins, tt) ->
      let k = Array.length fanins in
      k <= Complete_dc.max_code_bits
      && nf.Dataflow.nf_all_codes
      && nf.Dataflow.nf_obs_outputs <> []
      &&
      let zero = ref false and one = ref false in
      for c = 0 to (1 lsl k) - 1 do
        if Bv.get tt c then one := true else zero := true
      done;
      !zero && !one
  | _ -> false

(* The window stage, shared by the deep lint and the rewrite loop: once
   the exact engine stops short, every LUT it did not reach is analyzed
   on its window, except those the dataflow facts prove finding-free,
   and the coverage of all three tiers is accounted for.  Nothing runs
   when the exact engine finished.  The wall times of the two earlier
   tiers are left at zero for the caller that measured them. *)
let windows ?(sat_timeout = 20.0) ?(dataflow = true) net df flow =
  let coverage ~windowed_nodes ~truncated_nodes ~counters ~screened_windows
      ~wall_sat =
    {
      exact_nodes = flow.Careflow.analyzed;
      windowed_nodes;
      truncated_nodes;
      total_nodes = flow.Careflow.total;
      sat_calls = counters.Complete_dc.sat_calls;
      sat_conflicts = counters.Complete_dc.sat_conflicts;
      windows_built = counters.Complete_dc.windows_built;
      dataflow_nodes = List.length (Dataflow.facts df);
      df_iterations = Dataflow.iterations df;
      df_facts = Dataflow.fact_count df;
      screened_out = flow.Careflow.screened + screened_windows;
      wall_dataflow = 0.0;
      wall_exact = 0.0;
      wall_sat;
    }
  in
  match flow.Careflow.truncated with
  | None ->
      ( [],
        [],
        coverage ~windowed_nodes:0 ~truncated_nodes:0
          ~counters:(Complete_dc.counters ()) ~screened_windows:0
          ~wall_sat:0.0 )
  | Some _ ->
      let analyzed = Hashtbl.create 64 in
      List.iter
        (fun info ->
          Hashtbl.replace analyzed
            (Network.signal_id info.Careflow.signal)
            ())
        flow.Careflow.nodes;
      let remaining =
        Array.of_list
          (List.filter
             (fun s -> not (Hashtbl.mem analyzed (Network.signal_id s)))
             (Network.lut_signals net))
      in
      let t0 = Mono.now () in
      let ctx = Window.context net in
      (* SAT effort lands where the cheap tier could not decide: order
         the centers by how many reachability/observability questions
         the dataflow facts leave open. *)
      let remaining =
        if not dataflow then remaining
        else
          Window.order_by_density ctx
            ~density:(fun s ->
              match Dataflow.fact_of df s with
              | None -> max_int
              | Some nf ->
                  let k = List.length (Network.fanins net s) in
                  let rows = 1 lsl min k 16 in
                  rows - nf.Dataflow.nf_codes_seen
                  + (if nf.Dataflow.nf_obs_outputs = [] then rows else 0))
            remaining
      in
      let counters = Complete_dc.counters () in
      (* wall time (monotonic), not processor time — see
         [Careflow.limiter] *)
      let deadline = Mono.now () +. sat_timeout in
      let sat_check () =
        if Mono.now () > deadline then
          raise (Careflow.Cutoff "windowed-analysis timeout")
      in
      let results = ref [] in
      let screened = ref [] in
      let too_wide = ref 0 in
      let processed = ref 0 in
      (try
         Array.iter
           (fun s ->
             (if dataflow && window_screenable net df s then
                (* proven finding-free: covered without a SAT call *)
                screened := s :: !screened
              else
                match
                  Complete_dc.analyze_node ~simulate:dataflow ~check:sat_check
                    ~counters ctx s
                with
                | Some r -> results := r :: !results
                | None -> incr too_wide);
             incr processed)
           remaining
       with Careflow.Cutoff _ -> ());
      let wall_sat = Mono.now () -. t0 in
      let results = List.rev !results and screened = List.rev !screened in
      let screened_windows = List.length screened in
      ( results,
        screened,
        coverage
          ~windowed_nodes:(List.length results + screened_windows)
          ~truncated_nodes:(Array.length remaining - !processed + !too_wide)
          ~counters ~screened_windows ~wall_sat )

let analyze_report ?care_of_output ?check ?sat_timeout ?(dataflow = true) m
    ~var_of_input net =
  (* The cheap tier always runs (it is linear and its SUP findings are
     part of the report either way); [dataflow] only decides whether
     its facts are allowed to screen the expensive engines.  Each
     tier's findings are made as soon as the tier ends. *)
  let t0 = Mono.now () in
  let df = Dataflow.analyze net in
  let sup = of_dataflow net df in
  let wall_dataflow = Mono.now () -. t0 in
  let full_observable =
    if not dataflow then None
    else Some (full_observable_hint ?care_of_output m net df)
  in
  let t1 = Mono.now () in
  let flow =
    Careflow.analyze ?care_of_output ?check ?full_observable m ~var_of_input
      net
  in
  let base = of_flow m net flow in
  let wall_exact = Mono.now () -. t1 in
  let results, _, coverage = windows ?sat_timeout ~dataflow net df flow in
  let coverage = { coverage with wall_dataflow; wall_exact } in
  match flow.Careflow.truncated with
  | None -> { findings = sup @ base; coverage }
  | Some reason ->
      (* per-node coverage: only what escapes both engines is reported
         as truncated *)
      let trunc_finding =
        if coverage.truncated_nodes > 0 then
          [
            Diagnostic.make ~loc:"semantics" "SEM008"
              (Printf.sprintf
                 "analysis truncated (%s): %d of %d nodes analyzed exactly, \
                  %d more via windows, %d escaped both engines; findings are \
                  partial"
                 reason coverage.exact_nodes coverage.total_nodes
                 coverage.windowed_nodes coverage.truncated_nodes);
          ]
        else []
      in
      { findings = sup @ base @ of_windowed net results @ trunc_finding; coverage }

let audit ?care_of_output m ~inputs ~golden ~candidate =
  let var_of_input name =
    match List.assoc_opt name inputs with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Semantics.audit: unmapped input %s" name)
  in
  let care_of name =
    match care_of_output with Some f -> f name | None -> Bdd.one m
  in
  let g_out = Network.output_bdds golden m ~var_of_input in
  let c_out = Network.output_bdds candidate m ~var_of_input in
  let findings = ref [] in
  let add ?loc code msg = findings := Diagnostic.make ?loc code msg :: !findings in
  let counterexample diff =
    let assignment = Bdd.any_sat diff in
    String.concat " "
      (List.map
         (fun (name, v) ->
           match List.assoc_opt v assignment with
           | Some true -> name ^ "=1"
           | Some false -> name ^ "=0"
           | None -> name ^ "=-")
         inputs)
  in
  List.iter
    (fun (name, gf) ->
      match List.assoc_opt name c_out with
      | None -> add ~loc:name "SEM007" "output missing from the candidate network"
      | Some cf ->
          let care = care_of name in
          if not (Bdd.equal_on m ~care gf cf) then
            add ~loc:name "SEM007"
              (Printf.sprintf
                 "networks disagree inside the care set, e.g. at %s"
                 (counterexample (Bdd.and_ m care (Bdd.xor m gf cf)))))
    g_out;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name g_out) then
        add ~loc:name "SEM007" "output missing from the golden network")
    c_out;
  List.rev !findings

type sat_audit = {
  audit_findings : Diagnostic.t list;
  outputs_proved : int;
  outputs_refuted : int;
  outputs_unknown : int;
  audit_sat_calls : int;
  audit_sat_conflicts : int;
}

let audit_sat ?(dc_cubes_of_output = fun _ -> []) ?(max_conflicts = 100_000)
    ~golden ~candidate inputs =
  let cnf = Sat.Cnf.create () in
  let env_g = Sat.Encode.of_network cnf golden in
  let env_c = Sat.Encode.of_network cnf candidate in
  let g_in = Sat.Encode.input_vars env_g in
  let c_in = Sat.Encode.input_vars env_c in
  (* the common input space: same-named inputs are the same variable *)
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name c_in with
      | Some v' ->
          Sat.Cnf.add_clause cnf [ Sat.Cnf.neg v; Sat.Cnf.pos v' ];
          Sat.Cnf.add_clause cnf [ Sat.Cnf.pos v; Sat.Cnf.neg v' ]
      | None -> ())
    g_in;
  let var_of_input name =
    match List.assoc_opt name g_in with
    | Some v -> Some v
    | None -> List.assoc_opt name c_in
  in
  let g_out = Sat.Encode.output_vars env_g in
  let c_out = Sat.Encode.output_vars env_c in
  (* one gated miter per common output, built before the solver import *)
  let plan =
    List.map
      (fun (name, gv) ->
        match List.assoc_opt name c_out with
        | None -> (name, None)
        | Some cv ->
            let sel = Sat.Cnf.fresh cnf in
            let x = Sat.Encode.xor_var cnf gv cv in
            Sat.Cnf.add_clause cnf [ Sat.Cnf.neg sel; Sat.Cnf.pos x ];
            (* under this selector, stay outside every don't-care cube *)
            List.iter
              (fun cube ->
                let lits =
                  List.filter_map
                    (fun (i, v) ->
                      Option.map
                        (fun iv -> Sat.Cnf.lit_of_bool iv (not v))
                        (var_of_input i))
                    cube
                in
                Sat.Cnf.add_clause cnf (Sat.Cnf.neg sel :: lits))
              (dc_cubes_of_output name);
            (name, Some sel))
      g_out
  in
  let solver = Sat.Solver.create cnf in
  let conflicts0 = Sat.Solver.conflicts solver in
  let findings = ref [] in
  let add ?loc code msg = findings := Diagnostic.make ?loc code msg :: !findings in
  let proved = ref 0 and refuted = ref 0 and unknown = ref 0 in
  let calls = ref 0 in
  List.iter
    (fun (name, sel) ->
      match sel with
      | None ->
          add ~loc:name "SEM007" "output missing from the candidate network"
      | Some sel -> (
          incr calls;
          match
            Sat.Solver.solve ~assumptions:[ Sat.Cnf.pos sel ] ~max_conflicts
              solver
          with
          | Sat.Solver.Sat ->
              incr refuted;
              let cex =
                String.concat " "
                  (List.map
                     (fun n ->
                       match var_of_input n with
                       | Some v ->
                           n ^ "=" ^ (if Sat.Solver.value solver v then "1" else "0")
                       | None -> n ^ "=-")
                     inputs)
              in
              add ~loc:name "SEM007"
                (Printf.sprintf
                   "networks disagree inside the care set, e.g. at %s" cex)
          | Sat.Solver.Unsat -> incr proved
          | Sat.Solver.Unknown reason ->
              incr unknown;
              add ~loc:name "SEM008"
                (Printf.sprintf
                   "SAT audit ran out of budget (%s); verdict unknown" reason)))
    plan;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name g_out) then
        add ~loc:name "SEM007" "output missing from the golden network")
    c_out;
  {
    audit_findings = List.rev !findings;
    outputs_proved = !proved;
    outputs_refuted = !refuted;
    outputs_unknown = !unknown;
    audit_sat_calls = !calls;
    audit_sat_conflicts = Sat.Solver.conflicts solver - conflicts0;
  }
