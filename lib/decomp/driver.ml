type spec = {
  input_names : string list;
  functions : (string * Isf.t) list;
}

type internal_error = Iteration_limit of int | Worklist_deadlock

exception Internal of internal_error

let internal_error_message = function
  | Iteration_limit n ->
      Printf.sprintf
        "Driver.decompose: iteration budget exhausted after %d iterations (no progress)"
        n
  | Worklist_deadlock -> "Driver.decompose: deadlock in the worklist"

let () =
  Printexc.register_printer (function
    | Internal e -> Some (internal_error_message e)
    | _ -> None)

type report = {
  network : Network.t;
  step_count : int;
  shannon_count : int;
  alpha_count : int;
  degraded_to : Budget.stage;
  findings : Diagnostic.t list;
}

let src = Logs.Src.create "mfd.driver" ~doc:"decomposition driver"

module Log = (val Logs.src_log src : Logs.LOG)

let spec_of_csf m input_names functions =
  { input_names; functions = List.map (fun (n, f) -> (n, Isf.of_csf m f)) functions }

type sink = Output of string | Alpha_var of int

type item = { sink : sink; isf : Isf.t; shannon_depth : int }

let sink_name = function
  | Output name -> "output " ^ name
  | Alpha_var v -> Printf.sprintf "alpha a%d" (-v)

let decompose_report ?(cfg = Config.default) ?(budget = Budget.unlimited)
    ?(checks = Diagnostic.Off) ?(stats = Stats.create ()) m spec =
  let cfg = Budget.apply_effort budget cfg in
  (* The [--check] assertion layer: pure observers at the driver's phase
     boundaries.  [cheap] covers the bookkeeping invariants, [full] adds
     the BDD-equivalence obligations.  Findings are collected (and
     mirrored into {!Stats}), never raised — a checked run produces the
     same network as an unchecked one. *)
  let cheap = Diagnostic.at_least checks Diagnostic.Cheap in
  let full = Diagnostic.at_least checks Diagnostic.Full in
  let deep = Diagnostic.at_least checks Diagnostic.Deep in
  let findings = ref [] in
  let emit_finding d =
    findings := d :: !findings;
    Stats.add_finding stats
      ~severity:(Diagnostic.severity_name d.Diagnostic.severity)
      ~code:d.Diagnostic.code
      ~message:
        (match d.Diagnostic.loc with
        | Some l -> l ^ ": " ^ d.Diagnostic.message
        | None -> d.Diagnostic.message)
  in
  (* Degraded view of the configuration: each budget-degradation stage
     turns off the don't-care phase it names.  [lut_size] never changes,
     so the emission helpers below can keep capturing [cfg]. *)
  let dcfg () =
    match Budget.stage budget with
    | Budget.Full -> cfg
    | Budget.No_symmetry ->
        {
          cfg with
          Config.dc_steps = { cfg.Config.dc_steps with Config.symmetry = false };
        }
    | Budget.No_sharing | Budget.Shannon_only ->
        {
          cfg with
          Config.dc_steps =
            {
              Config.symmetry = false;
              sharing = false;
              cms = cfg.Config.dc_steps.Config.cms;
            };
          (* per-output greedy coloring: skip the exact search too *)
          Config.exact_coloring_limit = 0;
        }
  in
  Budget.attach budget m;
  Fun.protect ~finally:(fun () -> Budget.detach budget m) @@ fun () ->
  let net = Network.create () in
  (* One cofactor-vector cache for the whole run: it persists across
     greedy growth, Curtis retries, and driver iterations (recursion
     levels), and is trimmed whenever a committed step rewrites ISFs.
     Tied to [m]; counters land in this run's [stats].  Scores are
     memoized per attempt ([Bound_select.memo]). *)
  let cache = Score_cache.create ~stats m in
  let signal_of_var : (int, Network.signal) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun k name -> Hashtbl.replace signal_of_var k (Network.add_input net name))
    spec.input_names;
  (* Arrival time of a variable: the LUT level of the signal realizing
     it, read from the network as it stands when the score is taken —
     inputs at 0, decomposition-function outputs at their emission
     depth, not-yet-emitted variables optimistically at 0.  Under the
     [Area] objective the cost ignores arrivals entirely, so the area
     path stays byte-identical. *)
  let arrival v =
    match Hashtbl.find_opt signal_of_var v with
    | Some s -> Network.level net s
    | None -> 0
  in
  let cost = Cost.make cfg.Config.objective ~arrival in
  (* Fresh variables (decomposition-function outputs) are allocated
     with negative indices, i.e. ABOVE the inputs in the BDD order.
     With the alpha variables on top, a composition function is a
     shallow tree of alpha minterms over the class cofactors and its
     construction is linear; with them at the bottom every disjunction
     interleaves the free-variable structures quadratically. *)
  let next_var = ref (-1) in
  let fresh_var () =
    let v = !next_var in
    decr next_var;
    v
  in
  let worklist =
    ref
      (List.map
         (fun (name, isf) ->
           let isf = if cfg.Config.zero_dc_on_entry then Isf.assign_all_zero m isf else isf in
           { sink = Output name; isf; shannon_depth = 0 })
         spec.functions)
  in
  if cheap then
    List.iter
      (fun (name, isf) ->
        Option.iter emit_finding
          (Invariant.well_formed_parts m ~where:("spec output " ^ name)
             ~on:(Isf.on isf) ~dc:(Isf.dc isf)))
      spec.functions;
  let step_count = ref 0 and shannon_count = ref 0 and alpha_count = ref 0 in
  let bound_var v = Hashtbl.mem signal_of_var v in
  let signal v = Hashtbl.find signal_of_var v in
  let bind sink s =
    match sink with
    | Output name -> Network.set_output net name s
    | Alpha_var v -> Hashtbl.replace signal_of_var v s
  in
  (* Emit an item whose support fits a LUT and whose variables all have
     signals.  Remaining don't cares are assigned 0 at this point: the
     LUT content is free, the LUT count is not. *)
  let try_emit item =
    let sup = Isf.support m item.isf in
    if List.length sup <= cfg.Config.lut_size && List.for_all bound_var sup then begin
      let sup_arr = Array.of_list sup in
      let on = Isf.on item.isf in
      let tt =
        Bv.of_fun (Array.length sup_arr) (fun idx ->
            Bdd.eval on (fun v ->
                let rec pos k = if sup_arr.(k) = v then k else pos (k + 1) in
                (idx lsr pos 0) land 1 = 1))
      in
      if full then
        Option.iter emit_finding
          (Invariant.check_lut_realizes m
             ~where:("emit " ^ sink_name item.sink)
             item.isf ~support:sup ~tt);
      let s = Network.add_lut net ~fanins:(List.map signal sup) ~tt in
      bind item.sink s;
      true
    end
    else false
  in
  let emit_ready () =
    let rec pass () =
      let before = List.length !worklist in
      worklist := List.filter (fun item -> not (try_emit item)) !worklist;
      if List.length !worklist < before then pass ()
    in
    pass ()
  in
  (* Shannon/MUX fallback for non-decomposable items.  Cofactors are
     memoized by ISF identity so that repeated fallbacks share subcircuits
     (otherwise a cascade of expansions duplicates whole cofactor trees). *)
  let shannon_cache : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let shannon item =
    incr shannon_count;
    let sup = Isf.support m item.isf in
    let v =
      match List.filter bound_var sup with
      | v :: _ -> v
      | [] -> invalid_arg "Driver: item with no bound variable in support"
    in
    let depth = item.shannon_depth + 1 in
    let cofactor_var b =
      let f = Isf.restrict m item.isf v b in
      let key = (Bdd.id (Isf.on f), Bdd.id (Isf.dc f)) in
      match Hashtbl.find_opt shannon_cache key with
      | Some var -> (var, [])
      | None ->
          let var = fresh_var () in
          Hashtbl.add shannon_cache key var;
          (var, [ { sink = Alpha_var var; isf = f; shannon_depth = depth } ])
    in
    let a, new0 = cofactor_var false in
    let b, new1 = cofactor_var true in
    let items0 = new0 @ new1 in
    if cfg.Config.lut_size >= 3 then begin
      let mux = Bdd.ite m (Bdd.var m v) (Bdd.var m b) (Bdd.var m a) in
      { sink = item.sink; isf = Isf.of_csf m mux; shannon_depth = depth }
      :: items0
    end
    else begin
      (* 2-input gates: f = (v /\ f1) \/ (~v /\ f0) *)
      let c = fresh_var () and d = fresh_var () in
      let and1 = Bdd.and_ m (Bdd.var m v) (Bdd.var m b) in
      let and2 = Bdd.and_ m (Bdd.nvar m v) (Bdd.var m a) in
      let orr = Bdd.or_ m (Bdd.var m c) (Bdd.var m d) in
      { sink = item.sink; isf = Isf.of_csf m orr; shannon_depth = depth }
      :: { sink = Alpha_var c; isf = Isf.of_csf m and1; shannon_depth = depth }
      :: { sink = Alpha_var d; isf = Isf.of_csf m and2; shannon_depth = depth }
      :: items0
    end
  in
  (* Direct Shannon cofactor-tree emission: for items that repeatedly
     resisted decomposition (two Shannon rounds without a successful
     step), expanding the remaining cofactor tree in one go avoids
     rescanning the worklist once per split.  Subcircuits are shared via
     a memo on the ISF identity, so this is essentially a mapping of the
     (shared) BDD cofactor structure onto MUX LUTs. *)
  let mux_memo : (int * int, Network.signal) Hashtbl.t = Hashtbl.create 64 in
  let rec emit_mux_tree isf =
    let key = (Bdd.id (Isf.on isf), Bdd.id (Isf.dc isf)) in
    match Hashtbl.find_opt mux_memo key with
    | Some s -> s
    | None ->
        let sup = Isf.support m isf in
        let s =
          if List.length sup <= cfg.Config.lut_size then begin
            let ok = List.for_all bound_var sup in
            if not ok then
              invalid_arg "Driver.emit_mux_tree: unbound variable";
            let sup_arr = Array.of_list sup in
            let on = Isf.on isf in
            let tt =
              Bv.of_fun (Array.length sup_arr) (fun idx ->
                  Bdd.eval on (fun v ->
                      let rec pos k = if sup_arr.(k) = v then k else pos (k + 1) in
                      (idx lsr pos 0) land 1 = 1))
            in
            if full then
              Option.iter emit_finding
                (Invariant.check_lut_realizes m ~where:"mux-tree leaf" isf
                   ~support:sup ~tt);
            Network.add_lut net ~fanins:(List.map signal sup) ~tt
          end
          else begin
            incr shannon_count;
            let v = match sup with v :: _ -> v | [] -> assert false in
            let s0 = emit_mux_tree (Isf.restrict m isf v false) in
            let s1 = emit_mux_tree (Isf.restrict m isf v true) in
            if cfg.Config.lut_size >= 3 then
              Network.mux_gate net ~sel:(signal v) ~hi:s1 ~lo:s0
            else begin
              let a = Network.and_gate net (signal v) s1 in
              let b =
                Network.and_gate net (Network.not_gate net (signal v)) s0
              in
              Network.or_gate net a b
            end
          end
        in
        Hashtbl.add mux_memo key s;
        s
  in
  let support_size item = List.length (Isf.support m item.isf) in
  (* Shannon/MUX fallback for one item, shared between the no-progress
     path and the terminal [Shannon_only] degradation stage.  Exempt
     from budget checks: this is the guaranteed-progress path, and
     interrupting it would waste work without saving anything. *)
  let fallback ?(force = false) target_sink =
    Budget.exempt budget @@ fun () ->
    let target = List.find (fun it -> it.sink = target_sink) !worklist in
    let rest = List.filter (fun it -> it.sink <> target_sink) !worklist in
    if
      (force || target.shannon_depth >= 2)
      && List.for_all bound_var (Isf.support m target.isf)
    then begin
      bind target.sink (emit_mux_tree target.isf);
      worklist := rest
    end
    else worklist := shannon target @ rest
  in
  (* One full decomposition attempt on [primary]'s region: symmetry
     maximization, bound-set selection, the decomposition step (with
     Curtis retries at gate level), and the Shannon fallback if nothing
     progressed.  May raise [Budget.Out_of_budget] from any of the
     search phases; network emission and worklist commitment are exempt,
     so an abort always leaves a consistent state (at worst some
     already-emitted decomposition functions go unreferenced and are
     swept later). *)
  let attempt primary region =
    let cfg = dcfg () in
    let participates it =
      List.exists (fun v -> List.mem v region) (Isf.support m it.isf)
      && support_size it > cfg.Config.lut_size
    in
    let participants, others = List.partition participates !worklist in
    let participants = Array.of_list participants in
    let isfs = Array.map (fun it -> it.isf) participants in
    (* --- step 1: symmetrize (or just detect groups).  On wide
       regions the quadratic pair search is throttled: only the
       variables shared by the most participants are considered,
       and the merge budget shrinks with the region size. *)
    let sym_vars =
      let limit = 14 in
      if List.length region <= limit then region
      else begin
        let frequency v =
          Array.fold_left
            (fun acc f -> if List.mem v (Isf.support m f) then acc + 1 else acc)
            0 isfs
        in
        region
        |> List.map (fun v -> (-frequency v, v))
        |> List.sort compare
        |> List.filteri (fun i _ -> i < limit)
        |> List.map snd |> List.sort compare
      end
    in
    let clock = Stats.clock stats in
    let phase name =
      let dt = Stats.mark clock name in
      Log.debug (fun k -> k "  %s: %.2fs" name dt)
    in
    let merge_budget =
      min cfg.Config.symmetry_budget
        (8 * List.length sym_vars * List.length sym_vars)
    in
    let sym_check = Budget.checker budget ~where:"symmetry" in
    let groups =
      if cfg.Config.dc_steps.Config.symmetry then
        (* Potential symmetries (don't cares make the exchanges
           possible); the assignments are NOT committed yet — only
           the groups that land inside the bound set will be. *)
        (Symmetry.maximize ~budget:merge_budget ~check:sym_check m
           (Array.to_list isfs) sym_vars)
          .Symmetry.groups
      else
        Symmetry.partition ~budget:merge_budget ~check:sym_check m
          (Array.to_list (Array.map Isf.on isfs))
          sym_vars
    in
    phase "symmetry";
    (* --- bound set *)
    let select_check = Budget.checker budget ~where:"bound-select" in
    (* The scores of this attempt's ISF list; the Curtis retries read
       them too while the list stands. *)
    let memo = Bound_select.memo () in
    let bound =
      match
        Bound_select.select ~cache ~memo ~cost ~check:select_check m cfg
          ~groups ~eligible:region (Array.to_list isfs)
      with
      | Some b -> b
      | None -> []
    in
    phase "bound-select";
    (* --- step 1 commitment: symmetrize exactly the group parts
       that ended up inside the bound set.  Symmetries across the
       bound/free boundary are not exploitable by this step (and
       per the paper step 3 would not preserve them anyway). *)
    let isfs, memo =
      if cfg.Config.dc_steps.Config.symmetry && bound <> [] then begin
        let committed_groups = ref [] in
        (* [fs] comes with the memo of its scores: the search's for the
           list it scored, a fresh one for a list a group rewrote. *)
        let commit (fs, memo) group =
          let inside = List.filter (fun (v, _) -> List.mem v bound) group in
          if List.length inside < 2 then (fs, memo)
          else
            match Symmetry.close_group m fs inside with
            | Some fs' ->
                (* Specifying don't cares can also make vertices
                   distinct; only keep the assignment when the
                   class count of this bound set does not grow. *)
                let unchanged = List.for_all2 Isf.equal fs' fs in
                let memo' = if unchanged then memo else Bound_select.memo () in
                (* The accept/reject comparison must use the same
                   scoring mode as the selection that chose
                   [bound]: without [~lut_size], gate-level
                   configs (lut_size <= 3) would commit by the
                   class-count-first criterion after selecting by
                   the reduction-first one. *)
                let score memo fs =
                  Bound_select.score ~cache ~memo
                    ~lut_size:cfg.Config.lut_size ~cost m fs bound
                in
                if unchanged || score memo' fs' < score memo fs then begin
                  committed_groups := inside :: !committed_groups;
                  (fs', memo')
                end
                else (fs, memo)
            | None -> (fs, memo)
        in
        let committed, memo =
          List.fold_left commit (Array.to_list isfs, memo) groups
        in
        if cheap then
          List.iteri
            (fun i fine ->
              Option.iter emit_finding
                (Invariant.check_refines m ~where:"symmetry-commit"
                   ~coarse:isfs.(i) ~fine))
            committed;
        if full then
          List.iter
            (fun group ->
              Option.iter emit_finding
                (Invariant.check_group_symmetric m ~where:"symmetry-commit"
                   committed group))
            !committed_groups;
        (Array.of_list committed, memo)
      end
      else (isfs, memo)
    in
    phase "symmetry-commit";
    let alpha_items = ref [] in
    (* Run one decomposition step against [bound]; commit (emit
       the decomposition functions, replace the participants'
       composition functions) only if some output got strictly
       smaller or LUT-sized — the other outputs still profit from
       the shared functions.  A step that reduces nothing is
       rolled back entirely: committing it would spend LUTs on a
       pure renaming of the bound variables. *)
    let try_step bound =
      if bound = [] then false
      else begin
        incr step_count;
        let before_sizes =
          Array.map (fun f -> List.length (Isf.support m f)) isfs
        in
        let result =
          Step.run ~budget ~checks ~emit:emit_finding ~stats ~cache m cfg
            ~fresh_var isfs ~bound
        in
        let progressed = ref false in
        Array.iteri
          (fun i g ->
            let after = List.length (Isf.support m g) in
            if after < before_sizes.(i) || after <= cfg.Config.lut_size then
              progressed := true)
          result.Step.g;
        Log.debug (fun k ->
            k "  bound=[%s] r=[%s] sizes %s -> %s progressed=%b"
              (String.concat "," (List.map string_of_int bound))
              (String.concat ","
                 (Array.to_list (Array.map string_of_int result.Step.r)))
              (String.concat ","
                 (Array.to_list (Array.map string_of_int before_sizes)))
              (String.concat ","
                 (Array.to_list
                    (Array.map
                       (fun g -> string_of_int (List.length (Isf.support m g)))
                       result.Step.g)))
              !progressed);
        if !progressed then
          Budget.exempt budget (fun () ->
              if full then begin
                let subs =
                  List.map
                    (fun { Step.var; func; _ } -> (var, func))
                    result.Step.alphas
                in
                Array.iteri
                  (fun i g ->
                    Option.iter emit_finding
                      (Invariant.check_composition m
                         ~where:
                           (Printf.sprintf "step %d output %d" !step_count i)
                         ~subs ~g ~spec:isfs.(i)))
                  result.Step.g
              end;
              List.iter
                (fun { Step.var; func; _ } ->
                  incr alpha_count;
                  if List.length bound <= cfg.Config.lut_size then begin
                    let bound_arr = Array.of_list bound in
                    let tt =
                      Bv.of_fun (Array.length bound_arr) (fun idx ->
                          Bdd.eval func (fun v ->
                              let rec pos k =
                                if bound_arr.(k) = v then k else pos (k + 1)
                              in
                              (idx lsr pos 0) land 1 = 1))
                    in
                    if full then
                      Option.iter emit_finding
                        (Invariant.check_lut_equals m
                           ~where:(Printf.sprintf "alpha a%d" (-var))
                           func ~support:bound ~tt);
                    let s =
                      Network.add_lut net ~fanins:(List.map signal bound) ~tt
                    in
                    Hashtbl.replace signal_of_var var s
                  end
                  else
                    (* A Curtis step: the bound set exceeds the LUT
                       size (e.g. a 3-input compressor for 2-input
                       gates), so the decomposition function becomes a
                       new work item and is decomposed recursively. *)
                    alpha_items :=
                      {
                        sink = Alpha_var var;
                        isf = Isf.of_csf m func;
                        shannon_depth = 0;
                      }
                      :: !alpha_items)
                result.Step.alphas;
              Array.iteri
                (fun i g ->
                  participants.(i) <- { (participants.(i)) with isf = g })
                result.Step.g);
        !progressed
      end
    in
    let step_ok = try_step bound in
    phase "step";
    (* Second attempt with an oversized bound set: symmetric
       carry/weight functions are not decomposable within small
       LUT sizes but compress with one extra bound variable. *)
    (* Oversized (Curtis) rescue attempts matter for gate-level
       synthesis (2-3 input LUTs), where symmetric carry/weight
       functions have no reducing bound set within the LUT size
       and need a compressor step; at larger LUT sizes they rarely
       pay for their sub-networks.  A retry's search and step are
       charged to their own phases. *)
    let curtis extra =
      cfg.Config.lut_size <= 3
      &&
      let b2 =
        Bound_select.select_curtis ~cache ~memo ~cost ~check:select_check
          ~extra m cfg ~groups ~eligible:region (Array.to_list isfs)
      in
      phase "bound-select";
      match b2 with
      | Some b2 when b2 <> bound ->
          let ok = try_step b2 in
          phase "step";
          ok
      | Some _ | None -> false
    in
    let step_ok = step_ok || curtis 1 || curtis 2 in
    worklist := !alpha_items @ Array.to_list participants @ others;
    (* A committed step rewrote participant ISFs; trim cache
       entries that mention the replaced ones (memory hygiene —
       hash-consed keys mean stale entries are unreachable, not
       wrong). *)
    if step_ok then
      Score_cache.retain cache ~live:(List.map (fun it -> it.isf) !worklist);
    if not step_ok then
      (* No support shrank: split the primary by Shannon expansion.
         After two fruitless rounds the whole cofactor tree is
         emitted at once (shared MUX network). *)
      fallback primary.sink
  in
  let max_iterations = 10_000 + (100 * List.length spec.functions) in
  let rec loop iter =
    if iter > max_iterations then
      raise (Internal (Iteration_limit max_iterations));
    emit_ready ();
    if !worklist <> [] then begin
      (* Primary: the pending item with the largest support among those
         that can be decomposed now. *)
      let decomposable =
        List.filter
          (fun it ->
            support_size it > cfg.Config.lut_size
            && List.exists bound_var (Isf.support m it.isf))
          !worklist
      in
      (match decomposable with
      | [] ->
          (* Everything small is waiting on unbound variables — can only
             happen transiently; emit_ready above will unblock next
             round once producers finish.  If nothing is decomposable
             and nothing is ready, the dependency graph is broken. *)
          raise (Internal Worklist_deadlock)
      | _ ->
          let primary =
            match cfg.Config.objective with
            | Cost.Area ->
                List.fold_left
                  (fun best it ->
                    if support_size it > support_size best then it else best)
                  (List.hd decomposable) (List.tl decomposable)
            | Cost.Delay | Cost.Balanced ->
                (* Critical-path-first: attack the item whose available
                   inputs are deepest — the one currently defining the
                   network's arrival profile — so its steps get first
                   pick of shallow bound sets; ties fall back to the
                   area rule (largest support). *)
                let criticality it =
                  List.fold_left
                    (fun acc v -> max acc (arrival v))
                    0
                    (List.filter bound_var (Isf.support m it.isf))
                in
                List.fold_left
                  (fun best it ->
                    let c = criticality it and cb = criticality best in
                    if
                      c > cb
                      || (c = cb && support_size it > support_size best)
                    then it
                    else best)
                  (List.hd decomposable) (List.tl decomposable)
          in
          if Budget.stage budget = Budget.Shannon_only then
            (* Terminal degradation: no more decomposition attempts,
               emit the remaining items as shared MUX trees. *)
            fallback ~force:true primary.sink
          else begin
            let region = List.filter bound_var (Isf.support m primary.isf) in
            try attempt primary region
            with Budget.Out_of_budget { reason; where } ->
              let stage = Budget.degrade budget m reason in
              Stats.add_degradation stats
                ~stage:(Budget.stage_name stage)
                ~reason:(Budget.reason_name reason)
                ~where;
              Log.warn (fun k ->
                  k "budget: %s exceeded in %s — degrading to %s"
                    (Budget.reason_name reason) where (Budget.stage_name stage))
          end);
      Log.debug (fun k ->
          k "iter %d: worklist %d items" iter (List.length !worklist));
      loop (iter + 1)
    end
  in
  loop 0;
  if cheap then
    List.iter emit_finding
      (Net_check.analyze ~lut_size:cfg.Config.lut_size ~style:false net);
  if deep then begin
    (* The semantic SDC/ODC dataflow over the final network, against the
       specification's care set.  The growth hook must come off first:
       it raises [Out_of_budget] from inside BDD operations, where
       [Careflow] cannot translate it into a graceful truncation.  The
       budget is polled between nodes instead, and an exceedance yields
       a partial report plus a SEM008 info finding rather than a
       failure. *)
    Budget.detach budget m;
    let clock = Stats.clock stats in
    let check () =
      try Budget.check budget ~where:"semantics"
      with Budget.Out_of_budget { reason; where } ->
        let reason = Budget.reason_name reason in
        Stats.add_degradation stats ~stage:"semantics-truncated" ~reason ~where;
        raise (Careflow.Cutoff reason)
    in
    let var_of_input =
      let tbl = Hashtbl.create 16 in
      List.iteri (fun k name -> Hashtbl.add tbl name k) spec.input_names;
      fun name -> Hashtbl.find tbl name
    in
    let care_of_output name =
      match List.assoc_opt name spec.functions with
      | Some isf -> Isf.care m isf
      | None -> Bdd.one m
    in
    let report =
      Semantics.analyze_report ~care_of_output ~check m ~var_of_input net
    in
    Stats.add_coverage stats report.Semantics.coverage;
    List.iter emit_finding report.Semantics.findings;
    ignore (Stats.mark clock "semantics")
  end;
  {
    network = net;
    step_count = !step_count;
    shannon_count = !shannon_count;
    alpha_count = !alpha_count;
    degraded_to = Budget.stage budget;
    findings = List.rev !findings;
  }

let decompose ?cfg ?budget ?checks ?stats m spec =
  (decompose_report ?cfg ?budget ?checks ?stats m spec).network

let verify m spec net =
  let var_of_input =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun k name -> Hashtbl.add tbl name k) spec.input_names;
    fun name -> Hashtbl.find tbl name
  in
  let got = Network.output_bdds net m ~var_of_input in
  List.for_all
    (fun (name, isf) ->
      match List.assoc_opt name got with
      | Some g -> Isf.extends m g isf
      | None -> false)
    spec.functions
