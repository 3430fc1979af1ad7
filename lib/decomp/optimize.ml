(* The verified rewrite loop.  Facts come from the same engines as the
   SEM lint passes (exact Careflow dataflow, windowed complete DCs);
   every candidate network is audited against the original input before
   it is accepted, so a wrong rewrite costs a revert, never a wrong
   result.

   Rewrites computed from one analysis are applied simultaneously.
   That composition is where the danger lives: two individually-sound
   ODC-based rewrites can invalidate each other (the classic
   compatibility problem of observability don't cares).  Pure
   satisfiability don't cares compose safely — refilling a row no
   cared-for input vector reaches leaves every node's global function
   unchanged on the care set, so every other node's facts stay true.
   Hence the two tiers: [Full] uses everything and leans on the audit,
   [Safe] is the composition-safe retry when the audit says no. *)

type rule =
  | Fold_constant
  | Drop_dead
  | Merge_duplicate
  | Merge_outputs
  | Merge_twins
  | Prune_fanins

let rule_name = function
  | Fold_constant -> "fold-constant"
  | Drop_dead -> "drop-dead"
  | Merge_duplicate -> "merge-duplicate"
  | Merge_outputs -> "merge-outputs"
  | Merge_twins -> "merge-twins"
  | Prune_fanins -> "prune-fanins"

type action = { rule : rule; node : string; detail : string }

type outcome = {
  network : Network.t;
  passes : int;
  reverted : int;
  actions : action list;
  luts_before : int;
  luts_after : int;
  clbs_before : int;
  clbs_after : int;
  audit : Diagnostic.t list;
}

(* ---- per-node facts, from either analysis engine ---- *)

type facts = {
  fa_signal : Network.signal;
  fa_free : Bv.t;  (* bit flippable without changing any cared-for output *)
  fa_unreach : Bv.t;  (* row no cared-for input vector reaches (pure SDC) *)
  fa_dead : bool;  (* ODC covers the whole care space *)
  fa_const : bool option;  (* constant on the care set *)
  fa_const_exact : bool option;  (* constant, full stop (safe tier) *)
  fa_global : Bdd.t option;  (* exact engine only *)
}

let facts_of_exact m care_any info =
  let nvars =
    let n = Array.length info.Careflow.code_sets in
    let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v lsr 1) in
    log2 0 n
  in
  let g = info.Careflow.global in
  {
    fa_signal = info.Careflow.signal;
    fa_free =
      Bv.of_fun nvars (fun c ->
          Bdd.disjoint m info.Careflow.code_sets.(c) info.Careflow.observable);
    fa_unreach =
      Bv.of_fun nvars (fun c -> Bdd.is_zero info.Careflow.code_sets.(c));
    fa_dead = Bdd.is_zero info.Careflow.observable;
    fa_const =
      (if Bdd.equal_on m ~care:care_any g (Bdd.zero m) then Some false
       else if Bdd.equal_on m ~care:care_any g (Bdd.one m) then Some true
       else None);
    fa_const_exact =
      (if Bdd.is_zero g then Some false
       else if Bdd.is_one g then Some true
       else None);
    fa_global = Some g;
  }

let facts_of_window net r =
  if not r.Complete_dc.decided then None
  else
    let k = Bv.nvars r.Complete_dc.care in
    let nrows = 1 lsl k in
    (* A table constant across the window-reachable rows is constant
       everywhere: window reachability over-approximates the real one,
       and every input vector drives the fanins to some code. *)
    let const =
      match Network.view net r.Complete_dc.signal with
      | `Input _ | `Const _ -> None
      | `Lut (_, tt) -> (
          let vals =
            List.filter_map
              (fun c ->
                if Bv.get r.Complete_dc.reachable c then Some (Bv.get tt c)
                else None)
              (List.init nrows Fun.id)
          in
          match vals with
          | v :: rest when List.for_all (fun x -> x = v) rest -> Some v
          | _ -> None)
    in
    Some
      {
        fa_signal = r.Complete_dc.signal;
        fa_free = Bv.not_ r.Complete_dc.care;
        fa_unreach = Bv.not_ r.Complete_dc.reachable;
        fa_dead = Bv.is_zero r.Complete_dc.care;
        fa_const = const;
        fa_const_exact = const;
        fa_global = None;
      }

(* A window the dataflow facts prove finding-free has full care and
   reachability; these are exactly the facts [facts_of_window] would
   have produced for it, at zero SAT cost. *)
let facts_of_screened net s =
  let k = List.length (Network.fanins net s) in
  {
    fa_signal = s;
    fa_free = Bv.create k false;
    fa_unreach = Bv.create k false;
    fa_dead = false;
    fa_const = None;
    fa_const_exact = None;
    fa_global = None;
  }

type analysis = {
  an_facts : facts list;  (* topological order *)
  an_care_any : Bdd.t;
  an_outputs : (string * Bdd.t) list;  (* exact forward pass, may be [] *)
  an_cares : (string * Bdd.t) list;
  an_df : Dataflow.t;  (* cheap-tier facts *)
}

(* The deep lint's three tiers: dataflow, the exact engine screened by
   it, then the shared window stage for whatever the engine did not
   reach.  Window and screened facts are put back in node id order, so
   [decide] sees every fact in topological order whatever order the
   windows ran in. *)
let analyze_network ?care_of_output ?check ?stats m ~var_of_input net =
  let df = Dataflow.analyze net in
  let full_observable =
    Semantics.full_observable_hint ?care_of_output m net df
  in
  let check =
    match check with
    | Some check -> check
    | None -> Careflow.limiter ~max_nodes:4_000_000 ~timeout:30.0 m ()
  in
  let flow =
    Careflow.analyze ?care_of_output ~full_observable ~check m ~var_of_input
      net
  in
  let results, screened, coverage = Semantics.windows net df flow in
  Option.iter (fun st -> Stats.add_coverage st coverage) stats;
  let exact =
    List.map (facts_of_exact m flow.Careflow.care_any) flow.Careflow.nodes
  in
  let windowed =
    List.sort
      (fun a b ->
        compare (Network.signal_id a.fa_signal) (Network.signal_id b.fa_signal))
      (List.filter_map (facts_of_window net) results
      @ List.map (facts_of_screened net) screened)
  in
  {
    an_facts = exact @ windowed;
    an_care_any = flow.Careflow.care_any;
    an_outputs = flow.Careflow.outputs;
    an_cares = flow.Careflow.cares;
    an_df = df;
  }

(* ---- rewrite decisions ---- *)

type decision =
  | Keep
  | Const of bool
  | Alias of Network.signal * bool  (* representative, complemented *)
  | Retable of Network.signal array * Bv.t

type tier = Full | Safe

(* Greedy fanin pruning: a fanin is redundant when every row pair
   differing only in it either agrees or has a refillable side; the
   refill keeps the pinned value where one exists.  This is the node
   re-expressed as an ISF whose dc-set is its complete don't cares.

   [only] restricts the positions tried to a candidate list (original
   fanin indices).  The loop runs high to low, so when it considers
   position [j] only higher positions can have been dropped and [j]
   still names the original fanin — the candidate indices stay valid
   throughout. *)
let prune_fanins ?only fanins tt free =
  let candidate j =
    match only with None -> true | Some l -> List.mem j l
  in
  let fanins = ref (Array.of_list fanins) in
  let tt = ref tt and free = ref free in
  let dropped = ref [] in
  let j = ref (Array.length !fanins - 1) in
  while !j >= 0 do
    let k = Array.length !fanins in
    let bit = 1 lsl !j in
    let can =
      candidate !j
      && List.for_all
           (fun c ->
             c land bit <> 0
             || Bv.get !free c
             || Bv.get !free (c lor bit)
             || Bv.get !tt c = Bv.get !tt (c lor bit))
           (List.init (1 lsl k) Fun.id)
    in
    if can then begin
      let expand c' =
        (* insert a 0 at position j of the (k-1)-variable code *)
        let low = c' land (bit - 1) in
        let high = (c' lsr !j) lsl (!j + 1) in
        high lor low
      in
      let value c' =
        let c0 = expand c' in
        let c1 = c0 lor bit in
        if not (Bv.get !free c0) then Bv.get !tt c0
        else if not (Bv.get !free c1) then Bv.get !tt c1
        else false
      in
      let freedom c' =
        let c0 = expand c' in
        Bv.get !free c0 && Bv.get !free (c0 lor bit)
      in
      dropped := !fanins.(!j) :: !dropped;
      fanins :=
        Array.append (Array.sub !fanins 0 !j)
          (Array.sub !fanins (!j + 1) (k - 1 - !j));
      tt := Bv.of_fun (k - 1) value;
      free := Bv.of_fun (k - 1) freedom
    end;
    decr j
  done;
  (!fanins, !tt, List.rev !dropped)

(* One set of simultaneous decisions over one analysis.  Returns the
   per-node decisions, the output redirections (duplicate output ->
   representative output) and the action log. *)
let decide ~screened tier m net an =
  let name_of = Net_check.namer net in
  let no_care = Bdd.is_zero an.an_care_any in
  let decisions = Hashtbl.create 64 in
  let redirects = ref [] in
  let actions = ref [] in
  let act rule s detail =
    actions := { rule; node = name_of s; detail } :: !actions
  in
  let decided s = Hashtbl.mem decisions (Network.signal_id s) in
  let set s d = Hashtbl.replace decisions (Network.signal_id s) d in
  let free_of f = match tier with Full -> f.fa_free | Safe -> f.fa_unreach in
  if not no_care then begin
    (* 1. constants and dead nodes *)
    List.iter
      (fun f ->
        match tier with
        | Full -> (
            match f.fa_const with
            | Some v ->
                set f.fa_signal (Const v);
                act Fold_constant f.fa_signal
                  (Printf.sprintf "constant %d on the care set" (Bool.to_int v))
            | None ->
                if f.fa_dead then begin
                  set f.fa_signal (Const false);
                  act Drop_dead f.fa_signal
                    "complementing it never changes a cared-for output"
                end)
        | Safe -> (
            match f.fa_const_exact with
            | Some v ->
                set f.fa_signal (Const v);
                act Fold_constant f.fa_signal
                  (Printf.sprintf "computes constant %d" (Bool.to_int v))
            | None -> ()))
      an.an_facts;
    (* 2. semantic duplicates (exact engine only: needs globals).  The
       representative must precede the node in id order — the rebuild
       maps ids ascending, so an alias can only point backwards. *)
    let reps = ref [] in
    List.iter
      (fun f ->
        match f.fa_global with
        | None -> ()
        | Some g ->
            if not (decided f.fa_signal) then begin
              let found =
                List.find_opt
                  (fun (rs, rg) ->
                    Network.signal_id rs < Network.signal_id f.fa_signal
                    &&
                    match tier with
                    | Safe -> Bdd.equal g rg
                    | Full ->
                        Bdd.equal_on m ~care:an.an_care_any g rg
                        || (List.length (Network.fanins net f.fa_signal) >= 2
                            && Bdd.equal_on m ~care:an.an_care_any
                                 (Bdd.not_ m g) rg))
                  !reps
              in
              match found with
              | Some (rs, rg) ->
                  let complemented =
                    match tier with
                    | Safe -> false
                    | Full -> not (Bdd.equal_on m ~care:an.an_care_any g rg)
                  in
                  set f.fa_signal (Alias (rs, complemented));
                  act Merge_duplicate f.fa_signal
                    (Printf.sprintf "same function as %s%s" (name_of rs)
                       (if complemented then " (complemented)" else ""))
              | None -> reps := (f.fa_signal, g) :: !reps
            end)
      an.an_facts;
    (* 3. identical outputs: repoint the later at the earlier's driver *)
    let rec out_pairs = function
      | [] -> ()
      | (name, g) :: rest ->
          List.iter
            (fun (name', g') ->
              if not (List.mem_assoc name' !redirects) then begin
                let same =
                  match tier with
                  | Safe -> Bdd.equal g g'
                  | Full ->
                      let care =
                        Bdd.or_ m
                          (List.assoc name an.an_cares)
                          (List.assoc name' an.an_cares)
                      in
                      (not (Bdd.is_zero care)) && Bdd.equal_on m ~care g g'
                in
                let d = List.assoc name (Network.outputs net)
                and d' = List.assoc name' (Network.outputs net) in
                if same && not (Network.signal_equal d d') then begin
                  redirects := (name', name) :: !redirects;
                  actions :=
                    {
                      rule = Merge_outputs;
                      node = name';
                      detail = Printf.sprintf "identical to output %s" name;
                    }
                    :: !actions
                end
              end)
            rest;
          out_pairs rest
    in
    out_pairs an.an_outputs;
    (* 4. mergeable twins: same canonical fanin set, and every table
       disagreement falls on a bit at least one side may flip.  All
       compatible members are retabled to one merged table, which the
       rebuild's structural hashing then unifies into a single LUT. *)
    let groups = Hashtbl.create 16 in
    let group_keys = ref [] in
    List.iter
      (fun f ->
        if not (decided f.fa_signal) then
          match Network.view net f.fa_signal with
          | `Input _ | `Const _ -> ()
          | `Lut (fanins, tt) ->
              let sorted, ctt, remap = Net_check.canonical_lut fanins tt in
              let key =
                String.concat ","
                  (Array.to_list
                     (Array.map
                        (fun s -> string_of_int (Network.signal_id s))
                        sorted))
              in
              if not (Hashtbl.mem groups key) then
                group_keys := key :: !group_keys;
              Hashtbl.add groups key (f, sorted, ctt, remap))
      an.an_facts;
    List.iter
      (fun key ->
        match List.rev (Hashtbl.find_all groups key) with
        | [] | [ _ ] -> ()
        | (rep, sorted, rep_tt, rep_remap) :: rest ->
            let k = Bv.nvars rep_tt in
            let nrows = 1 lsl k in
            let codes = List.init nrows Fun.id in
            (* merged table state: value + pinned (some member fixed it) *)
            let value = Array.init nrows (fun c -> Bv.get rep_tt c) in
            let pinned =
              Array.init nrows (fun c ->
                  not (Bv.get (free_of rep) (rep_remap c)))
            in
            let merged = ref [] in
            List.iter
              (fun (f, _, ctt, remap) ->
                let compatible =
                  List.for_all
                    (fun c ->
                      let fixed = not (Bv.get (free_of f) (remap c)) in
                      (not fixed)
                      || (not pinned.(c))
                      || value.(c) = Bv.get ctt c)
                    codes
                in
                if compatible then begin
                  List.iter
                    (fun c ->
                      if not (Bv.get (free_of f) (remap c)) then begin
                        value.(c) <- Bv.get ctt c;
                        pinned.(c) <- true
                      end)
                    codes;
                  merged := f :: !merged
                end)
              rest;
            if !merged <> [] then begin
              let tt' = Bv.of_fun k (fun c -> value.(c)) in
              set rep.fa_signal (Retable (sorted, tt'));
              List.iter
                (fun f ->
                  set f.fa_signal (Retable (sorted, tt'));
                  act Merge_twins f.fa_signal
                    (Printf.sprintf "free bits refilled to match LUT %s"
                       (name_of rep.fa_signal)))
                !merged
            end)
      (List.rev !group_keys);
    (* 5. fanin pruning on whatever is left.  When the table has no
       freedom (free vector all zero) a fanin is droppable exactly when
       the table ignores it — which the cheap dataflow tier already
       decided — so the trials are restricted to its SUP candidates
       (vacuous and support-contained positions) and a node with none
       is skipped outright. *)
    List.iter
      (fun f ->
        if not (decided f.fa_signal) then
          match Network.view net f.fa_signal with
          | `Input _ | `Const _ -> ()
          | `Lut (fanins, tt) ->
              let only =
                if not (Bv.is_zero (free_of f)) then None
                else
                  Option.map
                    (fun nf ->
                      List.sort_uniq compare
                        (nf.Dataflow.nf_vacuous @ nf.Dataflow.nf_contained))
                    (Dataflow.fact_of an.an_df f.fa_signal)
              in
              let fanins = Array.to_list fanins in
              if fanins <> [] then
                match only with
                | Some [] -> incr screened  (* provably nothing to prune *)
                | _ ->
                    let fanins', tt', dropped =
                      prune_fanins ?only fanins tt (free_of f)
                    in
                    if dropped <> [] then begin
                      (if Array.length fanins' = 0 then
                         set f.fa_signal (Const (Bv.get tt' 0))
                       else set f.fa_signal (Retable (fanins', tt')));
                      act Prune_fanins f.fa_signal
                        (Printf.sprintf "dropped redundant fanin%s %s"
                           (if List.length dropped > 1 then "s" else "")
                           (String.concat ", " (List.map name_of dropped)))
                    end)
      an.an_facts
  end;
  (decisions, !redirects, List.rev !actions)

(* ---- rebuild ---- *)

let rebuild net decisions redirects =
  let out = Network.create () in
  let map = Hashtbl.create 64 in
  let input_sig = Hashtbl.create 16 in
  (* preserve every declared input, referenced or not *)
  List.iter
    (fun (name, s) ->
      let ns =
        match Hashtbl.find_opt input_sig name with
        | Some ns -> ns
        | None ->
            let ns = Network.add_input out name in
            Hashtbl.add input_sig name ns;
            ns
      in
      Hashtbl.replace map (Network.signal_id s) ns)
    (Network.inputs net);
  let mapped s =
    match Hashtbl.find_opt map (Network.signal_id s) with
    | Some ns -> ns
    | None ->
        invalid_arg
          (Printf.sprintf "Optimize.rebuild: fanin n%d out of order"
             (Network.signal_id s))
  in
  (* ids are allocated fanins-first, so id order is a topological order *)
  for i = 0 to Network.node_count net - 1 do
    let s = Network.signal_of_id net i in
    if not (Hashtbl.mem map i) then
      match Network.view net s with
      | `Input name -> Hashtbl.replace map i (Network.add_input out name)
      | `Const b -> Hashtbl.replace map i (Network.const out b)
      | `Lut (fanins, tt) ->
          let ns =
            match Option.value ~default:Keep (Hashtbl.find_opt decisions i) with
            | Keep ->
                Network.add_lut out
                  ~fanins:(List.map mapped (Array.to_list fanins))
                  ~tt
            | Const b -> Network.const out b
            | Alias (rep, complemented) ->
                let r = mapped rep in
                if complemented then Network.not_gate out r else r
            | Retable (fanins', tt') ->
                Network.add_lut out
                  ~fanins:(List.map mapped (Array.to_list fanins'))
                  ~tt:tt'
          in
          Hashtbl.replace map i ns
  done;
  let out_driver = Network.outputs net in
  List.iter
    (fun (name, s) ->
      let target =
        match List.assoc_opt name redirects with
        | Some rep_name ->
            Option.value ~default:s (List.assoc_opt rep_name out_driver)
        | None -> s
      in
      Network.set_output out name (mapped target))
    out_driver;
  Network.sweep out

(* ---- the loop ---- *)

type attempt = Accepted of Network.t * action list | Rejected | Nothing

let run ?care_of_output ?(max_passes = 4) ?(audit_engine = `Bdd) ?check
    ?stats m net0 =
  let inputs = List.mapi (fun k (name, _) -> (name, k)) (Network.inputs net0) in
  let var_of_input name =
    match List.assoc_opt name inputs with
    | Some v -> v
    | None ->
        invalid_arg (Printf.sprintf "Optimize.run: unmapped input %s" name)
  in
  let audit_candidate cand =
    match audit_engine with
    | `Bdd ->
        Semantics.audit ?care_of_output m ~inputs ~golden:net0 ~candidate:cand
    | `Sat ->
        (* stricter than the care-set audit (full equivalence), so it is
           a sound guard even though it ignores [care_of_output]; an
           Unknown verdict counts as a rejection *)
        let a =
          Semantics.audit_sat ~golden:net0 ~candidate:cand (List.map fst inputs)
        in
        (match stats with
        | Some st ->
            st.Stats.sat_calls <-
              st.Stats.sat_calls + a.Semantics.audit_sat_calls;
            st.Stats.sat_conflicts <-
              st.Stats.sat_conflicts + a.Semantics.audit_sat_conflicts
        | None -> ());
        a.Semantics.audit_findings
  in
  let luts_of n = (Network.stats n).Network.lut_count in
  let clbs_of n = Clb.clb_count Clb.Max_matching n in
  let luts_before = luts_of net0 and clbs_before = clbs_of net0 in
  let rec loop net passes reverted actions =
    if passes >= max_passes then (net, passes, reverted, actions)
    else begin
      let an = analyze_network ?care_of_output ?check ?stats m ~var_of_input net in
      let attempt tier =
        let screened = ref 0 in
        let decisions, redirects, acts = decide ~screened tier m net an in
        (match stats with
        | Some st ->
            st.Stats.screened_out <- st.Stats.screened_out + !screened
        | None -> ());
        if acts = [] then Nothing
        else begin
          let cand = rebuild net decisions redirects in
          (* a rewrite pass must never grow the network *)
          if luts_of cand > luts_of net then Rejected
          else if audit_candidate cand = [] then Accepted (cand, acts)
          else Rejected
        end
      in
      match attempt Full with
      | Accepted (cand, acts) -> loop cand (passes + 1) reverted (actions @ acts)
      | Nothing -> (net, passes, reverted, actions)
      | Rejected -> (
          match attempt Safe with
          | Accepted (cand, acts) ->
              loop cand (passes + 1) (reverted + 1) (actions @ acts)
          | Nothing -> (net, passes, reverted + 1, actions)
          | Rejected -> (net, passes, reverted + 2, actions))
    end
  in
  let net, passes, reverted, actions = loop net0 0 0 [] in
  let audit = if passes = 0 then [] else audit_candidate net in
  {
    network = net;
    passes;
    reverted;
    actions;
    luts_before;
    luts_after = luts_of net;
    clbs_before;
    clbs_after = clbs_of net;
    audit;
  }
