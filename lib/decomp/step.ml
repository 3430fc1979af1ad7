type alpha = { pool_id : int; var : int; func : Bdd.t }

type result = {
  alphas : alpha list;
  g : Isf.t array;
  r : int array;
  joint_classes : int;
}

let total_alpha_lower_bound result = Bits.ceil_log2 result.joint_classes

let coloring_of cfg g =
  match Coloring.exact ~limit:cfg.Config.exact_coloring_limit g with
  | Some colors -> colors
  | None -> Coloring.dsatur g

(* Cost-aware class merging: a proper coloring of the incompatibility
   graph in which every merge prefers classes with {e identical}
   cofactors (no don't-care commitment at all) and otherwise the color
   whose joined cofactor grows the least.  Merging beyond what reduces
   [ceil(log2 K)] spends don't cares without buying anything, so if the
   cost-aware pass needs more code bits than the minimum coloring it
   falls back to the latter.  [cof v] lists the cofactors (one per
   output considered) of class [v]; pairwise compatibility — encoded as
   non-adjacency in [g] — implies joint consistency, because on/off
   conflicts are always between exactly two classes.

   The minimum coloring can only win with fewer code bits, so when the
   merge needs b bits the decision search first asks whether
   2^(b-1) colors suffice.  A proved "no" means every proper coloring —
   the exact optimum and its DSATUR fallback alike — needs b bits too,
   so the merge stands without building either; otherwise (yes, or the
   search gave up) the comparison runs as it always did. *)
let merge_coloring ?(budget = Budget.unlimited) m cfg g cof =
  let n = Ugraph.n g in
  let order =
    List.init n Fun.id
    |> List.sort (fun a b -> compare (Ugraph.degree g b) (Ugraph.degree g a))
  in
  let colors = Array.make n (-1) in
  let members : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let joined : (int, Isf.t list) Hashtbl.t = Hashtbl.create 8 in
  let ncolors = ref 0 in
  let isf_sizes fs =
    List.fold_left
      (fun acc f -> acc + Bdd.size (Isf.on f) + Bdd.size (Isf.dc f))
      0 fs
  in
  List.iter
    (fun v ->
      Budget.check budget ~where:"step/coloring";
      let cv = cof v in
      let feasible c =
        List.for_all (fun w -> not (Ugraph.has_edge g v w)) (Hashtbl.find members c)
      in
      let candidates = List.filter feasible (List.init !ncolors Fun.id) in
      let exact_match =
        List.find_opt
          (fun c -> List.for_all2 Isf.equal (Hashtbl.find joined c) cv)
          candidates
      in
      let choice =
        match exact_match with
        | Some c -> Some (c, Hashtbl.find joined c)
        | None ->
            let scored =
              List.map
                (fun c ->
                  let j =
                    List.map2
                      (fun a b -> Isf.join m [ a; b ])
                      (Hashtbl.find joined c) cv
                  in
                  (isf_sizes j, c, j))
                candidates
            in
            (match List.sort (fun (a, _, _) (b, _, _) -> compare a b) scored with
            | (_, c, j) :: _ -> Some (c, j)
            | [] -> None)
      in
      match choice with
      | Some (c, j) ->
          colors.(v) <- c;
          Hashtbl.replace members c (v :: Hashtbl.find members c);
          Hashtbl.replace joined c j
      | None ->
          let c = !ncolors in
          incr ncolors;
          colors.(v) <- c;
          Hashtbl.replace members c [ v ];
          Hashtbl.replace joined c cv)
    order;
  (* [colors] holds 0..ncolors-1 in first-use order already. *)
  let b = Bits.ceil_log2 !ncolors in
  let limit = cfg.Config.exact_coloring_limit in
  if b = 0 || Coloring.colorable ~limit g (1 lsl (b - 1)) = Some false then colors
  else
    let best = coloring_of cfg g in
    if Bits.ceil_log2 (Coloring.color_count best) < b then best else colors

(* Group one item's cofactors by identical on-sets: the step-3-disabled
   fallback.  For completely specified functions this is the classical
   class computation; cofactors with equal on-sets but different don't-
   care sets are always mutually compatible (a conflict needs an on/off
   disagreement), so merging them is sound and avoids fragmenting the
   classes when don't cares are carried but not otherwise exploited. *)
let classes_by_equality cofs =
  let table = Hashtbl.create 16 in
  let class_of = Array.make (Array.length cofs) (-1) in
  Array.iteri
    (fun idx f ->
      let key = Bdd.id (Isf.on f) in
      match Hashtbl.find_opt table key with
      | Some c -> class_of.(idx) <- c
      | None ->
          let c = Hashtbl.length table in
          Hashtbl.add table key c;
          class_of.(idx) <- c)
    cofs;
  (class_of, Hashtbl.length table)

(* Renumber colors by first occurrence so that class identifiers align
   across outputs (vertices are enumerated in the same order for every
   output); the encoder's code assignment is sensitive to this order and
   aligned numbering maximizes sharing of decomposition functions. *)
let canonicalize_colors colors =
  let renum = Hashtbl.create 8 in
  Array.map
    (fun c ->
      match Hashtbl.find_opt renum c with
      | Some c' -> c'
      | None ->
          let c' = Hashtbl.length renum in
          Hashtbl.add renum c c';
          c')
    colors

(* The join of the class cofactors, each guarded by its code minterm:
   class c constrains g only where mt_c holds, so its interval is
   [mt_c /\ on_c, not mt_c \/ up_c].  The joined upper bound is the
   complement of the off-set \/ (mt_c /\ off_c), so the check and the
   dc-set are those of [Isf.of_on_off] on that off-set, codes shared by
   two classes and unused codes included, and no off-set is built. *)
let compose m ~vars codes cofs =
  let on = ref (Bdd.zero m) and up = ref (Bdd.one m) in
  Array.iteri
    (fun c code ->
      let mt = Bdd.minterm_of_code m vars code in
      on := Bdd.or_ m !on (Bdd.and_ m mt (Isf.on cofs.(c)));
      up := Bdd.and_ m !up (Bdd.ite m mt (Isf.up m cofs.(c)) (Bdd.one m)))
    codes;
  Isf.of_on_up m ~on:!on ~up:!up

let run ?(budget = Budget.unlimited) ?(checks = Diagnostic.Off)
    ?(emit = fun (_ : Diagnostic.t) -> ()) ?(stats = Stats.create ()) ?cache m
    cfg ~fresh_var isfs ~bound =
  let checking = Diagnostic.at_least checks Diagnostic.Cheap in
  let clock = Stats.clock stats in
  let phase name =
    let dt = Stats.mark clock ("step/" ^ name) in
    if dt > 0.2 then Logs.debug (fun k -> k "    step/%s: %.2fs" name dt);
    Budget.check budget ~where:("step/" ^ name)
  in
  let nitems = Array.length isfs in
  let info = Classes.cofactor_matrix ?cache m (Array.to_list isfs) bound in
  phase "cofactor-matrix";
  let nnodes = Classes.nnodes info in
  (* ---- step 2: joint classes (sharing-aware don't-care assignment).
     Color the joint incompatibility graph; each color class is merged,
     which is exactly an assignment of don't cares (on/off sets of the
     members are united).  Without the step, nodes stay separate. *)
  let class_of_node, n_joint =
    if cfg.Config.dc_steps.Config.sharing then begin
      let g = Classes.joint_incompat m info in
      let colors =
        canonicalize_colors
          (merge_coloring ~budget m cfg g (fun v ->
               Array.to_list info.Classes.node_cof.(v)))
      in
      if checking then
        Option.iter emit
          (Invariant.check_proper_cover g colors ~where:"step2/joint-cover");
      (colors, Coloring.color_count colors)
    end
    else (Array.init nnodes Fun.id, nnodes)
  in
  phase "step2";
  (* Joined cofactor of every joint class, per item. *)
  let joint_cof =
    Array.init nitems (fun i ->
        let members = Array.make n_joint [] in
        Array.iteri
          (fun node c -> members.(c) <- info.Classes.node_cof.(node).(i) :: members.(c))
          class_of_node;
        Array.map (Isf.join m) members)
  in
  (* ---- step 3: per-output classes (Chang & Marek-Sadowska).  Operates
     on the joint classes (never splitting them, so the step-2 lower
     bound is preserved).  Without the step, merge only equal
     cofactors. *)
  let per_output =
    Array.init nitems (fun i ->
        if cfg.Config.dc_steps.Config.cms then begin
          let g = Classes.incompat m joint_cof.(i) in
          let colors =
            canonicalize_colors
              (merge_coloring ~budget m cfg g (fun jc -> [ joint_cof.(i).(jc) ]))
          in
          if checking then
            Option.iter emit
              (Invariant.check_proper_cover g colors
                 ~where:(Printf.sprintf "step3/output-%d-cover" i));
          (colors, Coloring.color_count colors)
        end
        else classes_by_equality joint_cof.(i))
  in
  phase "step3";
  (* Final per-output cofactor of every per-output class: join over the
     joint classes wearing that color. *)
  let out_cof =
    Array.init nitems (fun i ->
        let color_of_joint, ncolors = per_output.(i) in
        let members = Array.make ncolors [] in
        Array.iteri
          (fun jc color -> members.(color) <- joint_cof.(i).(jc) :: members.(color))
          color_of_joint;
        Array.map (Isf.join m) members)
  in
  (* ---- encode: classes of nodes per output -> codes + shared alphas *)
  let specs =
    Array.init nitems (fun i ->
        let color_of_joint, ncolors = per_output.(i) in
        {
          Encode.class_of_node =
            Array.map (fun jc -> color_of_joint.(jc)) class_of_node;
          nclasses = ncolors;
        })
  in
  phase "out-cof";
  let enc = Encode.encode specs in
  if not (Encode.check specs enc) then
    if checking then
      emit
        (Diagnostic.make ~loc:"step/encode" "DEC005"
           "codes are not distinct per output, or an alpha is not strict")
    else assert false;
  phase "encode";
  (* ---- alphas as BDDs over the bound variables *)
  let zero = Bdd.zero m and one = Bdd.one m in
  let nverts = Classes.nvertices info in
  let alphas =
    List.mapi
      (fun pool_id bits ->
        let vec =
          Array.init nverts (fun v ->
              if bits.(info.Classes.node_of_vertex.(v)) then one else zero)
        in
        { pool_id; var = fresh_var (); func = Bdd.of_vector m bound vec })
      enc.Encode.pool
  in
  phase "alphas";
  let var_of_pool = Array.of_list (List.map (fun a -> a.var) alphas) in
  (* ---- composition functions *)
  let g =
    Array.init nitems (fun i ->
        let { Encode.alpha_ids; code_of_class } = enc.Encode.outputs.(i) in
        let vars = List.map (fun id -> var_of_pool.(id)) alpha_ids in
        compose m ~vars code_of_class out_cof.(i))
  in
  let g =
    if cfg.Config.zero_dc_on_entry then Array.map (Isf.assign_all_zero m) g
    else g
  in
  phase "g-construction";
  let r = Array.map (fun e -> List.length e.Encode.alpha_ids) enc.Encode.outputs in
  if checking then
    Array.iteri
      (fun i ri ->
        Option.iter emit
          (Invariant.check_alpha_count
             ~where:(Printf.sprintf "step/encode output %d" i)
             ~nclasses:(snd per_output.(i)) ~r:ri))
      r;
  (* Keep only alphas actually used by some output (an output with K=1
     uses none). *)
  let used = Array.make (Array.length var_of_pool) false in
  Array.iter
    (fun e -> List.iter (fun id -> used.(id) <- true) e.Encode.alpha_ids)
    enc.Encode.outputs;
  let alphas = List.filter (fun a -> used.(a.pool_id)) alphas in
  { alphas; g; r; joint_classes = n_joint }
