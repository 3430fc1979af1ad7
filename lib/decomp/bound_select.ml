let worst = Cost.worst

(* [supports] holds [Isf.support] of each ISF, in order.  Each ISF is
   cofactored over [bound inter supp f] only: fixing a variable outside
   its support leaves every cofactor the same node, so the vector over
   the intersection, read through the projection, gives exactly the
   classes of the vector over [bound].  With [decide] (the search), no
   vector over the intersection is built: the classes are decided on
   the halves of its parent's entries ([Classes.split]). *)
let score_against ?cache ?stats ?(lut_size = max_int) ?(cost = Cost.area)
    ~decide m isfs supports bound =
  let stats =
    match cache with
    | Some c -> Score_cache.stats c
    | None -> ( match stats with Some s -> s | None -> Stats.create ())
  in
  stats.Stats.score_calls <- stats.Stats.score_calls + 1;
  let relevant =
    List.fold_right2
      (fun f support acc ->
        match Classes.inter bound support with
        | [] -> acc
        | sub -> (f, sub) :: acc)
      isfs supports []
  in
  (* A bound set no ISF depends on reduces nothing: decomposing against
     it is a pure renaming.  It must lose against every genuine
     candidate in BOTH scoring orders — the joint-first order's first
     component is >= 1 for any real candidate, so anything smaller
     (e.g. the old (0, 1)) would make a vacuous window seed win the
     whole selection. *)
  if relevant = [] then worst
  else begin
    let key () =
      Score_cache.score_key ~lut_size ~cost (List.map fst relevant) bound
    in
    let memo =
      match cache with
      | Some c -> Score_cache.find_score c (key ())
      | None -> None
    in
    match memo with
    | Some s ->
        stats.Stats.score_hits <- stats.Stats.score_hits + 1;
        s
    | None ->
        (* Per-output class counts and the joint count from one
           numbering, refined output by output; the overlap of an ISF
           with the bound set is [|sub|]. *)
        let classes = Classes.numbering bound in
        let reduction =
          List.fold_left
            (fun acc (f, sub) ->
              let cofs =
                if decide then Classes.split ?cache m f sub
                else Classes.Vector (Classes.cofactor_vector ?cache m f sub)
              in
              let own = Classes.refine m classes sub cofs in
              acc + max 0 (List.length sub - Bits.ceil_log2 own))
            0 relevant
        in
        stats.Stats.split_compares <-
          stats.Stats.split_compares + Classes.compares classes;
        let joint = Classes.count classes in
        (* Net benefit: support reduction minus the realization cost of the
           decomposition functions.  ceil(log2 joint) is the paper's lower
           bound on how many distinct functions the step needs; each costs
           one LUT when the bound set fits a LUT and a small sub-network
           otherwise. *)
        let p = List.length bound in
        let realization =
          (* Bound sets within the LUT size pay nothing extra: their
             functions are single LUTs either way.  Oversized (Curtis) bound
             sets pay the sub-network realization of each estimated
             function. *)
          if p <= lut_size then 0
          else Bits.ceil_log2 joint * (1 + ((p - 2) / max 1 (lut_size - 1)))
        in
        (* Gate-level synthesis keys on the achieved support reduction (a
           missed reducing pair costs a Shannon cascade); at realistic LUT
           sizes the paper's criterion — minimize the communication
           complexity [ncc(f, B)] of the step — comes first and the
           reduction only breaks ties. *)
        let pair =
          if lut_size <= 3 then (-(reduction - realization), joint)
          else (joint + realization, -reduction)
        in
        (* The objective owns the leading component: 0 under Area (the
           ordering collapses to the classical pair), the arrival time
           of the would-be decomposition functions under Delay. *)
        let result = Cost.triple cost ~bound pair in
        (match cache with
        | Some c -> Score_cache.add_score c (key ()) result
        | None -> ());
        result
  end

let score ?cache ?stats ?lut_size ?cost m isfs bound =
  let rec ascending = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a < b && ascending rest
  in
  if not (ascending bound) then
    invalid_arg "Bound_select.score: bound set not strictly ascending";
  let supports = List.map (Isf.support m) isfs in
  score_against ?cache ?stats ?lut_size ?cost ~decide:false m isfs supports
    bound

let select_with_target ?cache ?cost ?(check = ignore) ?(min_size = 2) m cfg
    ~groups ~eligible isfs target =
  if target < 2 then None
  else begin
    (* Every candidate is scored against the same ISFs: read each
       support once per search. *)
    let supports = List.map (Isf.support m) isfs in
    (* Every candidate is decided on the halves of a cached parent
       vector; only the growth's winners build theirs ([commit]). *)
    let score bound =
      score_against ?cache ~lut_size:cfg.Config.lut_size ?cost ~decide:true m
        isfs supports bound
    in
    (* The growth extends [current] by one piece per level, so each
       ISF's vector over [current inter supp f] is the parent every
       split of the next level reads: build it once, from its own
       cached parent.  Without a cache a split builds its parent
       anyway. *)
    let commit current =
      match cache with
      | Some c when List.length current < target ->
          let current = List.sort compare current in
          List.iter2
            (fun f support ->
              ignore
                (Classes.cofactor_vector ~cache:c m f
                   (Classes.inter current support)))
            isfs supports
      | Some _ | None -> ()
    in
    let in_eligible v = List.mem v eligible in
    (* Atoms: symmetry groups cut down to eligible variables, split into
       chunks no larger than the target; leftover variables become
       singleton atoms. *)
    let rec chunks k = function
      | [] -> []
      | vars ->
          let rec take acc i = function
            | [] -> (List.rev acc, [])
            | x :: rest when i < k -> take (x :: acc) (i + 1) rest
            | rest -> (List.rev acc, rest)
          in
          let c, rest = take [] 0 vars in
          c :: chunks k rest
    in
    let grouped =
      List.concat_map
        (fun g -> chunks target (List.filter in_eligible (Symmetry.group_vars g)))
        groups
      |> List.filter (fun c -> c <> [])
    in
    (* Groups are additional atoms, not a partition: every variable is
       also available individually, so a misleading potential-symmetry
       group cannot lock the search out of better mixed bound sets. *)
    let singles = List.map (fun v -> [ v ]) eligible in
    let atoms =
      List.filter (fun g -> List.length g >= 2) grouped @ singles
    in
    (* Grow a candidate from a seed atom, adding the atom (or atom
       prefix) that minimizes the score until the target size. *)
    let grow seed =
      let rec loop acc current =
        check ();
        let size = List.length current in
        let acc = if size >= target then List.sort compare current :: acc else acc in
        if size >= target then acc
        else begin
          let room = target - size in
          let extensions =
            List.filter_map
              (fun atom ->
                let atom = List.filter (fun v -> not (List.mem v current)) atom in
                match atom with
                | [] -> None
                | _ ->
                    let take = chunks room atom in
                    (match take with [] -> None | piece :: _ -> Some piece))
              atoms
          in
          match extensions with
          | [] -> acc
          | _ ->
              let scored =
                List.map
                  (fun piece ->
                    let cand = List.sort compare (piece @ current) in
                    (score cand, piece))
                  extensions
              in
              let best =
                List.fold_left
                  (fun (bs, bp) (s, p) -> if s < bs then (s, p) else (bs, bp))
                  (List.hd scored |> fst, List.hd scored |> snd)
                  (List.tl scored)
              in
              let current = snd best @ current in
              commit current;
              loop acc current
        end
      in
      loop [] seed
    in
    (* Seeds: with a small region every atom seeds its own greedy
       growth (the pair search is then effectively exhaustive for
       2-input LUTs); otherwise the largest atoms plus an even spread of
       the rest, up to the configured count. *)
    let seeds =
      (* Gate-level synthesis (tiny LUTs) needs the effectively
         exhaustive pair search — missing the one reducing pair of an
         adder stage costs a Shannon cascade.  At realistic LUT sizes
         the configured seed count reproduces the paper's heuristic
         search effort. *)
      if cfg.Config.lut_size <= 3 && List.length atoms <= 24 then atoms
      else begin
        let by_size =
          List.sort (fun a b -> compare (List.length b) (List.length a)) atoms
        in
        let rec take k = function
          | [] -> []
          | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
        in
        let count = max 1 cfg.Config.seeds in
        let head = take count by_size in
        let n_atoms = List.length atoms in
        let spread =
          List.filteri (fun i _ -> i mod (1 + (n_atoms / count)) = 0) atoms
        in
        (* [head] and [spread] overlap (the largest atoms can appear in
           both); growing the same seed twice would just redo identical
           score queries. *)
        let seen = Hashtbl.create 16 in
        List.filter
          (fun atom ->
            if Hashtbl.mem seen atom then false
            else begin
              Hashtbl.add seen atom ();
              true
            end)
          (head @ spread)
      end
    in
    let window =
      let rec take k = function
        | [] -> []
        | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
      in
      take target eligible
    in
    let candidates = window :: List.concat_map grow seeds in
    let candidates =
      List.filter
        (fun c -> List.length c >= min_size)
        (List.map (List.sort compare) candidates)
    in
    let best_of = function
      | [] -> None
      | first :: rest ->
          let rate cand =
            check ();
            score cand
          in
          Some
            (List.fold_left
               (fun (bs, bc) cand ->
                 let s = rate cand in
                 if s < bs then (s, cand) else (bs, bc))
               (rate first, first)
               rest)
    in
    match best_of candidates with
    | Some (score, cand) -> Some (score, cand)
    | None -> None
  end

let select ?cache ?cost ?check m cfg ~groups ~eligible isfs =
  let eligible = List.sort_uniq compare eligible in
  let n = List.length eligible in
  let lut_target = min cfg.Config.lut_size (n - 1) in
  match
    select_with_target ?cache ?cost ?check m cfg ~groups ~eligible isfs
      lut_target
  with
  | Some (_, cand) -> Some cand
  | None -> None

(* An oversized (Curtis) bound set, one variable beyond the LUT size:
   its decomposition functions become sub-networks, so it is only
   offered when its net benefit is positive — the driver asks for it
   after a LUT-sized step failed to make progress (symmetric
   carry/weight functions at small LUT sizes need exactly this). *)
let select_curtis ?cache ?cost ?check ?(extra = 1) m cfg ~groups ~eligible isfs
    =
  let eligible = List.sort_uniq compare eligible in
  let n = List.length eligible in
  let lut_target = min cfg.Config.lut_size (n - 1) in
  let extended = min (max (cfg.Config.lut_size + extra) 3) (n - 1) in
  if extended <= lut_target then None
  else
    match
      select_with_target ?cache ?cost ?check ~min_size:(lut_target + 1) m cfg
        ~groups ~eligible isfs extended
    with
    | Some (_, cand) ->
        (* The caller only asks after a LUT-sized step failed, where the
           alternative is Shannon expansion; the step itself verifies
           actual progress (don't-care merging often reduces classes the
           distinct-cofactor estimate cannot see), so the best extended
           candidate is always worth one attempt. *)
        Some cand
    | None -> None
