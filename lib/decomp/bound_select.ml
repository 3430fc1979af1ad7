let worst = Cost.worst

type memo = (int list, int * int * int) Hashtbl.t

let memo () : memo = Hashtbl.create 64

let memoized (memo : memo) =
  List.sort compare
    (Hashtbl.fold (fun bound s acc -> (bound, s) :: acc) memo [])

(* [supports.(i)] holds [Isf.support] of ISF [i].  Each ISF is
   cofactored over [bound inter supp f] only: fixing a variable outside
   its support leaves every cofactor the same node, so the vector over
   the intersection, read through the projection, gives exactly the
   classes of the vector over [bound].  [cofactors i sub] is what ISF
   [i] reads over its non-empty [sub]: a vector, or the halves of a
   parent's entries ([Classes.refine]).  [memo] holds the scores of
   this one ISF list under this [lut_size] and [cost], so the bound set
   alone keys them. *)
let score_against ~stats ~lut_size ~cost ?memo m supports cofactors bound =
  stats.Stats.score_calls <- stats.Stats.score_calls + 1;
  match match memo with Some t -> Hashtbl.find_opt t bound | None -> None with
  | Some s ->
      stats.Stats.score_hits <- stats.Stats.score_hits + 1;
      s
  | None ->
      (* Per-output class counts and the joint count from one
         numbering, refined output by output; the overlap of an ISF
         with the bound set is [|sub|]. *)
      let classes = Classes.numbering bound in
      let relevant = ref false and reduction = ref 0 in
      Array.iteri
        (fun i support ->
          match Classes.inter bound support with
          | [] -> ()
          | sub ->
              relevant := true;
              let own = Classes.refine m classes sub (cofactors i sub) in
              reduction :=
                !reduction + max 0 (List.length sub - Bits.ceil_log2 own))
        supports;
      stats.Stats.split_compares <-
        stats.Stats.split_compares + Classes.compares classes;
      (* A bound set no ISF depends on reduces nothing: decomposing
         against it is a pure renaming.  It must lose against every
         genuine candidate in BOTH scoring orders — the joint-first
         order's first component is >= 1 for any real candidate, so
         anything smaller (e.g. the old (0, 1)) would make a vacuous
         window seed win the whole selection.  It is not memoized. *)
      if not !relevant then worst
      else begin
        let reduction = !reduction in
        let joint = Classes.count classes in
        (* Net benefit: support reduction minus the realization cost of
           the decomposition functions.  ceil(log2 joint) is the paper's
           lower bound on how many distinct functions the step needs;
           each costs one LUT when the bound set fits a LUT and a small
           sub-network otherwise. *)
        let p = List.length bound in
        let realization =
          (* Bound sets within the LUT size pay nothing extra: their
             functions are single LUTs either way.  Oversized (Curtis)
             bound sets pay the sub-network realization of each
             estimated function. *)
          if p <= lut_size then 0
          else Bits.ceil_log2 joint * (1 + ((p - 2) / max 1 (lut_size - 1)))
        in
        (* Gate-level synthesis keys on the achieved support reduction
           (a missed reducing pair costs a Shannon cascade); at realistic
           LUT sizes the paper's criterion — minimize the communication
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
        Option.iter (fun t -> Hashtbl.replace t bound result) memo;
        result
      end

let score ?cache ?memo ?stats ?(lut_size = max_int) ?(cost = Cost.area) m isfs
    bound =
  let rec ascending = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a < b && ascending rest
  in
  if not (ascending bound) then
    invalid_arg "Bound_select.score: bound set not strictly ascending";
  let stats =
    match cache with
    | Some c -> Score_cache.stats c
    | None -> ( match stats with Some s -> s | None -> Stats.create ())
  in
  let isfs = Array.of_list isfs in
  let supports = Array.map (Isf.support m) isfs in
  score_against ~stats ~lut_size ~cost ?memo m supports
    (fun i sub ->
      Classes.Vector (Classes.cofactor_vector ?cache m isfs.(i) sub))
    bound

(* A level of the search: every candidate it scores extends one set,
   [base].  For each ISF [i], [subs.(i)] is [base inter supp f_i],
   [lens.(i)] its length and [vecs.(i)] its vector, built the first
   time a split reads it. *)
type level = {
  subs : int list array;
  lens : int array;
  vecs : Isf.t array Lazy.t array;
}

(* The largest variable of the ascending [sub] outside [base], an
   ascending subset of it ([last] when there is none). *)
let rec last_added sub base last =
  match (sub, base) with
  | [], _ -> last
  | v :: sub, b :: base' when v = b -> last_added sub base' last
  | v :: sub, _ -> last_added sub base v

let select_with_target ?cache ?memo ?cost ?(check = ignore) ?(min_size = 2) m
    cfg ~groups ~eligible isfs target =
  if target < 2 then None
  else begin
    let cache = match cache with Some c -> c | None -> Score_cache.create m in
    let memo = match memo with Some t -> t | None -> Hashtbl.create 64 in
    let cost = Option.value cost ~default:Cost.area in
    let isfs = Array.of_list isfs in
    (* Every candidate is scored against the same ISFs: read each
       support once per search. *)
    let supports = Array.map (Isf.support m) isfs in
    let level base =
      let subs = Array.map (Classes.inter base) supports in
      {
        subs;
        lens = Array.map List.length subs;
        vecs =
          Array.mapi
            (fun i sub ->
              lazy (Classes.cofactor_vector ~cache m isfs.(i) sub))
            subs;
      }
    in
    (* Every candidate is decided on the halves of a parent vector: an
       ISF whose [sub] adds one variable to its level's subset reads
       the level's vector; one that adds several reads its vector over
       [sub] without the largest added variable, from the cache.  One
       that adds none reads the level's vector itself. *)
    let cofactors lv i sub =
      let added = List.length sub - lv.lens.(i) in
      if added = 0 then Classes.Vector (Lazy.force lv.vecs.(i))
      else
        let v = last_added sub lv.subs.(i) min_int in
        let parent =
          if added = 1 then lv.vecs.(i)
          else
            lazy
              (Classes.cofactor_vector ~cache m isfs.(i)
                 (List.filter (fun u -> u <> v) sub))
        in
        Score_cache.split cache isfs.(i) sub parent v
    in
    let score lv bound =
      score_against ~stats:(Score_cache.stats cache)
        ~lut_size:cfg.Config.lut_size ~cost ~memo m supports (cofactors lv)
        bound
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
    (* [v] inserted into the ascending [set], which lacks it. *)
    let rec insert v = function
      | u :: rest when u < v -> u :: insert v rest
      | set -> v :: set
    in
    (* The part of [atom] outside [current], cut to its first [room]
       variables ([] when nothing is left). *)
    let piece room current atom =
      match atom with
      | [ v ] -> if List.mem v current then [] else atom
      | _ -> (
          let rest = List.filter (fun v -> not (List.mem v current)) atom in
          match chunks room rest with piece :: _ -> piece | [] -> [])
    in
    (* Grow a candidate from a seed atom, adding the atom (or atom
       prefix) that minimizes the score until the target size.
       [current] stays ascending, and each level scores its extensions
       against the vectors of [current] ([level]). *)
    let grow seed =
      let rec loop current size =
        check ();
        if size >= target then Some current
        else begin
          let room = target - size in
          let lv = level current in
          let best = ref None in
          List.iter
            (fun atom ->
              match piece room current atom with
              | [] -> ()
              | piece -> (
                  let cand =
                    List.fold_left (fun set v -> insert v set) current piece
                  in
                  let s = score lv cand in
                  match !best with
                  | Some (bs, _, _) when not (s < bs) -> ()
                  | _ -> best := Some (s, cand, List.length piece)))
            atoms;
          match !best with
          | None -> None
          | Some (_, cand, k) -> loop cand (size + k)
        end
      in
      loop (List.sort compare seed) (List.length seed)
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
    (* The first [target] eligible variables, ascending like every
       grown candidate. *)
    let window =
      let rec take k = function
        | [] -> []
        | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
      in
      take target eligible
    in
    let candidates =
      List.filter
        (fun c -> List.length c >= min_size)
        (window :: List.filter_map grow seeds)
    in
    (* The grown candidates are memo hits; the window and seeds already
       at the target size extend the empty set. *)
    let empty = level [] in
    let rate cand =
      check ();
      score empty cand
    in
    match candidates with
    | [] -> None
    | first :: rest ->
        Some
          (List.fold_left
             (fun (bs, bc) cand ->
               let s = rate cand in
               if s < bs then (s, cand) else (bs, bc))
             (rate first, first)
             rest)
  end

let select ?cache ?memo ?cost ?check m cfg ~groups ~eligible isfs =
  let eligible = List.sort_uniq compare eligible in
  let n = List.length eligible in
  let lut_target = min cfg.Config.lut_size (n - 1) in
  match
    select_with_target ?cache ?memo ?cost ?check m cfg ~groups ~eligible isfs
      lut_target
  with
  | Some (_, cand) -> Some cand
  | None -> None

(* An oversized (Curtis) bound set, one variable beyond the LUT size:
   its decomposition functions become sub-networks, so it is only
   offered when its net benefit is positive — the driver asks for it
   after a LUT-sized step failed to make progress (symmetric
   carry/weight functions at small LUT sizes need exactly this). *)
let select_curtis ?cache ?memo ?cost ?check ?(extra = 1) m cfg ~groups
    ~eligible isfs =
  let eligible = List.sort_uniq compare eligible in
  let n = List.length eligible in
  let lut_target = min cfg.Config.lut_size (n - 1) in
  let extended = min (max (cfg.Config.lut_size + extra) 3) (n - 1) in
  if extended <= lut_target then None
  else
    match
      select_with_target ?cache ?memo ?cost ?check ~min_size:(lut_target + 1) m
        cfg ~groups ~eligible isfs extended
    with
    | Some (_, cand) ->
        (* The caller only asks after a LUT-sized step failed, where the
           alternative is Shannon expansion; the step itself verifies
           actual progress (don't-care merging often reduces classes the
           distinct-cofactor estimate cannot see), so the best extended
           candidate is always worth one attempt. *)
        Some cand
    | None -> None
