type t = {
  bound : int list;
  nitems : int;
  node_of_vertex : int array;
  node_cof : Isf.t array array;
}

let nnodes t = Array.length t.node_cof
let nvertices t = Array.length t.node_of_vertex

(* Class numbering over one open-addressed table of int pairs.  The
   arrays are per-domain scratch, grown on demand and reused by the
   next [numbering] on the same domain:
   - [ea], [eb]: the key pair of every entry of the vector being
     refined (over a subset of [bound]);
   - [ka], [kb]: the key pair of every vertex;
   - [own]: a vertex's class within the current vector;
   - [ids]: its class within all vectors refined so far;
   - [slot]: the table, class id + 1 per slot (0 = empty);
   - [rep]: the first vertex of every class;
   - [proj]: a vertex's index into a vector over a subset of [bound];
   - [rep_e], [rep_h], [rep_sig]: the parent entry, half and signature
     of every label of a split ([classify]);
   - [compares]: the half comparisons of this numbering's splits. *)
type numbering = {
  mutable bound : int list;
  mutable n : int;
  mutable count : int;
  mutable ea : int array;
  mutable eb : int array;
  mutable ka : int array;
  mutable kb : int array;
  mutable own : int array;
  mutable ids : int array;
  mutable rep : int array;
  mutable slot : int array;
  mutable proj : int array;
  mutable rep_e : int array;
  mutable rep_h : int array;
  mutable rep_sig : int array;
  mutable compares : int;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        bound = [];
        n = 0;
        count = 0;
        ea = [||];
        eb = [||];
        ka = [||];
        kb = [||];
        own = [||];
        ids = [||];
        rep = [||];
        slot = [||];
        proj = [||];
        rep_e = [||];
        rep_h = [||];
        rep_sig = [||];
        compares = 0;
      })

let numbering bound =
  let n = 1 lsl List.length bound in
  let s = Domain.DLS.get scratch in
  if Array.length s.ids < n then begin
    s.ea <- Array.make n 0;
    s.eb <- Array.make n 0;
    s.ka <- Array.make n 0;
    s.kb <- Array.make n 0;
    s.own <- Array.make n 0;
    s.ids <- Array.make n 0;
    s.rep <- Array.make n 0;
    s.slot <- Array.make (4 * n) 0;
    s.proj <- Array.make n 0;
    s.rep_e <- Array.make n 0;
    s.rep_h <- Array.make n 0;
    s.rep_sig <- Array.make n 0
  end;
  s.bound <- bound;
  s.n <- n;
  s.count <- min n 1;
  s.compares <- 0;
  Array.fill s.ids 0 n 0;
  s

(* Dense ids, in first-occurrence order, of the pairs [(ka.(v), kb.(v))]
   for [v = 0 .. n-1], written to [into]; returns how many there are. *)
let number s into =
  let n = s.n in
  let cap = ref 1 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  Array.fill s.slot 0 !cap 0;
  let count = ref 0 in
  for v = 0 to n - 1 do
    let a = s.ka.(v) and b = s.kb.(v) in
    let h = ref (((((a * 0x2545F491) + b) * 0x9E3779B1) lsr 16) land mask) in
    let id = ref (-1) in
    while !id < 0 do
      let e = s.slot.(!h) in
      if e = 0 then begin
        id := !count;
        incr count;
        s.rep.(!id) <- v;
        s.slot.(!h) <- !id + 1
      end
      else if s.ka.(s.rep.(e - 1)) = a && s.kb.(s.rep.(e - 1)) = b then id := e - 1
      else h := (!h + 1) land mask
    done;
    into.(v) <- !id
  done;
  !count

(* [proj.(v)] becomes vertex [v]'s bits for the variables of [sub], in
   [sub]'s order: its index into a vector over [sub].  The table doubles
   once per bound variable, most significant first, in place. *)
let project s sub =
  s.proj.(0) <- 0;
  let rec go len bound sub =
    match bound with
    | [] -> (
        match sub with
        | [] -> ()
        | _ -> invalid_arg "Classes.refine: not an ascending subset of the bound set")
    | b :: bound ->
        let inside, sub =
          match sub with u :: rest when u = b -> (true, rest) | _ -> (false, sub)
        in
        for i = len - 1 downto 0 do
          let x = s.proj.(i) in
          if inside then begin
            s.proj.(2 * i) <- 2 * x;
            s.proj.((2 * i) + 1) <- (2 * x) + 1
          end
          else begin
            s.proj.(2 * i) <- x;
            s.proj.((2 * i) + 1) <- x
          end
        done;
        go (2 * len) bound sub
  in
  go 1 s.bound sub

type cofactors = Score_cache.cofactors =
  | Vector of Isf.t array
  | Split of Isf.t array * int

(* Do the halves [a] of [e] and [b] of [r] on [v] agree?  One half
   comparison of [s]'s split. *)
let same_half m s v e a r b =
  s.compares <- s.compares + 1;
  Bdd.equal_cof m v (Isf.on e) a (Isf.on r) b
  && Bdd.equal_cof m v (Isf.dc e) a (Isf.dc r) b

(* The two assignments a half's signature reads ([Bdd.eval_cof]): any
   fixed words do; these set about half the bits, scattered. *)
let sig_a = 0x2545F4914F6CDD1D
let sig_b = 0x1E3779B97F4A7C15

(* The signature of half [a] of [e] on [v]: its on-set and dc-set
   values at [sig_a] and [sig_b], 4 bits.  Equal halves are equal
   functions, so they have equal signatures. *)
let signature v e a =
  let on = Isf.on e and dc = Isf.dc e in
  (if Bdd.eval_cof on v a sig_a then 1 else 0)
  + (if Bdd.eval_cof dc v a sig_a then 2 else 0)
  + (if Bdd.eval_cof on v a sig_b then 4 else 0)
  + if Bdd.eval_cof dc v a sig_b then 8 else 0

let rec count_above v = function
  | [] -> 0
  | u :: rest -> if u > v then 1 + count_above v rest else count_above v rest

(* The label of half [a] of [parent.(i)] on [v], whose signature is
   [sg], among the first [labels] ones, else a new one ([labels]
   itself) that it stands for.  [rep_h] is the half a label's
   representative stands for, or 2 for a whole entry ([whole]: the
   entry's halves agree); two whole entries are never compared, nor is
   a half with [skip] or with a label of another signature. *)
let label m s parent v i a ~sg ~whole ~skip labels =
  let e = parent.(i) in
  let c = ref 0 and found = ref (-1) in
  while !found < 0 && !c < labels do
    let h = s.rep_h.(!c) in
    if
      !c <> skip
      && s.rep_sig.(!c) = sg
      && (not (whole && h = 2))
      && same_half m s v e a parent.(s.rep_e.(!c)) (h = 1)
    then found := !c;
    incr c
  done;
  if !found >= 0 then !found
  else begin
    s.rep_e.(labels) <- i;
    s.rep_h.(labels) <- (if whole then 2 else if a then 1 else 0);
    s.rep_sig.(labels) <- sg;
    labels
  end

(* Labels of the vector over [sub] that splitting every entry of
   [parent] (over [sub] without [v]) on [v] would give, into [ea] (and
   0 into [eb]): equal labels, equal cofactors.  Entry [i]'s halves
   land where [Isf.extend_cofactor_vector] puts them.  Equal parent
   entries share labels.  An entry whose halves agree is its own half,
   and distinct from every other such entry, so it is compared with
   split halves only; a split half is compared with every label but
   its sibling's.  [Bdd.equal_cof] compares halves where they lie: no
   half is built, and only halves of one signature are compared. *)
let classify m s sub parent v =
  let low = count_above v sub in
  let mask = (1 lsl low) - 1 in
  let labels = ref 0 in
  for i = 0 to Array.length parent - 1 do
    let lo = ((i lsr low) lsl (low + 1)) lor (i land mask) in
    let hi = lo lor (1 lsl low) in
    let j = ref 0 in
    while !j < i && not (Isf.equal parent.(!j) parent.(i)) do
      incr j
    done;
    if !j < i then begin
      let jlo = ((!j lsr low) lsl (low + 1)) lor (!j land mask) in
      s.ea.(lo) <- s.ea.(jlo);
      s.ea.(hi) <- s.ea.(jlo lor (1 lsl low))
    end
    else begin
      let e = parent.(i) in
      let sg0 = signature v e false and sg1 = signature v e true in
      let whole = sg0 = sg1 && same_half m s v e false e true in
      let l = label m s parent v i false ~sg:sg0 ~whole ~skip:(-1) !labels in
      if l = !labels then incr labels;
      let l' =
        if whole then l
        else label m s parent v i true ~sg:sg1 ~whole ~skip:l !labels
      in
      if l' = !labels then incr labels;
      s.ea.(lo) <- l;
      s.ea.(hi) <- l'
    end;
    s.eb.(lo) <- 0;
    s.eb.(hi) <- 0
  done

let refine m s sub cofs =
  let n = s.n in
  (match cofs with
  | Vector vec ->
      for i = 0 to Array.length vec - 1 do
        s.ea.(i) <- Bdd.id (Isf.on vec.(i));
        s.eb.(i) <- Bdd.id (Isf.dc vec.(i))
      done
  | Split (parent, v) -> classify m s sub parent v);
  if sub == s.bound then begin
    Array.blit s.ea 0 s.ka 0 n;
    Array.blit s.eb 0 s.kb 0 n
  end
  else begin
    project s sub;
    for v = 0 to n - 1 do
      let i = s.proj.(v) in
      s.ka.(v) <- s.ea.(i);
      s.kb.(v) <- s.eb.(i)
    done
  end;
  let own = number s s.own in
  if s.count <= 1 then begin
    Array.blit s.own 0 s.ids 0 n;
    s.count <- own
  end
  else begin
    Array.blit s.ids 0 s.ka 0 n;
    Array.blit s.own 0 s.kb 0 n;
    s.count <- number s s.ids
  end;
  own

let count s = s.count
let compares s = s.compares
let ids s = Array.sub s.ids 0 s.n

(* [bound inter support] by one merge of the two ascending lists.  A
   suffix of [bound] that [support] contains entirely is shared, so a
   [bound] inside [support] comes back as the same physical list, which
   [refine] reads without a projection. *)
let rec inter (bound : int list) support =
  match (bound, support) with
  | [], _ | _, [] -> []
  | b :: bs, s :: ss ->
      if b < s then inter bs support
      else if s < b then inter bound ss
      else
        let rest = inter bs ss in
        if rest == bs then bound else b :: rest

let cofactor_vector ?cache m f sub =
  match (sub, cache) with
  | [], _ -> [| f |]
  | _, Some c -> Score_cache.cofactor_vector c f sub
  | _, None -> Isf.cofactor_vector m f sub

(* Each function's vector over [bound inter supp f], read through the
   projection: fixing a variable outside the support leaves every
   cofactor the same node, so vertex [v]'s entry is exactly the
   cofactor over the whole bound set at [v]. *)
let cofactor_matrix ?cache m isfs bound =
  let rec ascending = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a < b && ascending rest
  in
  if not (ascending bound) then
    invalid_arg "Classes.cofactor_matrix: bound set not ascending";
  let isfs = Array.of_list isfs in
  let nitems = Array.length isfs in
  let subs = Array.map (fun f -> inter bound (Isf.support m f)) isfs in
  let vecs = Array.map2 (cofactor_vector ?cache m) isfs subs in
  let s = numbering bound in
  Array.iter2 (fun sub vec -> ignore (refine m s sub (Vector vec))) subs vecs;
  let node_of_vertex = ids s in
  let reps = Array.sub s.rep 0 s.count in
  (* [cols.(i).(node)]: item [i]'s cofactor at the node's first vertex. *)
  let cols =
    Array.map2
      (fun sub vec ->
        if sub == bound then Array.map (fun v -> vec.(v)) reps
        else begin
          project s sub;
          Array.map (fun v -> vec.(s.proj.(v))) reps
        end)
      subs vecs
  in
  let node_cof =
    Array.init s.count (fun node -> Array.init nitems (fun i -> cols.(i).(node)))
  in
  { bound; nitems; node_of_vertex; node_cof }

let joint_incompat m t =
  let count = nnodes t in
  let g = Ugraph.create count in
  for u = 0 to count - 1 do
    for v = u + 1 to count - 1 do
      let incompatible =
        let rec any i =
          i < t.nitems
          && ((not (Isf.compatible m t.node_cof.(u).(i) t.node_cof.(v).(i)))
             || any (i + 1))
        in
        any 0
      in
      if incompatible then Ugraph.add_edge g u v
    done
  done;
  g

let incompat m isfs =
  let count = Array.length isfs in
  let g = Ugraph.create count in
  for a = 0 to count - 1 do
    for b = a + 1 to count - 1 do
      if not (Isf.compatible m isfs.(a) isfs.(b)) then Ugraph.add_edge g a b
    done
  done;
  g

let ncc_csf m fs bound =
  let vecs = List.map (fun f -> Bdd.cofactor_vector m f bound) fs in
  let nverts = 1 lsl List.length bound in
  let table = Hashtbl.create 64 in
  for v = 0 to nverts - 1 do
    let key = List.map (fun vec -> Bdd.id vec.(v)) vecs in
    Hashtbl.replace table key ()
  done;
  Hashtbl.length table
