(* Constants are immediates; an internal node is one block whose fields
   the unique table probes in place. *)
type t = Zero | One | Node of { id : int; v : int; lo : t; hi : t }

let id = function Zero -> 0 | One -> 1 | Node n -> n.id

(* Position in the variable order; constants sit below every variable. *)
let level = function Node n -> n.v | Zero | One -> max_int

module Int_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

type manager = {
  mutable next_id : int;
  (* Unique table: open addressing with linear probing over a
     power-of-two array, at most half full.  A slot holds the node
     itself ([Zero] marks an empty slot), so a probe compares
     [(v, lo id, hi id)] read from the node and allocates nothing. *)
  mutable unique : t array;
  (* Computed table, shared by every operation and decision:
     direct-mapped and lossy.  Entry [i] is keyed by the three ints
     [keys.(3i) .. keys.(3i+2)] (operand ids, the 4-bit operation code
     packed into the first) and holds [results.(i)]; a colliding
     insertion overwrites, and [keys.(3i) = -1] marks an empty entry.
     It only ever holds completed results; a decision stores its
     verdict as [One] or [Zero]. *)
  mutable keys : int array;
  mutable results : t array;
  (* node id -> sorted support, memoized for the node's lifetime *)
  support_cache : int list Int_table.t;
  (* Resource-governor hook: called with the live node count once every
     [growth_interval] fresh allocations.  May raise to abort the
     current operation; both tables only ever hold completed results,
     so an abort cannot corrupt the manager. *)
  mutable growth_hook : (int -> unit) option;
  mutable growth_tick : int;
}

let growth_interval = 1024

(* The computed table has as many entries as the unique table has slots,
   up to [cache_cap] entries (8 MB). *)
let initial_slots = 4096
let cache_cap = 1 lsl 18

let manager () =
  {
    next_id = 2;
    unique = Array.make initial_slots Zero;
    keys = Array.make (3 * initial_slots) (-1);
    results = Array.make initial_slots Zero;
    support_cache = Int_table.create 1024;
    growth_hook = None;
    growth_tick = growth_interval;
  }

let set_growth_hook m hook =
  m.growth_hook <- hook;
  m.growth_tick <- growth_interval

let node_count m = m.next_id - 2
let zero _ = Zero
let one _ = One
let equal a b = id a = id b
let is_zero = function Zero -> true | One | Node _ -> false
let is_one = function One -> true | Zero | Node _ -> false

let view = function
  | Zero -> `Zero
  | One -> `One
  | Node { v; lo; hi; _ } -> `Node (v, lo, hi)

(* Slot index material for three ints: odd multipliers, then the high
   bits folded onto the low ones that a power-of-two mask keeps. *)
let hash3 a b c =
  let h =
    (a * 0x2545f4914f6cdd1d) + (b * 0x1e3779b97f4a7c15) + (c * 0x27d4eb2f165667c5)
  in
  h lxor (h lsr 29)

(* ---- unique table ---- *)

(* Index of the slot holding node [(v, lo, hi)], or of the empty slot
   where it belongs. *)
let rec find_slot slots mask v lo hi i =
  match slots.(i) with
  | Node n when n.v = v && id n.lo = lo && id n.hi = hi -> i
  | Node _ -> find_slot slots mask v lo hi ((i + 1) land mask)
  | Zero | One -> i

let place slots node =
  match node with
  | Node n ->
      let lo = id n.lo and hi = id n.hi and mask = Array.length slots - 1 in
      slots.(find_slot slots mask n.v lo hi (hash3 n.v lo hi land mask)) <- node
  | Zero | One -> ()

(* The computed table is lossy, so a larger one may start empty. *)
let grow m =
  let slots = Array.make (2 * Array.length m.unique) Zero in
  Array.iter (place slots) m.unique;
  m.unique <- slots;
  let entries = min cache_cap (Array.length slots) in
  if entries > Array.length m.results then begin
    m.keys <- Array.make (3 * entries) (-1);
    m.results <- Array.make entries Zero
  end

(* The single constructor maintaining reduction and sharing. *)
let mk m v lo hi =
  let lo_id = id lo and hi_id = id hi in
  if lo_id = hi_id then lo
  else
    let slots = m.unique in
    let mask = Array.length slots - 1 in
    let i = find_slot slots mask v lo_id hi_id (hash3 v lo_id hi_id land mask) in
    match slots.(i) with
    | Node _ as n -> n
    | Zero | One ->
        let n = Node { id = m.next_id; v; lo; hi } in
        m.next_id <- m.next_id + 1;
        slots.(i) <- n;
        if 2 * node_count m > Array.length slots then grow m;
        m.growth_tick <- m.growth_tick - 1;
        if m.growth_tick <= 0 then begin
          m.growth_tick <- growth_interval;
          match m.growth_hook with
          | Some hook -> hook (node_count m)
          | None -> ()
        end;
        n

let var m i = mk m i Zero One
let nvar m i = mk m i One Zero

(* ---- computed table ---- *)

let op_and = 0
let op_or = 1
let op_xor = 2
let op_not = 3
let op_ite = 4
let op_restrict = 5
let op_diff = 6
let op_disjoint = 7
let op_leq = 8
let op_equal_on = 9
let op_equal_cof = 10
let op_leq_cof = 11

(* The operation code sits in the low [op_bits] of a key's first int. *)
let op_bits = 4

(* What a lookup returns on a miss; never stored, compared physically. *)
let absent = Node { id = -1; v = max_int; lo = Zero; hi = Zero }

let cache_find m k0 k1 k2 =
  let keys = m.keys in
  let i = hash3 k0 k1 k2 land (Array.length m.results - 1) in
  if keys.(3 * i) = k0 && keys.((3 * i) + 1) = k1 && keys.((3 * i) + 2) = k2
  then m.results.(i)
  else absent

let cache_add m k0 k1 k2 r =
  let keys = m.keys in
  let i = hash3 k0 k1 k2 land (Array.length m.results - 1) in
  keys.(3 * i) <- k0;
  keys.((3 * i) + 1) <- k1;
  keys.((3 * i) + 2) <- k2;
  m.results.(i) <- r

(* Cofactors of [f] at level [v], which is at or above [f]'s top. *)
let cof_lo f v = match f with Node n when n.v = v -> n.lo | Zero | One | Node _ -> f
let cof_hi f v = match f with Node n when n.v = v -> n.hi | Zero | One | Node _ -> f

(* ---- recursive workers ----

   Each builds the hi branch before the lo branch, so nodes get the ids
   they always had. *)

let rec not_ m f =
  match f with
  | Zero -> One
  | One -> Zero
  | Node n ->
      let k0 = (n.id lsl op_bits) lor op_not in
      let r = cache_find m k0 0 0 in
      if r != absent then r
      else
        let hi = not_ m n.hi in
        let lo = not_ m n.lo in
        let r = mk m n.v lo hi in
        cache_add m k0 0 0 r;
        r

(* and/or/xor by Shannon expansion, with terminal cases per operation. *)
let rec apply_rec m op f g =
  let fi = id f and gi = id g in
  if op = op_and then
    if fi = 0 || gi = 0 then Zero
    else if fi = 1 then g
    else if gi = 1 then f
    else if fi = gi then f
    else apply_node m op fi gi f g
  else if op = op_or then
    if fi = 1 || gi = 1 then One
    else if fi = 0 then g
    else if gi = 0 then f
    else if fi = gi then f
    else apply_node m op fi gi f g
  else if fi = 0 then g
  else if gi = 0 then f
  else if fi = gi then Zero
  else if fi = 1 then not_ m g
  else if gi = 1 then not_ m f
  else apply_node m op fi gi f g

(* Both operands internal and distinct; the operations commute, so the
   smaller id goes first in the key and in the recursion. *)
and apply_node m op fi gi f g =
  if fi > gi then apply_node m op gi fi g f
  else
    let k0 = (fi lsl op_bits) lor op in
    let r = cache_find m k0 gi 0 in
    if r != absent then r
    else
      let lf = level f and lg = level g in
      let v = if lf <= lg then lf else lg in
      let hi = apply_rec m op (cof_hi f v) (cof_hi g v) in
      let lo = apply_rec m op (cof_lo f v) (cof_lo g v) in
      let r = mk m v lo hi in
      cache_add m k0 gi 0 r;
      r

let and_ m f g = apply_rec m op_and f g
let or_ m f g = apply_rec m op_or f g
let xor m f g = apply_rec m op_xor f g
let nand m f g = not_ m (and_ m f g)
let nor m f g = not_ m (or_ m f g)
let xnor m f g = not_ m (xor m f g)

(* f /\ not g without building [not g]; it does not commute, so the
   operands keep their places in the key. *)
let rec diff m f g =
  let fi = id f and gi = id g in
  if fi = 0 || gi = 1 || fi = gi then Zero
  else if gi = 0 then f
  else if fi = 1 then not_ m g
  else
    let k0 = (fi lsl op_bits) lor op_diff in
    let r = cache_find m k0 gi 0 in
    if r != absent then r
    else
      let lf = level f and lg = level g in
      let v = if lf <= lg then lf else lg in
      let hi = diff m (cof_hi f v) (cof_hi g v) in
      let lo = diff m (cof_lo f v) (cof_lo g v) in
      let r = mk m v lo hi in
      cache_add m k0 gi 0 r;
      r

(* ---- decisions ----

   Yes/no questions answered by the and/diff recursion with an early
   exit.  They never call [mk]: no node is built and the growth hook
   never ticks.  A verdict is memoized as [One] (yes) or [Zero] (no). *)

let verdict b = if b then One else Zero

(* Is f /\ g = 0? *)
let rec disjoint m f g =
  let fi = id f and gi = id g in
  if fi = 0 || gi = 0 then true
  else if fi = 1 || gi = 1 || fi = gi then false
  else
    (* Commutative: the smaller id goes first in the key. *)
    let fi, gi, f, g = if fi < gi then (fi, gi, f, g) else (gi, fi, g, f) in
    let k0 = (fi lsl op_bits) lor op_disjoint in
    let r = cache_find m k0 gi 0 in
    if r != absent then r == One
    else
      let lf = level f and lg = level g in
      let v = if lf <= lg then lf else lg in
      let b =
        disjoint m (cof_hi f v) (cof_hi g v)
        && disjoint m (cof_lo f v) (cof_lo g v)
      in
      cache_add m k0 gi 0 (verdict b);
      b

(* Is f <= g, i.e. f /\ not g = 0? *)
let rec leq m f g =
  let fi = id f and gi = id g in
  if fi = 0 || gi = 1 || fi = gi then true
  else if fi = 1 || gi = 0 then false
  else
    let k0 = (fi lsl op_bits) lor op_leq in
    let r = cache_find m k0 gi 0 in
    if r != absent then r == One
    else
      let lf = level f and lg = level g in
      let v = if lf <= lg then lf else lg in
      let b =
        leq m (cof_hi f v) (cof_hi g v) && leq m (cof_lo f v) (cof_lo g v)
      in
      cache_add m k0 gi 0 (verdict b);
      b

(* Questions about the cofactors [f|v=a] and [g|v=b], asked without
   building them.  [c = 2a + b] carries both bits.  Above [v] the
   operands are walked in lockstep; at [v] each descends into its fixed
   branch; below [v] a cofactor is its operand. *)
let branch f v b = if b then cof_hi f v else cof_lo f v

(* Is f|v=a = g|v=b?  Below [v], canonicity makes it an id comparison. *)
let rec equal_cof_rec m v c f g =
  let lf = level f and lg = level g in
  let u = if lf <= lg then lf else lg in
  if u > v then id f = id g
  else if u = v then id (branch f v (c >= 2)) = id (branch g v (c land 1 = 1))
  else
    let fi = id f and gi = id g in
    if fi = gi && (c = 0 || c = 3) then true
    else
      (* Symmetric: the smaller id goes first, its bit with it. *)
      let fi, gi, f, g, c =
        if fi <= gi then (fi, gi, f, g, c)
        else (gi, fi, g, f, ((c land 1) lsl 1) lor (c lsr 1))
      in
      let k0 = (fi lsl op_bits) lor op_equal_cof and k2 = (4 * v) + c in
      let r = cache_find m k0 gi k2 in
      if r != absent then r == One
      else
        let b =
          equal_cof_rec m v c (cof_hi f u) (cof_hi g u)
          && equal_cof_rec m v c (cof_lo f u) (cof_lo g u)
        in
        cache_add m k0 gi k2 (verdict b);
        b

(* Is f|v=a <= g|v=b?  At and below [v] it is [leq] of the cofactors. *)
let rec leq_cof_rec m v c f g =
  let fi = id f and gi = id g in
  if fi = 0 || gi = 1 then true
  else
    let lf = level f and lg = level g in
    let u = if lf <= lg then lf else lg in
    if u > v then leq m f g
    else if u = v then leq m (branch f v (c >= 2)) (branch g v (c land 1 = 1))
    else
      let k0 = (fi lsl op_bits) lor op_leq_cof and k2 = (4 * v) + c in
      let r = cache_find m k0 gi k2 in
      if r != absent then r == One
      else
        let b =
          leq_cof_rec m v c (cof_hi f u) (cof_hi g u)
          && leq_cof_rec m v c (cof_lo f u) (cof_lo g u)
        in
        cache_add m k0 gi k2 (verdict b);
        b

let bits a b = (if a then 2 else 0) lor if b then 1 else 0
let equal_cof m v f a g b = equal_cof_rec m v (bits a b) f g
let leq_cof m v f a g b = leq_cof_rec m v (bits a b) f g

let rec ite m f g h =
  let fi = id f and gi = id g and hj = id h in
  if fi = 1 then g
  else if fi = 0 then h
  else if gi = hj then g
  else if gi = 1 && hj = 0 then f
  else if gi = 0 && hj = 1 then not_ m f
  else
    let k0 = (fi lsl op_bits) lor op_ite in
    let r = cache_find m k0 gi hj in
    if r != absent then r
    else
      let lf = level f and lg = level g and lh = level h in
      let v = if lf <= lg then lf else lg in
      let v = if v <= lh then v else lh in
      let r_hi = ite m (cof_hi f v) (cof_hi g v) (cof_hi h v) in
      let r_lo = ite m (cof_lo f v) (cof_lo g v) (cof_lo h v) in
      let r = mk m v r_lo r_hi in
      cache_add m k0 gi hj r;
      r

let and_list m fs = List.fold_left (and_ m) One fs
let or_list m fs = List.fold_left (or_ m) Zero fs

let rec restrict_rec m v b tag f =
  match f with
  | Zero | One -> f
  | Node n ->
      if n.v > v then f
      else if n.v = v then if b then n.hi else n.lo
      else
        let k0 = (n.id lsl op_bits) lor op_restrict in
        let r = cache_find m k0 tag 0 in
        if r != absent then r
        else
          let hi = restrict_rec m v b tag n.hi in
          let lo = restrict_rec m v b tag n.lo in
          (* Neither child changed: [f] is the node [mk] would find. *)
          let r = if hi == n.hi && lo == n.lo then f else mk m n.v lo hi in
          cache_add m k0 tag 0 r;
          r

let restrict m f v b = restrict_rec m v b ((v * 2) + if b then 1 else 0) f

let cofactor2 m f v = (restrict m f v false, restrict m f v true)

let exists m vars f =
  let vars = List.sort_uniq Stdlib.compare vars in
  List.fold_left
    (fun acc v ->
      let lo, hi = cofactor2 m acc v in
      or_ m lo hi)
    f vars

let compose m f v g =
  let lo, hi = cofactor2 m f v in
  ite m g hi lo

(* Memoized per node: support(f) = {top} U support(lo) U support(hi),
   merged as sorted lists.  Nodes are immutable and never collected, so
   the cache never invalidates. *)
let rec merge (a : int list) b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
      if x < y then x :: merge xs b
      else if y < x then y :: merge a ys
      else x :: merge xs ys

let rec support m f =
  match f with
  | Zero | One -> []
  | Node n -> (
      match Int_table.find m.support_cache n.id with
      | s -> s
      | exception Not_found ->
          let s = merge [ n.v ] (merge (support m n.lo) (support m n.hi)) in
          Int_table.add m.support_cache n.id s;
          s)

(* Does some function of [fs] mention a variable of [vars]?  One walk of
   their shared DAG, cut below the deepest variable of [vars]. *)
let mentions_any fs vars =
  let deepest = List.fold_left max min_int vars in
  let seen = Hashtbl.create 64 in
  let rec go = function
    | Zero | One -> false
    | Node n ->
        n.v <= deepest
        && (List.mem n.v vars
           || (not (Hashtbl.mem seen n.id))
              && begin
                   Hashtbl.add seen n.id ();
                   go n.lo || go n.hi
                 end)
  in
  List.exists go fs

(* The ids [size_list] has visited: open addressing with linear probing
   over a power-of-two array ([-1] = empty), at most half full.
   [filled] lists the occupied slots, so clearing costs only what the
   last count filled.  One set per domain, grown on demand and reused,
   so a count allocates nothing once the set is large enough. *)
type id_set = {
  mutable slots : int array;
  mutable filled : int array;
  mutable count : int;
}

let id_sets =
  Domain.DLS.new_key (fun () ->
      { slots = Array.make 64 (-1); filled = Array.make 33 0; count = 0 })

let rec probe_id slots mask x i =
  let e = slots.(i) in
  if e < 0 || e = x then i else probe_id slots mask x ((i + 1) land mask)

let grow_ids s =
  let slots = Array.make (2 * Array.length s.slots) (-1) in
  let mask = Array.length slots - 1 in
  let filled = Array.make ((Array.length slots / 2) + 1) 0 in
  for k = 0 to s.count - 1 do
    let x = s.slots.(s.filled.(k)) in
    let i = probe_id slots mask x (hash3 x 0 0 land mask) in
    slots.(i) <- x;
    filled.(k) <- i
  done;
  s.slots <- slots;
  s.filled <- filled

(* Adds [x]; false if it was already there. *)
let add_id s x =
  let mask = Array.length s.slots - 1 in
  let i = probe_id s.slots mask x (hash3 x 0 0 land mask) in
  if s.slots.(i) = x then false
  else begin
    s.slots.(i) <- x;
    s.filled.(s.count) <- i;
    s.count <- s.count + 1;
    if 2 * s.count > Array.length s.slots then grow_ids s;
    true
  end

let rec visit s = function
  | Zero | One -> ()
  | Node n ->
      if add_id s n.id then begin
        visit s n.lo;
        visit s n.hi
      end

let clear_ids () =
  let s = Domain.DLS.get id_sets in
  for k = 0 to s.count - 1 do
    s.slots.(s.filled.(k)) <- -1
  done;
  s.count <- 0;
  s

let size_list fs =
  let s = clear_ids () in
  List.iter (visit s) fs;
  s.count

let size f =
  let s = clear_ids () in
  visit s f;
  s.count

let vector_compose m f subst =
  (* Replacement functions must not mention substituted variables, so that
     sequential composition coincides with simultaneous substitution. *)
  assert (not (mentions_any (List.map snd subst) (List.map fst subst)));
  List.fold_left (fun acc (v, g) -> compose m acc v g) f subst

let swap_vars m f i j =
  if i = j then f
  else
    let f0 = restrict m f i false and f1 = restrict m f i true in
    let f00 = restrict m f0 j false
    and f01 = restrict m f0 j true
    and f10 = restrict m f1 j false
    and f11 = restrict m f1 j true in
    let vi = var m i and vj = var m j in
    (* result_{i=a, j=b} = f_{i=b, j=a} *)
    ite m vi (ite m vj f11 f01) (ite m vj f10 f00)

let rename m f pi =
  (* Rebuild bottom-up through ITE, which restores ordering even when
     [pi] is not monotone.  Memoized per (function, this call). *)
  let cache = Hashtbl.create 64 in
  let rec go f =
    match f with
    | Zero | One -> f
    | Node { id; v; lo; hi } -> (
        match Hashtbl.find_opt cache id with
        | Some r -> r
        | None ->
            let r = ite m (var m (pi v)) (go hi) (go lo) in
            Hashtbl.add cache id r;
            r)
  in
  go f

let negate_var m f v =
  let lo, hi = cofactor2 m f v in
  ite m (var m v) lo hi

(* Do f and g agree wherever care holds?  A constant operand reduces
   the question to [disjoint] or [leq]; otherwise the key is the care
   id followed by the two operand ids in order. *)
let rec equal_on m ~care f g =
  let ci = id care and fi = id f and gi = id g in
  if ci = 0 || fi = gi then true
  else if ci = 1 then false
  else if fi = 0 then disjoint m care g
  else if gi = 0 then disjoint m care f
  else if fi = 1 then leq m care g
  else if gi = 1 then leq m care f
  else
    let fi, gi, f, g = if fi < gi then (fi, gi, f, g) else (gi, fi, g, f) in
    let k0 = (ci lsl op_bits) lor op_equal_on in
    let r = cache_find m k0 fi gi in
    if r != absent then r == One
    else
      let lc = level care and lf = level f and lg = level g in
      let v = if lc <= lf then lc else lf in
      let v = if v <= lg then v else lg in
      let b =
        equal_on m ~care:(cof_hi care v) (cof_hi f v) (cof_hi g v)
        && equal_on m ~care:(cof_lo care v) (cof_lo f v) (cof_lo g v)
      in
      cache_add m k0 fi gi (verdict b);
      b

let eval f assignment =
  let rec go = function
    | Zero -> false
    | One -> true
    | Node { v; lo; hi; _ } -> if assignment v then go hi else go lo
  in
  go f

(* One path: branch [a] at [v], bit [u land 63] of [word] at any other
   [u].  Top level and tail recursive, so it allocates nothing. *)
let rec eval_cof f v a word =
  match f with
  | Zero -> false
  | One -> true
  | Node n ->
      let b = if n.v = v then a else (word lsr (n.v land 63)) land 1 = 1 in
      eval_cof (if b then n.hi else n.lo) v a word

let any_sat f =
  let rec go f acc =
    match f with
    | Zero -> raise Not_found
    | One -> List.rev acc
    | Node { v; lo; hi; _ } ->
        if id lo <> 0 then go lo ((v, false) :: acc) else go hi ((v, true) :: acc)
  in
  go f []

let random m ~nvars ~density st =
  let rec go v =
    if v = nvars then if Random.State.float st 1.0 < density then One else Zero
    else mk m v (go (v + 1)) (go (v + 1))
  in
  go 0

let cofactor_vector m f vars =
  let rec go f = function
    | [] -> [ f ]
    | v :: rest -> go (restrict m f v false) rest @ go (restrict m f v true) rest
  in
  Array.of_list (go f vars)

let extend_cofactor_vector m vec vars v =
  let p = List.length vars in
  if Array.length vec <> 1 lsl p then
    invalid_arg "Bdd.extend_cofactor_vector: length mismatch";
  let rec ascending = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a < b && ascending rest
  in
  if not (ascending vars) then
    invalid_arg "Bdd.extend_cofactor_vector: vars not ascending";
  if List.mem v vars then
    invalid_arg "Bdd.extend_cofactor_vector: variable already bound";
  (* [v] lands at position [k] of the ascending merge: the [k] variables
     before it keep their (more significant) index bits, the rest shift
     below the new bit. *)
  let k = List.length (List.filter (fun u -> u < v) vars) in
  let low_bits = p - k in
  let mask = (1 lsl low_bits) - 1 in
  let out = Array.make (2 lsl p) vec.(0) in
  Array.iteri
    (fun i f ->
      let base = ((i lsr low_bits) lsl (low_bits + 1)) lor (i land mask) in
      out.(base) <- restrict m f v false;
      out.(base lor (1 lsl low_bits)) <- restrict m f v true)
    vec;
  out

let of_vector m vars vec =
  let p = List.length vars in
  if Array.length vec <> 1 lsl p then invalid_arg "Bdd.of_vector: length mismatch";
  let rec ascending = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a < b && ascending rest
  in
  if not (ascending vars) then invalid_arg "Bdd.of_vector: vars not ascending";
  let rec go vars lo_index width =
    match vars with
    | [] -> vec.(lo_index)
    | v :: rest ->
        let half = width / 2 in
        (* ITE (rather than a raw node constructor) keeps the result
           reduced and ordered even when the entries of [vec] depend on
           variables above [v]. *)
        ite m (var m v) (go rest (lo_index + half) half) (go rest lo_index half)
  in
  go vars 0 (Array.length vec)

let minterm_of_code m vars code =
  let p = List.length vars in
  let lits =
    List.mapi
      (fun k v ->
        let bit = (code lsr (p - 1 - k)) land 1 in
        if bit = 1 then var m v else nvar m v)
      vars
  in
  and_list m lits
