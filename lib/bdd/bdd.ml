type t = { id : int; node : node }

and node =
  | Zero
  | One
  | Node of { v : int; lo : t; hi : t }

(* Keys of the unique table: (variable, id of lo child, id of hi child). *)
module Unique_key = struct
  type t = int * int * int

  let equal (a1, b1, c1) (a2, b2, c2) = a1 = a2 && b1 = b2 && c1 = c2
  let hash (a, b, c) = (a * 0x9e3779b1) lxor (b * 0x85ebca6b) lxor (c * 0xc2b2ae35)
end

module Unique_table = Hashtbl.Make (Unique_key)

module Op_key = struct
  type t = int * int * int

  let equal (a1, b1, c1) (a2, b2, c2) = a1 = a2 && b1 = b2 && c1 = c2
  let hash (a, b, c) = (a * 0x27d4eb2f) lxor (b * 0x9e3779b1) lxor (c * 0x85ebca6b)
end

module Op_cache = Hashtbl.Make (Op_key)

type manager = {
  mutable next_id : int;
  unique : t Unique_table.t;
  bzero : t;
  bone : t;
  (* (op_code, id1, id2) -> result.  ITE uses a separate cache because its
     key has three node ids. *)
  binop_cache : t Op_cache.t;
  ite_cache : t Op_cache.t;
  not_cache : (int, t) Hashtbl.t;
  (* (f.id, var*2 + bool) -> cofactor *)
  restrict_cache : t Op_cache.t;
  (* node id -> sorted support, memoized for the node's lifetime *)
  support_cache : (int, int list) Hashtbl.t;
  (* Resource-governor hook: called with the live node count once every
     [growth_interval] fresh allocations.  May raise to abort the
     current operation; the unique table and all caches only ever hold
     completed results, so an abort cannot corrupt the manager. *)
  mutable growth_hook : (int -> unit) option;
  mutable growth_tick : int;
}

let growth_interval = 1024

let manager ?(cache_size = 4096) () =
  {
    next_id = 2;
    unique = Unique_table.create cache_size;
    bzero = { id = 0; node = Zero };
    bone = { id = 1; node = One };
    binop_cache = Op_cache.create cache_size;
    ite_cache = Op_cache.create cache_size;
    not_cache = Hashtbl.create cache_size;
    restrict_cache = Op_cache.create cache_size;
    support_cache = Hashtbl.create cache_size;
    growth_hook = None;
    growth_tick = growth_interval;
  }

let set_growth_hook m hook =
  m.growth_hook <- hook;
  m.growth_tick <- growth_interval

let clear_caches m =
  Op_cache.reset m.binop_cache;
  Op_cache.reset m.ite_cache;
  Hashtbl.reset m.not_cache;
  Op_cache.reset m.restrict_cache

let node_count m = Unique_table.length m.unique
let zero m = m.bzero
let one m = m.bone
let equal a b = a.id = b.id
let compare a b = Stdlib.compare a.id b.id
let hash a = a.id
let id a = a.id
let is_zero a = a.id = 0
let is_one a = a.id = 1
let is_const a = a.id < 2

let view a =
  match a.node with
  | Zero -> `Zero
  | One -> `One
  | Node { v; lo; hi } -> `Node (v, lo, hi)

let top_var a =
  match a.node with
  | Node { v; _ } -> v
  | Zero | One -> invalid_arg "Bdd.top_var: constant"

(* The single constructor maintaining reduction and sharing. *)
let mk m v lo hi =
  if lo.id = hi.id then lo
  else
    let key = (v, lo.id, hi.id) in
    match Unique_table.find_opt m.unique key with
    | Some n -> n
    | None ->
        let n = { id = m.next_id; node = Node { v; lo; hi } } in
        m.next_id <- m.next_id + 1;
        Unique_table.add m.unique key n;
        m.growth_tick <- m.growth_tick - 1;
        if m.growth_tick <= 0 then begin
          m.growth_tick <- growth_interval;
          match m.growth_hook with
          | Some hook -> hook (Unique_table.length m.unique)
          | None -> ()
        end;
        n

let var m i = mk m i m.bzero m.bone

let nvar m i = mk m i m.bone m.bzero

let not_ m f =
  let rec go f =
    match f.node with
    | Zero -> m.bone
    | One -> m.bzero
    | Node { v; lo; hi } -> (
        match Hashtbl.find_opt m.not_cache f.id with
        | Some r -> r
        | None ->
            let r = mk m v (go lo) (go hi) in
            Hashtbl.add m.not_cache f.id r;
            r)
  in
  go f

(* Binary operations via Shannon expansion with terminal cases per op. *)
type binop = Op_and | Op_or | Op_xor

let binop_code = function Op_and -> 0 | Op_or -> 1 | Op_xor -> 2

let apply m op =
  let code = binop_code op in
  let terminal f g =
    match op with
    | Op_and ->
        if f.id = 0 || g.id = 0 then Some m.bzero
        else if f.id = 1 then Some g
        else if g.id = 1 then Some f
        else if f.id = g.id then Some f
        else None
    | Op_or ->
        if f.id = 1 || g.id = 1 then Some m.bone
        else if f.id = 0 then Some g
        else if g.id = 0 then Some f
        else if f.id = g.id then Some f
        else None
    | Op_xor ->
        if f.id = 0 then Some g
        else if g.id = 0 then Some f
        else if f.id = g.id then Some m.bzero
        else if f.id = 1 then Some (not_ m g)
        else if g.id = 1 then Some (not_ m f)
        else None
  in
  let rec go f g =
    match terminal f g with
    | Some r -> r
    | None -> (
        (* Commutative ops: normalize the key. *)
        let a, b = if f.id <= g.id then (f, g) else (g, f) in
        let key = (code, a.id, b.id) in
        match Op_cache.find_opt m.binop_cache key with
        | Some r -> r
        | None ->
            let split x v =
              match x.node with
              | Node { v = xv; lo; hi } when xv = v -> (lo, hi)
              | Zero | One | Node _ -> (x, x)
            in
            let v =
              match (a.node, b.node) with
              | Node { v = va; _ }, Node { v = vb; _ } -> min va vb
              | Node { v = va; _ }, (Zero | One) -> va
              | (Zero | One), Node { v = vb; _ } -> vb
              | (Zero | One), (Zero | One) -> assert false
            in
            let alo, ahi = split a v and blo, bhi = split b v in
            let r = mk m v (go alo blo) (go ahi bhi) in
            Op_cache.add m.binop_cache key r;
            r)
  in
  go

let and_ m f g = apply m Op_and f g
let or_ m f g = apply m Op_or f g
let xor m f g = apply m Op_xor f g
let nand m f g = not_ m (and_ m f g)
let nor m f g = not_ m (or_ m f g)
let xnor m f g = not_ m (xor m f g)
let imp m f g = or_ m (not_ m f) g
let diff m f g = and_ m f (not_ m g)

let ite m f g h =
  let rec go f g h =
    if f.id = 1 then g
    else if f.id = 0 then h
    else if g.id = h.id then g
    else if g.id = 1 && h.id = 0 then f
    else if g.id = 0 && h.id = 1 then not_ m f
    else
      let key = (f.id, g.id, h.id) in
      match Op_cache.find_opt m.ite_cache key with
      | Some r -> r
      | None ->
          let topv x acc =
            match x.node with Node { v; _ } -> min v acc | Zero | One -> acc
          in
          let v = topv f (topv g (topv h max_int)) in
          let split x =
            match x.node with
            | Node { v = xv; lo; hi } when xv = v -> (lo, hi)
            | Zero | One | Node _ -> (x, x)
          in
          let flo, fhi = split f and glo, ghi = split g and hlo, hhi = split h in
          let r = mk m v (go flo glo hlo) (go fhi ghi hhi) in
          Op_cache.add m.ite_cache key r;
          r
  in
  go f g h

let and_list m fs = List.fold_left (and_ m) m.bone fs
let or_list m fs = List.fold_left (or_ m) m.bzero fs

let restrict m f v b =
  let tag = (v * 2) + if b then 1 else 0 in
  let rec go f =
    match f.node with
    | Zero | One -> f
    | Node { v = fv; lo; hi } ->
        if fv > v then f
        else if fv = v then if b then hi else lo
        else
          let key = (f.id, tag, -1) in
          (match Op_cache.find_opt m.restrict_cache key with
          | Some r -> r
          | None ->
              let r = mk m fv (go lo) (go hi) in
              Op_cache.add m.restrict_cache key r;
              r)
  in
  go f

let cofactor2 m f v = (restrict m f v false, restrict m f v true)

let exists m vars f =
  let vars = List.sort_uniq Stdlib.compare vars in
  List.fold_left
    (fun acc v ->
      let lo, hi = cofactor2 m acc v in
      or_ m lo hi)
    f vars

let forall m vars f =
  let vars = List.sort_uniq Stdlib.compare vars in
  List.fold_left
    (fun acc v ->
      let lo, hi = cofactor2 m acc v in
      and_ m lo hi)
    f vars

let compose m f v g =
  let lo, hi = cofactor2 m f v in
  ite m g hi lo

(* Memoized per node: support(f) = {top} U support(lo) U support(hi),
   merged as sorted lists.  Nodes are immutable and never collected, so
   the cache never invalidates. *)
let support m f =
  let rec merge a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: xs, y :: ys ->
        if x < y then x :: merge xs b
        else if y < x then y :: merge a ys
        else x :: merge xs ys
  in
  let rec go f =
    match f.node with
    | Zero | One -> []
    | Node { v; lo; hi } -> (
        match Hashtbl.find_opt m.support_cache f.id with
        | Some s -> s
        | None ->
            let s = merge [ v ] (merge (go lo) (go hi)) in
            Hashtbl.add m.support_cache f.id s;
            s)
  in
  go f

let depends_on f v =
  let seen = Hashtbl.create 64 in
  let rec go f =
    match f.node with
    | Zero | One -> false
    | Node { v = fv; lo; hi } ->
        if fv > v then false
        else if fv = v then true
        else if Hashtbl.mem seen f.id then false
        else begin
          Hashtbl.add seen f.id ();
          go lo || go hi
        end
  in
  go f

let size_list fs =
  let seen = Hashtbl.create 64 in
  let count = ref 0 in
  let rec go f =
    match f.node with
    | Zero | One -> ()
    | Node { lo; hi; _ } ->
        if not (Hashtbl.mem seen f.id) then begin
          Hashtbl.add seen f.id ();
          incr count;
          go lo;
          go hi
        end
  in
  List.iter go fs;
  !count

let size f = size_list [ f ]

let vector_compose m f subst =
  (* Replacement functions must not mention substituted variables, so that
     sequential composition coincides with simultaneous substitution. *)
  assert (
    List.for_all
      (fun (_, g) -> List.for_all (fun (w, _) -> not (depends_on g w)) subst)
      subst);
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
    match f.node with
    | Zero | One -> f
    | Node { v; lo; hi } -> (
        match Hashtbl.find_opt cache f.id with
        | Some r -> r
        | None ->
            let r = ite m (var m (pi v)) (go hi) (go lo) in
            Hashtbl.add cache f.id r;
            r)
  in
  go f

let negate_var m f v =
  let lo, hi = cofactor2 m f v in
  ite m (var m v) lo hi

let equal_on m ~care f g = is_zero (and_ m care (xor m f g))

let miter m pairs = or_list m (List.map (fun (f, g) -> xor m f g) pairs)

let sat_count m f ~nvars =
  ignore m;
  let cache = Hashtbl.create 64 in
  let rec go f =
    (* Number of satisfying assignments of the variables strictly below
       the top of [f], counted relative to the top variable level. *)
    match f.node with
    | Zero -> 0.0
    | One -> 1.0
    | Node { v; lo; hi } -> (
        match Hashtbl.find_opt cache f.id with
        | Some r -> r
        | None ->
            let weight g =
              let level_gap =
                match g.node with
                | Node { v = gv; _ } -> gv - v - 1
                | Zero | One -> nvars - v - 1
              in
              go g *. (2.0 ** float_of_int level_gap)
            in
            let r = weight lo +. weight hi in
            Hashtbl.add cache f.id r;
            r)
  in
  match f.node with
  | Zero -> 0.0
  | One -> 2.0 ** float_of_int nvars
  | Node { v; _ } -> go f *. (2.0 ** float_of_int v)

let eval f assignment =
  let rec go f =
    match f.node with
    | Zero -> false
    | One -> true
    | Node { v; lo; hi } -> if assignment v then go hi else go lo
  in
  go f

let any_sat f =
  let rec go f acc =
    match f.node with
    | Zero -> raise Not_found
    | One -> List.rev acc
    | Node { v; lo; hi } ->
        if lo.id <> 0 then go lo ((v, false) :: acc) else go hi ((v, true) :: acc)
  in
  go f []

let random m ~nvars ~density st =
  let rec go v =
    if v = nvars then if Random.State.float st 1.0 < density then m.bone else m.bzero
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

let rec pp fmt f =
  match f.node with
  | Zero -> Format.fprintf fmt "0"
  | One -> Format.fprintf fmt "1"
  | Node { v; lo; hi } -> Format.fprintf fmt "(x%d ? %a : %a)" v pp hi pp lo

let to_dot ?(name = "bdd") fs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  let seen = Hashtbl.create 64 in
  let rec go f =
    if not (Hashtbl.mem seen f.id) then begin
      Hashtbl.add seen f.id ();
      match f.node with
      | Zero -> Buffer.add_string buf "  n0 [shape=box,label=\"0\"];\n"
      | One -> Buffer.add_string buf "  n1 [shape=box,label=\"1\"];\n"
      | Node { v; lo; hi } ->
          Buffer.add_string buf
            (Printf.sprintf "  n%d [label=\"x%d\"];\n" f.id v);
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d [style=dashed];\n" f.id lo.id);
          Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" f.id hi.id);
          go lo;
          go hi
    end
  in
  List.iter go fs;
  List.iteri
    (fun i f ->
      Buffer.add_string buf
        (Printf.sprintf "  f%d [shape=plaintext,label=\"f%d\"];\n  f%d -> n%d;\n"
           i i i f.id))
    fs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
