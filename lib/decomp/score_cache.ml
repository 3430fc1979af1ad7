(* Memoization layer for the bound-set search (the paper's inner loop:
   ncc(f, B) over many candidate bound sets).

   Keys are canonical by hash consing: an ISF is identified by the pair
   (id of on-set, id of dc-set), so two structurally equal ISFs share
   their cache entries, and entries of a rewritten ISF can never be
   looked up by mistake — invalidation ([retain]) is purely about
   bounding memory, never about correctness.  Ids are only unique per
   manager, so a cache is bound to its run's manager at [create].

   Cofactor vectors are the expensive part of a score: the table keyed
   by (isf, sorted bound set) lets a vector for B be extended to
   B u {v} by splitting each cached cofactor on v (restricts of small,
   already-restricted BDDs) instead of recomputing all 2^(p+1)
   cofactors from the root.  The search decides every candidate:
   [split] hands back the parent vector its caller names for the
   halves to be compared, and stores nothing.  Each growth level
   builds an ISF's vector over the set it extends the first time a
   split reads it, and every split of that level that adds one
   variable reads it as the parent; the step's matrix then finds or
   extends the chosen set's vectors.  Scores live in
   each search's own memo (Bound_select), not here. *)

type isf_key = int * int

let isf_key f = (Bdd.id (Isf.on f), Bdd.id (Isf.dc f))

type t = {
  m : Bdd.manager;
  stats : Stats.t;
  cof : (isf_key * int list, Isf.t array) Hashtbl.t;
}

let create ?(stats = Stats.create ()) m = { m; stats; cof = Hashtbl.create 256 }
let stats t = t.stats

(* The size-(p-1) subset of [bound] a vector over [bound] comes from,
   and the variable it lacks: the first cached one, removing the
   variables in order, else [bound] minus its maximum (the
   remove-maximum chain).  Each probed subset shares the suffix of
   [bound] after the removed variable; only the prefix is copied. *)
let parent t fk bound =
  let rec probe rev_prefix = function
    | v :: rest ->
        let sub = List.rev_append rev_prefix rest in
        if Hashtbl.mem t.cof (fk, sub) then (sub, v)
        else probe (v :: rev_prefix) rest
    | [] -> (
        match rev_prefix with
        | last :: rev_rest -> (List.rev rev_rest, last)
        | [] -> invalid_arg "Score_cache.parent: empty bound set")
  in
  probe [] bound

(* The vector over [bound], from the nearest cached subset, caching
   every prefix on the way up (total restricts of a cold chain equal
   those of a from-the-root computation, so this is never worse).
   [found] is set when a cached vector was reached. *)
let rec build t f fk found bound =
  match Hashtbl.find_opt t.cof (fk, bound) with
  | Some vec ->
      found := true;
      vec
  | None ->
      let vec =
        match bound with
        | [] -> [| f |]
        | _ ->
            let sub, v = parent t fk bound in
            let vec_sub = build t f fk found sub in
            t.stats.Stats.restricts <-
              t.stats.Stats.restricts + (2 * Array.length vec_sub);
            Isf.extend_cofactor_vector t.m vec_sub sub v
      in
      Hashtbl.add t.cof (fk, bound) vec;
      vec

let cofactor_vector t f bound =
  t.stats.Stats.cof_lookups <- t.stats.Stats.cof_lookups + 1;
  let fk = isf_key f in
  match Hashtbl.find_opt t.cof (fk, bound) with
  | Some vec ->
      t.stats.Stats.cof_hits <- t.stats.Stats.cof_hits + 1;
      vec
  | None ->
      let found = ref false in
      let vec = build t f fk found bound in
      if !found then t.stats.Stats.cof_extends <- t.stats.Stats.cof_extends + 1
      else t.stats.Stats.cof_fresh <- t.stats.Stats.cof_fresh + 1;
      vec

type cofactors = Vector of Isf.t array | Split of Isf.t array * int

let split t f bound parent v =
  t.stats.Stats.cof_lookups <- t.stats.Stats.cof_lookups + 1;
  match Hashtbl.find_opt t.cof (isf_key f, bound) with
  | Some vec ->
      t.stats.Stats.cof_hits <- t.stats.Stats.cof_hits + 1;
      Vector vec
  | None ->
      t.stats.Stats.cof_decided <- t.stats.Stats.cof_decided + 1;
      Split (Lazy.force parent, v)

let retain t ~live =
  t.stats.Stats.retains <- t.stats.Stats.retains + 1;
  let alive = Hashtbl.create (List.length live * 2) in
  List.iter (fun f -> Hashtbl.replace alive (isf_key f) ()) live;
  let before = Hashtbl.length t.cof in
  Hashtbl.filter_map_inplace
    (fun (fk, _) vec -> if Hashtbl.mem alive fk then Some vec else None)
    t.cof;
  t.stats.Stats.evicted <-
    t.stats.Stats.evicted + (before - Hashtbl.length t.cof)
