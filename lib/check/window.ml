type ctx = {
  net : Network.t;
  rank : int array;  (* signal id -> topological rank, -1 unreachable *)
  fanouts : int list array;  (* signal id -> LUT fanout ids (reachable) *)
  po_driver : bool array;  (* signal id -> drives a primary output *)
  covers : Isop.t array;  (* signal id -> LUT covers, [no_cover] until used *)
}

let no_cover = { Isop.nvars = -1; on = [||]; off = [||] }

let context net =
  let n = max (Network.node_count net) 1 in
  let rank = Array.make n (-1) in
  let fanouts = Array.make n [] in
  let po_driver = Array.make n false in
  let next = ref 0 in
  Network.iter_cone net (fun s ->
      let id = Network.signal_id s in
      rank.(id) <- !next;
      incr next;
      match Network.view net s with
      | `Input _ | `Const _ -> ()
      | `Lut (fanins, _) ->
          Array.iter
            (fun f -> fanouts.(Network.signal_id f) <- id :: fanouts.(Network.signal_id f))
            fanins);
  List.iter (fun (_, s) -> po_driver.(Network.signal_id s) <- true) (Network.outputs net);
  { net; rank; fanouts; po_driver; covers = Array.make n no_cover }

let network ctx = ctx.net

let cover ctx s =
  let id = Network.signal_id s in
  if ctx.covers.(id) != no_cover then ctx.covers.(id)
  else
    match Network.view ctx.net s with
    | `Lut (_, tt) ->
        let c = Isop.of_table tt in
        ctx.covers.(id) <- c;
        c
    | `Input _ | `Const _ -> invalid_arg "Window.cover: not a LUT node"

(* Highest density first; topological rank breaks ties, so the order
   is deterministic and degrades to plain topological order when the
   density function is constant. *)
let order_by_density ctx ~density signals =
  let keyed =
    Array.map
      (fun s -> ((-density s, ctx.rank.(Network.signal_id s)), s))
      signals
  in
  Array.sort (fun (ka, _) (kb, _) -> compare ka kb) keyed;
  Array.map snd keyed

type t = {
  w_center : Network.signal;
  w_internals : Network.signal array;
  w_leaves : Network.signal array;
  w_roots : Network.signal array;
  tfo_set : bool array;  (* by signal id *)
}

let center t = t.w_center
let internals t = t.w_internals
let leaves t = t.w_leaves
let roots t = t.w_roots
let in_tfo t s = t.tfo_set.(Network.signal_id s)

(* Depths are clamped so that [tfi + tfo] cannot overflow. *)
let clamp d = if d < 0 then 0 else min d 1_000_000

let is_lut ctx s =
  match Network.view ctx.net s with `Lut _ -> true | _ -> false

let build ctx ~center ~tfi_depth ~tfo_depth =
  if not (is_lut ctx center) then
    invalid_arg "Window.build: center must be a LUT node";
  let tfi_depth = clamp tfi_depth and tfo_depth = clamp tfo_depth in
  let n = Array.length ctx.rank in
  let cid = Network.signal_id center in
  (* forward BFS: the center's transitive fanout to [tfo_depth] *)
  let tfo_set = Array.make n false in
  tfo_set.(cid) <- true;
  let frontier = ref [ cid ] in
  let d = ref 0 in
  while !d < tfo_depth && !frontier <> [] do
    incr d;
    let next = ref [] in
    List.iter
      (fun id ->
        List.iter
          (fun f ->
            if not tfo_set.(f) then begin
              tfo_set.(f) <- true;
              next := f :: !next
            end)
          ctx.fanouts.(id))
      !frontier;
    frontier := !next
  done;
  (* roots: TFO nodes whose influence escapes the TFO set *)
  let root_ids = ref [] in
  for id = 0 to n - 1 do
    if tfo_set.(id) then
      if
        ctx.po_driver.(id)
        || List.exists (fun f -> not tfo_set.(f)) ctx.fanouts.(id)
      then root_ids := id :: !root_ids
  done;
  (* backward BFS from roots and center to [tfi_depth + tfo_depth],
     over LUT nodes only *)
  let in_w = Array.make n false in
  let seed = cid :: !root_ids in
  List.iter (fun id -> in_w.(id) <- true) seed;
  let frontier = ref seed in
  let d = ref 0 in
  let back_depth = tfi_depth + tfo_depth in
  while !d < back_depth && !frontier <> [] do
    incr d;
    let next = ref [] in
    List.iter
      (fun id ->
        match Network.view ctx.net (Network.signal_of_id ctx.net id) with
        | `Input _ | `Const _ -> ()
        | `Lut (fanins, _) ->
            Array.iter
              (fun f ->
                let fid = Network.signal_id f in
                if (not in_w.(fid)) && is_lut ctx f then begin
                  in_w.(fid) <- true;
                  next := fid :: !next
                end)
              fanins)
      !frontier;
    frontier := !next
  done;
  (* leaves: non-constant fanins of window members outside the window *)
  let leaf = Array.make n false in
  let leaf_ids = ref [] in
  let internal_ids = ref [] in
  for id = 0 to n - 1 do
    if in_w.(id) then begin
      internal_ids := id :: !internal_ids;
      match Network.view ctx.net (Network.signal_of_id ctx.net id) with
      | `Input _ | `Const _ -> assert false
      | `Lut (fanins, _) ->
          Array.iter
            (fun f ->
              let fid = Network.signal_id f in
              if (not in_w.(fid)) && not leaf.(fid) then
                match Network.view ctx.net f with
                | `Const _ -> ()
                | `Input _ | `Lut _ ->
                    leaf.(fid) <- true;
                    leaf_ids := fid :: !leaf_ids)
            fanins
    end
  done;
  let by_rank ids =
    let a = Array.of_list ids in
    Array.sort (fun a b -> compare ctx.rank.(a) ctx.rank.(b)) a;
    Array.map (Network.signal_of_id ctx.net) a
  in
  {
    w_center = center;
    w_internals = by_rank !internal_ids;
    w_leaves = by_rank !leaf_ids;
    w_roots = by_rank !root_ids;
    tfo_set;
  }
