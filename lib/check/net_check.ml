(* The passes work on raw node views so they stay total on corrupted
   networks: nothing here calls an accessor that assumes the very
   invariants being checked. *)

(* Sort the fanins by signal id (original position as tie-break, so
   duplicate fanin signals stay stable) and permute the table to match:
   two LUTs computing the same local function of the same fanins in a
   different order canonicalize identically.  [remap] sends a row index
   of the canonical table back to the original table. *)
let canonical_lut fanins tt =
  let k = Array.length fanins in
  let order = Array.init k Fun.id in
  Array.sort
    (fun a b ->
      compare
        (Network.signal_id fanins.(a), a)
        (Network.signal_id fanins.(b), b))
    order;
  let sorted = Array.map (fun old_j -> fanins.(old_j)) order in
  let remap c =
    let idx = ref 0 in
    Array.iteri
      (fun new_j old_j ->
        if (c lsr new_j) land 1 = 1 then idx := !idx lor (1 lsl old_j))
      order;
    !idx
  in
  (sorted, Bv.of_fun k (fun c -> Bv.get tt (remap c)), remap)

let namer net =
  let n = Network.node_count net in
  let output_of = Hashtbl.create 16 in
  List.iter
    (fun (name, s) ->
      let i = Network.signal_id s in
      if not (Hashtbl.mem output_of i) then Hashtbl.add output_of i name)
    (Network.outputs net);
  fun s ->
    let i = Network.signal_id s in
    if i < 0 || i >= n then Printf.sprintf "n%d" i
    else
      match Network.view net s with
      | `Input name -> name
      | `Const _ | `Lut _ -> (
          match Hashtbl.find_opt output_of i with
          | Some name -> name
          | None -> Printf.sprintf "n%d" i)

let analyze ?lut_size ?(style = true) net =
  let n = Network.node_count net in
  let findings = ref [] in
  let add ?loc code msg = findings := Diagnostic.make ?loc code msg :: !findings in
  let in_range s =
    let i = Network.signal_id s in
    i >= 0 && i < n
  in
  let name_of = namer net in
  (* ---- structural passes ---- *)
  for i = 0 to n - 1 do
    let s = Network.signal_of_id net i in
    match Network.view net s with
    | `Input _ | `Const _ -> ()
    | `Lut (fanins, tt) ->
        let loc = name_of s in
        Array.iter
          (fun f ->
            if not (in_range f) then
              add ~loc "NET001"
                (Printf.sprintf "fanin id %d outside [0, %d)"
                   (Network.signal_id f) n)
            else if Network.signal_id f >= i then
              add ~loc "NET003"
                (Printf.sprintf "fanin %s (id %d) does not precede LUT id %d"
                   (name_of f) (Network.signal_id f) i))
          fanins;
        if Bv.nvars tt <> Array.length fanins then
          add ~loc "NET002"
            (Printf.sprintf "table has %d variables but the LUT has %d fanins"
               (Bv.nvars tt) (Array.length fanins));
        (match lut_size with
        | Some k when Array.length fanins > k ->
            add ~loc "NET005"
              (Printf.sprintf "%d fanins exceed the LUT size %d"
                 (Array.length fanins) k)
        | Some _ | None -> ())
  done;
  List.iter
    (fun (name, s) ->
      if not (in_range s) then
        add ~loc:name "NET004"
          (Printf.sprintf "output bound to signal id %d outside [0, %d)"
             (Network.signal_id s) n))
    (Network.outputs net);
  let report_duplicates code kind names =
    let seen = Hashtbl.create 16 in
    List.iter
      (fun name ->
        if Hashtbl.mem seen name then
          add ~loc:name code (Printf.sprintf "%s %s declared twice" kind name)
        else Hashtbl.add seen name ())
      names
  in
  report_duplicates "NET009" "input" (List.map fst (Network.inputs net));
  report_duplicates "NET010" "output" (List.map fst (Network.outputs net));
  let structurally_sound =
    not (List.exists (fun f -> f.Diagnostic.severity = Diagnostic.Error) !findings)
  in
  (* ---- style passes (need a traversable network) ---- *)
  if style && structurally_sound then begin
    let reachable = Array.make (max n 1) false in
    let rec visit s =
      let i = Network.signal_id s in
      if not reachable.(i) then begin
        reachable.(i) <- true;
        match Network.view net s with
        | `Input _ | `Const _ -> ()
        | `Lut (fanins, _) -> Array.iter visit fanins
      end
    in
    List.iter (fun (_, s) -> visit s) (Network.outputs net);
    let tt_keys = Hashtbl.create 16 in
    for i = 0 to n - 1 do
      let s = Network.signal_of_id net i in
      match Network.view net s with
      | `Input _ | `Const _ -> ()
      | `Lut (fanins, tt) ->
          let loc = name_of s in
          if not reachable.(i) then
            add ~loc "NET006" "LUT is not reachable from any output";
          (* Canonical key: fanins sorted with the table permuted to
             match, so duplicates are caught regardless of fanin order
             (one hash per LUT, O(n) over the network). *)
          let sorted, ctt, _ = canonical_lut fanins tt in
          let key =
            String.concat ","
              (Array.to_list (Array.map (fun f -> string_of_int (Network.signal_id f)) sorted))
            ^ ":"
            ^ String.concat ""
                (List.init (1 lsl Bv.nvars ctt) (fun j ->
                     if Bv.get ctt j then "1" else "0"))
          in
          (match Hashtbl.find_opt tt_keys key with
          | Some first ->
              add ~loc "NET007"
                (Printf.sprintf
                   "duplicate of LUT %s (same fanins and table up to fanin order)"
                   first)
          | None -> Hashtbl.add tt_keys key loc);
          let arity = Bv.nvars tt in
          let constant =
            let v = Bv.get tt 0 in
            let rec all j = j >= 1 lsl arity || (Bv.get tt j = v && all (j + 1)) in
            all 1
          in
          if constant then
            add ~loc "NET008" "table is constant (fold into a constant node)"
          else if arity = 1 && Bv.get tt 1 && not (Bv.get tt 0) then
            add ~loc "NET008" "single-input buffer (forward the fanin instead)"
    done
  end;
  List.rev !findings
