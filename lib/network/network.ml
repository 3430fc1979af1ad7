type signal = int

type node =
  | Input of string
  | Const of bool
  | Lut of { fanins : signal array; tt : Bv.t }

type t = {
  mutable nodes : node array;
  (* LUT level of each node, maintained incrementally at construction
     time (inputs and constants at 0, a LUT one above its deepest
     fanin) so arrival-time-aware scoring can ask for depths while the
     network is still being grown, without a per-query traversal. *)
  mutable levels : int array;
  mutable used : int;
  mutable input_list : (string * signal) list;  (* reverse order *)
  mutable output_list : (string * signal) list;  (* reverse order *)
  struct_hash : (string, signal) Hashtbl.t;
}

let create () =
  {
    nodes = Array.make 64 (Const false);
    levels = Array.make 64 0;
    used = 0;
    input_list = [];
    output_list = [];
    struct_hash = Hashtbl.create 64;
  }

let push t node =
  if t.used = Array.length t.nodes then begin
    let bigger = Array.make (2 * t.used) (Const false) in
    Array.blit t.nodes 0 bigger 0 t.used;
    t.nodes <- bigger;
    let lbigger = Array.make (2 * t.used) 0 in
    Array.blit t.levels 0 lbigger 0 t.used;
    t.levels <- lbigger
  end;
  t.nodes.(t.used) <- node;
  t.levels.(t.used) <-
    (match node with
    | Input _ | Const _ -> 0
    | Lut { fanins; _ } ->
        1 + Array.fold_left (fun acc f -> max acc t.levels.(f)) 0 fanins);
  t.used <- t.used + 1;
  t.used - 1

let level t s =
  if s < 0 || s >= t.used then invalid_arg "Network.level: bad signal";
  t.levels.(s)

let add_input t name =
  if List.mem_assoc name t.input_list then
    invalid_arg (Printf.sprintf "Network.add_input: duplicate input %s" name);
  let s = push t (Input name) in
  t.input_list <- (name, s) :: t.input_list;
  s

let const t b =
  let key = if b then "#1" else "#0" in
  match Hashtbl.find_opt t.struct_hash key with
  | Some s -> s
  | None ->
      let s = push t (Const b) in
      Hashtbl.add t.struct_hash key s;
      s

let tt_key fanins tt =
  let buf = Buffer.create 32 in
  Array.iter (fun s -> Buffer.add_string buf (string_of_int s); Buffer.add_char buf ',') fanins;
  Buffer.add_char buf ':';
  for i = 0 to (1 lsl Bv.nvars tt) - 1 do
    Buffer.add_char buf (if Bv.get tt i then '1' else '0')
  done;
  Buffer.contents buf

(* Dependency check of a local table on its k-th input. *)
let tt_depends tt k = not (Bv.equal (Bv.cofactor tt k false) (Bv.cofactor tt k true))

let rec add_lut t ~fanins ~tt =
  let fanins = Array.of_list fanins in
  if Array.length fanins <> Bv.nvars tt then
    invalid_arg "Network.add_lut: table arity does not match fanins";
  Array.iter
    (fun s ->
      if s < 0 || s >= t.used then invalid_arg "Network.add_lut: bad fanin")
    fanins;
  (* Simplification 1: drop fanins the table does not depend on. *)
  let dependent =
    List.filter (fun k -> tt_depends tt k) (List.init (Array.length fanins) Fun.id)
  in
  if List.length dependent < Array.length fanins then begin
    let keep = Array.of_list dependent in
    let narrow =
      Bv.of_fun (Array.length keep) (fun i ->
          (* Position the kept bits, others fixed to 0. *)
          let idx = ref 0 in
          Array.iteri
            (fun new_k old_k -> if (i lsr new_k) land 1 = 1 then idx := !idx lor (1 lsl old_k))
            keep;
          Bv.get tt !idx)
    in
    add_lut t ~fanins:(List.map (fun k -> fanins.(k)) dependent) ~tt:narrow
  end
  else if Array.length fanins = 0 then const t (Bv.get tt 0)
  else if Array.length fanins = 1 && Bv.equal tt (Bv.var 1 0) then fanins.(0)
  else begin
    (* Simplification 2: constant fanins folded in. *)
    let const_val s =
      match t.nodes.(s) with Const b -> Some b | Input _ | Lut _ -> None
    in
    let folded = ref None in
    Array.iteri
      (fun k s ->
        match (const_val s, !folded) with
        | Some b, None -> folded := Some (k, b)
        | (Some _ | None), _ -> ())
      fanins;
    match !folded with
    | Some (k, b) ->
        let tt' = Bv.cofactor tt k b in
        add_lut t ~fanins:(Array.to_list fanins) ~tt:tt'
        (* the cofactor no longer depends on k, so simplification 1 fires *)
    | None -> (
        let key = tt_key fanins tt in
        match Hashtbl.find_opt t.struct_hash key with
        | Some s -> s
        | None ->
            let s = push t (Lut { fanins; tt }) in
            Hashtbl.add t.struct_hash key s;
            s)
  end

let set_output t name s =
  if s < 0 || s >= t.used then invalid_arg "Network.set_output: bad signal";
  if List.mem_assoc name t.output_list then
    invalid_arg (Printf.sprintf "Network.set_output: duplicate output %s" name);
  t.output_list <- (name, s) :: t.output_list

let tt2 f = Bv.of_fun 2 (fun i -> f ((i lsr 0) land 1 = 1) ((i lsr 1) land 1 = 1))

let not_gate t a = add_lut t ~fanins:[ a ] ~tt:(Bv.of_fun 1 (fun i -> i = 0))
let and_gate t a b = add_lut t ~fanins:[ a; b ] ~tt:(tt2 ( && ))
let or_gate t a b = add_lut t ~fanins:[ a; b ] ~tt:(tt2 ( || ))
let xor_gate t a b = add_lut t ~fanins:[ a; b ] ~tt:(tt2 ( <> ))
let xnor_gate t a b = add_lut t ~fanins:[ a; b ] ~tt:(tt2 ( = ))

let mux_gate t ~sel ~hi ~lo =
  (* fanin order: sel = var 0, hi = var 1, lo = var 2 *)
  let tt =
    Bv.of_fun 3 (fun i ->
        let s = i land 1 = 1 and h = (i lsr 1) land 1 = 1 and l = (i lsr 2) land 1 = 1 in
        if s then h else l)
  in
  add_lut t ~fanins:[ sel; hi; lo ] ~tt

let inputs t = List.rev t.input_list
let outputs t = List.rev t.output_list
let signal_equal (a : signal) b = a = b
let signal_id (s : signal) : int = s
let node_count t = t.used

let signal_of_id t i =
  if i < 0 || i >= t.used then invalid_arg "Network.signal_of_id: out of range";
  i

let view t s =
  match t.nodes.(s) with
  | Input name -> `Input name
  | Const b -> `Const b
  | Lut { fanins; tt } -> `Lut (Array.copy fanins, tt)

module Unsafe = struct
  let signal (i : int) : signal = i

  let set_lut t s ~fanins ~tt =
    t.nodes.(s) <- Lut { fanins = Array.copy fanins; tt };
    (* Best-effort level refresh: out-of-range fanins (these mutations
       exist to corrupt networks deliberately) contribute nothing, and
       downstream levels go stale — [level] is only meaningful on
       networks built through the checked constructors. *)
    t.levels.(s) <-
      1
      + Array.fold_left
          (fun acc f -> if f >= 0 && f < t.used then max acc t.levels.(f) else acc)
          0 fanins

  let alias_input t name s = t.input_list <- (name, s) :: t.input_list
  let alias_output t name s = t.output_list <- (name, s) :: t.output_list

  let redirect_output t name s =
    t.output_list <-
      List.map (fun (n, s0) -> if n = name then (n, s) else (n, s0)) t.output_list
end

let fanins t s =
  match t.nodes.(s) with
  | Input _ | Const _ -> []
  | Lut { fanins; _ } -> Array.to_list fanins

let local_tt t s =
  match t.nodes.(s) with Input _ | Const _ -> None | Lut { tt; _ } -> Some tt

let const_value t s =
  match t.nodes.(s) with Const b -> Some b | Input _ | Lut _ -> None

let input_name t s =
  match t.nodes.(s) with Input n -> Some n | Const _ | Lut _ -> None

let lut_signals_marked t mark =
  let acc = ref [] in
  for s = t.used - 1 downto 0 do
    if mark.(s) then
      match t.nodes.(s) with
      | Lut _ -> acc := s :: !acc
      | Input _ | Const _ -> ()
  done;
  !acc

type stats = {
  input_count : int;
  output_count : int;
  lut_count : int;
  max_fanin : int;
  depth : int;
  two_input_gates : int;
  inverters : int;
}

let reachable t =
  let mark = Array.make t.used false in
  let rec go s =
    if not mark.(s) then begin
      mark.(s) <- true;
      match t.nodes.(s) with
      | Input _ | Const _ -> ()
      | Lut { fanins; _ } -> Array.iter go fanins
    end
  in
  List.iter (fun (_, s) -> go s) t.output_list;
  mark

let lut_signals t = lut_signals_marked t (reachable t)

(* Node ids are allocated in construction order, so ascending id order
   is a topological order on any sound network. *)
let iter_cone t f =
  let mark = reachable t in
  for s = 0 to t.used - 1 do
    if mark.(s) then f s
  done

let stats t =
  let mark = reachable t in
  let lut_count = ref 0 and max_fanin = ref 0 in
  let two = ref 0 and inv = ref 0 in
  let depth = Array.make t.used 0 in
  for s = 0 to t.used - 1 do
    if mark.(s) then
      match t.nodes.(s) with
      | Input _ | Const _ -> ()
      | Lut { fanins; _ } ->
          incr lut_count;
          let k = Array.length fanins in
          max_fanin := max !max_fanin k;
          if k = 2 then incr two;
          if k = 1 then incr inv;
          depth.(s) <- 1 + Array.fold_left (fun acc f -> max acc depth.(f)) 0 fanins
  done;
  let d =
    List.fold_left (fun acc (_, s) -> max acc depth.(s)) 0 t.output_list
  in
  {
    input_count = List.length t.input_list;
    output_count = List.length t.output_list;
    lut_count = !lut_count;
    max_fanin = !max_fanin;
    depth = d;
    two_input_gates = !two;
    inverters = !inv;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "@[inputs=%d outputs=%d luts=%d max_fanin=%d depth=%d gates2=%d inv=%d@]"
    s.input_count s.output_count s.lut_count s.max_fanin s.depth
    s.two_input_gates s.inverters

let eval t assignment =
  let values = Array.make t.used false in
  for s = 0 to t.used - 1 do
    values.(s) <-
      (match t.nodes.(s) with
      | Input name -> assignment name
      | Const b -> b
      | Lut { fanins; tt } ->
          let idx = ref 0 in
          Array.iteri (fun k f -> if values.(f) then idx := !idx lor (1 lsl k)) fanins;
          Bv.get tt !idx)
  done;
  List.map (fun (name, s) -> (name, values.(s))) (List.rev t.output_list)

let output_bdds t m ~var_of_input =
  let bdds = Array.make t.used (Bdd.zero m) in
  for s = 0 to t.used - 1 do
    bdds.(s) <-
      (match t.nodes.(s) with
      | Input name -> Bdd.var m (var_of_input name)
      | Const b -> if b then Bdd.one m else Bdd.zero m
      | Lut { fanins; tt } ->
          (* Shannon-expand the local table over the fanin BDDs. *)
          let rec go k idx =
            if k = Array.length fanins then
              if Bv.get tt idx then Bdd.one m else Bdd.zero m
            else
              Bdd.ite m bdds.(fanins.(k)) (go (k + 1) (idx lor (1 lsl k))) (go (k + 1) idx)
          in
          go 0 0)
  done;
  List.map (fun (name, s) -> (name, bdds.(s))) (List.rev t.output_list)

let equivalent_to_spec t m ~var_of_input spec =
  let got = output_bdds t m ~var_of_input in
  List.length got = List.length spec
  && List.for_all
       (fun (name, f) ->
         match List.assoc_opt name got with
         | Some g -> Bdd.equal f g
         | None -> false)
       spec

let equivalent t1 t2 =
  let names1 = List.map fst (inputs t1) and names2 = List.map fst (inputs t2) in
  if List.sort compare names1 <> List.sort compare names2 then false
  else begin
    let m = Bdd.manager () in
    let var_of = Hashtbl.create 16 in
    List.iteri (fun i name -> Hashtbl.add var_of name i) names1;
    let lookup name = Hashtbl.find var_of name in
    let spec = output_bdds t1 m ~var_of_input:lookup in
    equivalent_to_spec t2 m ~var_of_input:lookup spec
  end

let sweep t =
  let mark = reachable t in
  let fresh = create () in
  let remap = Array.make t.used (-1) in
  (* keep declared inputs even if unused, to preserve the interface *)
  List.iter
    (fun (name, s) -> remap.(s) <- add_input fresh name)
    (List.rev t.input_list);
  for s = 0 to t.used - 1 do
    if mark.(s) && remap.(s) < 0 then
      remap.(s) <-
        (match t.nodes.(s) with
        | Input name -> List.assoc name (inputs fresh)
        | Const b -> const fresh b
        | Lut { fanins; tt } ->
            add_lut fresh
              ~fanins:(Array.to_list (Array.map (fun f -> remap.(f)) fanins))
              ~tt)
  done;
  List.iter (fun (name, s) -> set_output fresh name remap.(s)) (List.rev t.output_list);
  fresh

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph network {\n  rankdir=LR;\n";
  let mark = reachable t in
  for s = 0 to t.used - 1 do
    if mark.(s) then begin
      (match t.nodes.(s) with
      | Input name ->
          Buffer.add_string buf
            (Printf.sprintf "  n%d [shape=triangle,label=\"%s\"];\n" s name)
      | Const b ->
          Buffer.add_string buf
            (Printf.sprintf "  n%d [shape=box,label=\"%d\"];\n" s (Bool.to_int b))
      | Lut { fanins; _ } ->
          Buffer.add_string buf
            (Printf.sprintf "  n%d [shape=ellipse,label=\"LUT%d\"];\n" s
               (Array.length fanins)));
      match t.nodes.(s) with
      | Lut { fanins; _ } ->
          Array.iter
            (fun f -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" f s))
            fanins
      | Input _ | Const _ -> ()
    end
  done;
  List.iter
    (fun (name, s) ->
      Buffer.add_string buf
        (Printf.sprintf "  o_%s [shape=plaintext,label=\"%s\"];\n  n%d -> o_%s;\n"
           name name s name))
    (List.rev t.output_list);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
