exception Cutoff of string

type info = {
  signal : Network.signal;
  global : Bdd.t;
  code_sets : Bdd.t array;
  observable : Bdd.t;
}

type t = {
  nodes : info list;
  outputs : (string * Bdd.t) list;
  cares : (string * Bdd.t) list;
  care_any : Bdd.t;
  analyzed : int;
  total : int;
  truncated : string option;
  screened : int;
}

let analyze ?care_of_output ?(check = fun () -> ())
    ?(full_observable = fun _ -> false) m ~var_of_input net =
  let n = Network.node_count net in
  let care_of name =
    match care_of_output with Some f -> f name | None -> Bdd.one m
  in
  let cares =
    List.map (fun (name, _) -> (name, care_of name)) (Network.outputs net)
  in
  let care_any =
    (* No outputs means nothing is observable; that degenerate network
       has no care space either. *)
    Bdd.or_list m (List.map snd cares)
  in
  (* Lift a local table through the fanin globals: build the table's
     function over scratch variables placed above every input variable,
     then substitute the fanin globals simultaneously.  The scratch
     variables cannot occur in the substituted functions, which is
     exactly [Bdd.vector_compose]'s contract. *)
  let scratch_base =
    1
    + List.fold_left
        (fun acc (name, _) -> max acc (var_of_input name))
        (-1) (Network.inputs net)
  in
  let lut_global lookup fanins tt =
    let k = Array.length fanins in
    let scratch = List.init k (fun j -> scratch_base + j) in
    let local = Invariant.function_of_tt m scratch tt in
    Bdd.vector_compose m local
      (List.init k (fun j -> (scratch_base + j, lookup fanins.(j))))
  in
  (* ---- forward pass: global function of every reachable node ---- *)
  let globals = Array.make (max n 1) (Bdd.zero m) in
  let order = ref [] in
  Network.iter_cone net (fun s -> order := s :: !order);
  let order = List.rev !order in
  let total =
    List.length
      (List.filter
         (fun s -> match Network.view net s with `Lut _ -> true | _ -> false)
         order)
  in
  let truncated = ref None in
  let forward_ok =
    try
      List.iter
        (fun s ->
          check ();
          globals.(Network.signal_id s) <-
            (match Network.view net s with
            | `Input name -> Bdd.var m (var_of_input name)
            | `Const b -> if b then Bdd.one m else Bdd.zero m
            | `Lut (fanins, tt) ->
                lut_global (fun f -> globals.(Network.signal_id f)) fanins tt))
        order;
      true
    with Cutoff reason ->
      truncated := Some reason;
      false
  in
  if not forward_ok then
    {
      nodes = [];
      outputs = [];
      cares;
      care_any;
      analyzed = 0;
      total;
      truncated = !truncated;
      screened = 0;
    }
  else begin
    let outputs =
      List.map
        (fun (name, s) -> (name, globals.(Network.signal_id s)))
        (Network.outputs net)
    in
    (* ---- SDC: which local fanin codes are reachable within care ---- *)
    let code_sets fanins =
      let k = Array.length fanins in
      let arr = Array.make (1 lsl k) (Bdd.zero m) in
      let rec go j acc code =
        (* [acc]: care minterms driving fanins [0..j-1] to the bits of
           [code]; an empty prefix kills the whole subtree at once. *)
        if not (Bdd.is_zero acc) then
          if j = k then arr.(code) <- acc
          else begin
            let g = globals.(Network.signal_id fanins.(j)) in
            go (j + 1) (Bdd.diff m acc g) code;
            go (j + 1) (Bdd.and_ m acc g) (code lor (1 lsl j))
          end
      in
      go 0 care_any 0;
      arr
    in
    (* ---- ODC: re-simulate the fanout cone with the node flipped and
       miter every output against its original function.  Flipping a
       node at input vector [x] only changes the evaluation at that
       same [x], so the pointwise difference of the miters is exactly
       the observability set. *)
    let observable_of s =
      let flipped = Array.make n None in
      flipped.(Network.signal_id s) <-
        Some (Bdd.not_ m globals.(Network.signal_id s));
      List.iter
        (fun t ->
          let i = Network.signal_id t in
          if i > Network.signal_id s && flipped.(i) = None then
            match Network.view net t with
            | `Input _ | `Const _ -> ()
            | `Lut (fanins, tt) ->
                if
                  Array.exists
                    (fun f -> flipped.(Network.signal_id f) <> None)
                    fanins
                then begin
                  let g' =
                    lut_global
                      (fun f ->
                        match flipped.(Network.signal_id f) with
                        | Some g -> g
                        | None -> globals.(Network.signal_id f))
                      fanins tt
                  in
                  (* Reconvergence can cancel the flip; stopping the
                     propagation here keeps the cone tight. *)
                  if not (Bdd.equal g' globals.(i)) then
                    flipped.(i) <- Some g'
                end)
        order;
      List.fold_left
        (fun acc (name, so) ->
          match flipped.(Network.signal_id so) with
          | None -> acc
          | Some g' ->
              let care = List.assoc name cares in
              Bdd.or_ m acc
                (Bdd.and_ m care
                   (Bdd.xor m g' globals.(Network.signal_id so))))
        (Bdd.zero m) (Network.outputs net)
    in
    let nodes = ref [] and analyzed = ref 0 and screened = ref 0 in
    (try
       List.iter
         (fun s ->
           match Network.view net s with
           | `Input _ | `Const _ -> ()
           | `Lut (fanins, _) ->
               check ();
               (* The hint must be exact, not approximate: a caller
                  asserting [full_observable s] promises the node's
                  observability set IS the whole care space (e.g. the
                  node pointwise drives a full-care output), so using
                  [care_any] directly changes cost, never results. *)
               let observable =
                 if full_observable s then begin
                   incr screened;
                   care_any
                 end
                 else observable_of s
               in
               let info =
                 {
                   signal = s;
                   global = globals.(Network.signal_id s);
                   code_sets = code_sets fanins;
                   observable;
                 }
               in
               nodes := info :: !nodes;
               incr analyzed)
         order
     with Cutoff reason -> truncated := Some reason);
    {
      nodes = List.rev !nodes;
      outputs;
      cares;
      care_any;
      analyzed = !analyzed;
      total;
      truncated = !truncated;
      screened = !screened;
    }
  end

let limiter ?max_nodes ?timeout m () =
  let node_limit = Option.map (fun b -> Bdd.node_count m + b) max_nodes in
  (* The deadline is wall time on the monotonic clock, never processor
     time: a CPU-time clock advances at N-times the wall rate under
     worker domains (a --sem-timeout would fire early), and while the
     process blocks it barely advances (the timeout would never fire).
     CI greps lib/ to keep it that way. *)
  let deadline = Option.map (fun secs -> Mono.now () +. secs) timeout in
  fun () ->
    (match node_limit with
    | Some limit when Bdd.node_count m > limit -> raise (Cutoff "node budget")
    | Some _ | None -> ());
    match deadline with
    | Some d when Mono.now () > d -> raise (Cutoff "deadline")
    | Some _ | None -> ()

(* Unlike [limiter], truncation by poll count is independent of BDD
   allocation and wall time, so two runs that differ only in how much
   work each polled step does (e.g. screening on vs. off) truncate at
   the same node — the property the lint-equivalence checks rely on. *)
let step_limiter ~max_steps () =
  let steps = ref 0 in
  fun () ->
    incr steps;
    if !steps > max_steps then raise (Cutoff "step budget")
