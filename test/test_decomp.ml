(* Tests for the decomposition core: compatible classes, encoding,
   single steps, the recursive driver, and CLB merging. *)

let man = Bdd.manager ()
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let gen_fun n =
  let open QCheck2.Gen in
  let+ bits = list_size (return (1 lsl n)) bool in
  let arr = Array.of_list bits in
  Bv.of_fun n (fun i -> arr.(i))

let gen_isf n =
  let open QCheck2.Gen in
  let+ cells = list_size (return (1 lsl n)) (int_range 0 2) in
  let arr = Array.of_list cells in
  let on = Bv.of_fun n (fun i -> arr.(i) = 1) in
  let dc = Bv.of_fun n (fun i -> arr.(i) = 2) in
  Isf.make man ~on:(Bv.to_bdd man on) ~dc:(Bv.to_bdd man dc)

(* Brute-force ncc for a completely specified single-output function:
   distinct rows of the bound-set table. *)
let brute_ncc bv bound_vars total_vars =
  let p = List.length bound_vars in
  let free = List.filter (fun v -> not (List.mem v bound_vars)) (List.init total_vars Fun.id) in
  let rows = Hashtbl.create 16 in
  for bidx = 0 to (1 lsl p) - 1 do
    let row =
      List.init (1 lsl List.length free) (fun fidx ->
          let assignment v =
            match List.find_index (fun w -> w = v) bound_vars with
            | Some k -> (bidx lsr (p - 1 - k)) land 1 = 1
            | None -> (
                match List.find_index (fun w -> w = v) free with
                | Some k -> (fidx lsr k) land 1 = 1
                | None -> false)
          in
          Bv.eval bv assignment)
    in
    Hashtbl.replace rows row ()
  done;
  Hashtbl.length rows

let classes_tests =
  [
    Alcotest.test_case "ncc of an and gate" `Quick (fun () ->
        (* f = x0x1x2x3: bound {0,1}: cofactors {0, x2x3} -> 2 classes *)
        let f =
          Bdd.and_list man [ Bdd.var man 0; Bdd.var man 1; Bdd.var man 2; Bdd.var man 3 ]
        in
        check_int "2 classes" 2 (Classes.ncc_csf man [ f ] [ 0; 1 ]));
    Alcotest.test_case "ncc of parity is 2" `Quick (fun () ->
        let f =
          List.fold_left (fun acc v -> Bdd.xor man acc (Bdd.var man v)) (Bdd.zero man)
            [ 0; 1; 2; 3; 4 ]
        in
        check_int "parity" 2 (Classes.ncc_csf man [ f ] [ 0; 1; 2 ]));
    Alcotest.test_case "totally symmetric function: p+1 classes" `Quick (fun () ->
        (* weight function on bound set of size 3: classes = weights 0..3 *)
        let rec build v ones =
          if v = 6 then if ones >= 3 then Bdd.one man else Bdd.zero man
          else
            Bdd.ite man (Bdd.var man v) (build (v + 1) (ones + 1)) (build (v + 1) ones)
        in
        let f = build 0 0 in
        check_int "4 classes" 4 (Classes.ncc_csf man [ f ] [ 0; 1; 2 ]));
    Alcotest.test_case "multi-output classes refine" `Quick (fun () ->
        let f1 = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
        let f2 = Bdd.xor man (Bdd.var man 0) (Bdd.var man 1) in
        let joint = Classes.ncc_csf man [ f1; f2 ] [ 0; 1 ] in
        let n1 = Classes.ncc_csf man [ f1 ] [ 0; 1 ] in
        let n2 = Classes.ncc_csf man [ f2 ] [ 0; 1 ] in
        check_bool "joint >= each" true (joint >= n1 && joint >= n2);
        check_int "joint = 3" 3 joint);
    Alcotest.test_case "join_isfs of compatible" `Quick (fun () ->
        let x = Bdd.var man 0 in
        let a = Isf.make man ~on:x ~dc:(Bdd.not_ man x) in
        let b = Isf.make man ~on:(Bdd.zero man) ~dc:x in
        let j = Isf.join man [ a; b ] in
        check_bool "on = x" true (Bdd.equal (Isf.on j) x);
        check_bool "off = ~x" true (Bdd.equal (Isf.off man j) (Bdd.not_ man x)));
  ]

let classes_props =
  [
    QCheck2.Test.make ~name:"ncc matches brute force" ~count:100 (gen_fun 5)
      (fun bv ->
        let f = Bv.to_bdd man bv in
        Classes.ncc_csf man [ f ] [ 1; 3 ] = brute_ncc bv [ 1; 3 ] 5);
    QCheck2.Test.make ~name:"dedup node count bounds classes" ~count:100
      (gen_isf 5)
      (fun f ->
        let info = Classes.cofactor_matrix man [ f ] [ 0; 2; 4 ] in
        let nodes = Classes.nnodes info in
        nodes >= 1 && nodes <= 8 && Classes.nvertices info = 8);
  ]

(* The Hashtbl class numbering that [Classes.numbering] replaced, kept
   as the oracle: every vertex keyed by the tuple of its cofactors' id
   pairs, ids handed out in first-occurrence order. *)
let reference_node_of_vertex isfs bound =
  let vecs = List.map (fun f -> Isf.cofactor_vector man f bound) isfs in
  let nverts = 1 lsl List.length bound in
  let table = Hashtbl.create 64 in
  Array.init nverts (fun v ->
      let key =
        List.map (fun vec -> (Bdd.id (Isf.on vec.(v)), Bdd.id (Isf.dc vec.(v)))) vecs
      in
      match Hashtbl.find_opt table key with
      | Some node -> node
      | None ->
          let node = Hashtbl.length table in
          Hashtbl.add table key node;
          node)

(* A random ascending bound set of 1-6 of the variables 0..8; the ISFs
   of these tests live on 0..6, so 7 and 8 are outside every support. *)
let gen_bound =
  let open QCheck2.Gen in
  let+ mask = int_range 1 511 and+ cut = int_range 1 6 in
  let vars = List.filter (fun v -> (mask lsr v) land 1 = 1) (List.init 9 Fun.id) in
  List.filteri (fun i _ -> i < cut) vars

(* An ISF on 0..6 whose on-set reads only the variables of one random
   mask and whose don't cares also read those of another, so that the
   on-set and off-set supports differ. *)
let gen_sparse_isf =
  let open QCheck2.Gen in
  let* on_mask = int_bound 127 in
  let* dc_mask = int_bound 127 in
  let* on_bits = list_size (return 128) bool in
  let+ dc_bits = list_size (return 128) (int_range 0 2) in
  let on_arr = Array.of_list on_bits and dc_arr = Array.of_list dc_bits in
  let on i = on_arr.(i land on_mask) in
  let dc i = (not (on i)) && dc_arr.(i land dc_mask) = 0 in
  Isf.make man ~on:(Bv.to_bdd man (Bv.of_fun 7 on)) ~dc:(Bv.to_bdd man (Bv.of_fun 7 dc))

(* The vector over the whole bound set that a vector over [sub] stands
   for: vertex [v] reads the entry at its bits for [sub]'s variables. *)
let expand bound sub vec =
  let p = List.length bound in
  Array.init (1 lsl p) (fun v ->
      List.fold_left
        (fun idx u ->
          let k = Option.get (List.find_index (( = ) u) bound) in
          (2 * idx) + ((v lsr (p - 1 - k)) land 1))
        0 sub
      |> Array.get vec)

let numbering_props =
  [
    QCheck2.Test.make ~name:"projected refine equals refine of the expansion"
      ~count:150
      QCheck2.Gen.(
        pair gen_bound
          (list_size (int_range 1 3)
             (pair (oneof [ gen_isf 7; gen_sparse_isf ]) (opt (int_bound 63)))))
      (fun (bound, items) ->
        (* [None] is the bound set itself, the same physical list;
           a mask picks a subset, all of it included. *)
        let items =
          List.map
            (fun (f, mask) ->
              let sub =
                match mask with
                | None -> bound
                | Some mask -> List.filteri (fun i _ -> (mask lsr i) land 1 = 1) bound
              in
              (sub, Isf.cofactor_vector man f sub))
            items
        in
        let projected =
          let s = Classes.numbering bound in
          let owns =
            List.map
              (fun (sub, vec) -> Classes.refine man s sub (Classes.Vector vec))
              items
          in
          (owns, Classes.count s, Classes.ids s)
        in
        let expanded =
          let s = Classes.numbering bound in
          let owns =
            List.map
              (fun (sub, vec) ->
                Classes.refine man s bound (Classes.Vector (expand bound sub vec)))
              items
          in
          (owns, Classes.count s, Classes.ids s)
        in
        projected = expanded);
    QCheck2.Test.make ~name:"a decided split refines as its built vector"
      ~count:200
      QCheck2.Gen.(
        pair gen_bound
          (list_size (int_range 1 3)
             (triple (oneof [ gen_isf 7; gen_sparse_isf ]) (int_bound 63)
                (opt (int_bound 5)))))
      (fun (bound, items) ->
        (* A mask picks the subset; an index, when given, picks the
           variable the split adds, else the subset's last one, so the
           split's parent varies. *)
        let cache = Score_cache.create man in
        let stats = Score_cache.stats cache in
        let items =
          List.map
            (fun (f, mask, pick) ->
              let sub = List.filteri (fun i _ -> (mask lsr i) land 1 = 1) bound in
              let v =
                match (pick, sub) with
                | _, [] -> None
                | Some k, _ -> Some (List.nth sub (k mod List.length sub))
                | None, _ -> Some (List.nth sub (List.length sub - 1))
              in
              (f, sub, v))
            items
        in
        let classes cofactors =
          let s = Classes.numbering bound in
          let owns =
            List.map
              (fun (f, sub, v) -> Classes.refine man s sub (cofactors f sub v))
              items
          in
          (owns, Classes.count s, Classes.ids s)
        in
        let built =
          classes (fun f sub _ -> Classes.Vector (Isf.cofactor_vector man f sub))
        in
        let parent f sub v =
          Isf.cofactor_vector man f (List.filter (fun u -> u <> v) sub)
        in
        let split f sub = function
          | None -> Classes.Vector [| f |]
          | Some v -> Score_cache.split cache f sub (lazy (parent f sub v)) v
        in
        let hits = stats.Stats.cof_hits in
        let decided = classes split in
        let direct =
          classes (fun f sub v ->
              match v with
              | None -> Classes.Vector [| f |]
              | Some v -> Classes.Split (parent f sub v, v))
        in
        (* A split stores no vector over its subset: asking again is
           no hit. *)
        let again = classes split in
        let no_hit = stats.Stats.cof_hits = hits in
        (* With the vector over the subset cached, the one probe finds
           it and the parent is never built. *)
        List.iter
          (fun (f, sub, _) ->
            if sub <> [] then ignore (Score_cache.cofactor_vector cache f sub))
          items;
        let cached =
          classes (fun f sub -> function
            | None -> Classes.Vector [| f |]
            | Some v -> Score_cache.split cache f sub (lazy (assert false)) v)
        in
        built = decided && built = direct && built = again && built = cached
        && no_hit);
    QCheck2.Test.make
      ~name:"cofactor_matrix through a score cache equals the matrix from the root"
      ~count:150
      QCheck2.Gen.(
        triple
          (list_size (int_range 1 3) (oneof [ gen_isf 7; gen_sparse_isf ]))
          gen_bound bool)
      (fun (isfs, bound, warm) ->
        let expected = reference_node_of_vertex isfs bound in
        let vecs = List.map (fun f -> Isf.cofactor_vector man f bound) isfs in
        let matches info =
          info.Classes.node_of_vertex = expected
          && Classes.nnodes info = 1 + Array.fold_left max 0 expected
          && List.for_all
               (fun v ->
                 List.for_all2 Isf.equal
                   (Array.to_list info.Classes.node_cof.(expected.(v)))
                   (List.map (fun vec -> vec.(v)) vecs))
               (List.init (Array.length expected) Fun.id)
        in
        (* A warm cache is the driver's: the search has scored [bound],
           so the matrix finds every vector it asks for. *)
        let cache = Score_cache.create man in
        if warm then ignore (Bound_select.score ~cache man isfs bound);
        let stats = Score_cache.stats cache in
        let lookups = stats.Stats.cof_lookups and hits = stats.Stats.cof_hits in
        let cached = Classes.cofactor_matrix ~cache man isfs bound in
        let asked =
          List.length
            (List.filter (fun f -> Classes.inter bound (Isf.support man f) <> []) isfs)
        in
        matches cached
        && matches (Classes.cofactor_matrix man isfs bound)
        && stats.Stats.cof_lookups - lookups = asked
        && ((not warm) || stats.Stats.cof_hits - hits = asked));
    QCheck2.Test.make ~name:"cofactor_matrix numbers nodes as the Hashtbl did"
      ~count:150
      QCheck2.Gen.(pair (list_size (int_range 1 3) (gen_isf 7)) gen_bound)
      (fun (isfs, bound) ->
        let info = Classes.cofactor_matrix man isfs bound in
        let expected = reference_node_of_vertex isfs bound in
        let vecs = List.map (fun f -> Isf.cofactor_vector man f bound) isfs in
        info.Classes.node_of_vertex = expected
        && Classes.nnodes info = 1 + Array.fold_left max 0 expected
        && List.for_all
             (fun v ->
               List.for_all2 Isf.equal
                 (Array.to_list info.Classes.node_cof.(expected.(v)))
                 (List.map (fun vec -> vec.(v)) vecs))
             (List.init (Array.length expected) Fun.id));
  ]

(* The composition function as [Step] built it from the class off-sets
   before the guarded join, kept as the oracle; [None] where it
   raised. *)
let old_compose vars codes cofs =
  let on = ref (Bdd.zero man) and off = ref (Bdd.zero man) in
  Array.iteri
    (fun c code ->
      let mt = Bdd.minterm_of_code man vars code in
      on := Bdd.or_ man !on (Bdd.and_ man mt (Isf.on cofs.(c)));
      off := Bdd.or_ man !off (Bdd.and_ man mt (Isf.off man cofs.(c))))
    codes;
  match Isf.of_on_off man ~on:!on ~off:!off with
  | g -> Some g
  | exception Invalid_argument _ -> None

(* Alpha variables (above the inputs, in any order), a code per class —
   shared and unused codes occur — and class cofactors on 0..6: random
   ones, or don't-care relaxations of one function per code, with one
   minterm perhaps flipped, so classes sharing a code are often but not
   always compatible. *)
let gen_composition =
  let open QCheck2.Gen in
  let* r = int_range 0 3 in
  let* vars = shuffle_l (List.init r (fun k -> -(k + 1))) in
  let* nclasses = int_range 1 6 in
  let* codes = array_size (return nclasses) (int_bound ((1 lsl r) - 1)) in
  let* related = bool in
  let+ cofs =
    if not related then
      array_size (return nclasses) (oneof [ gen_isf 7; gen_sparse_isf ])
    else
      let+ d = int_range 1 9
      and+ flip = opt (int_bound 127)
      and+ seed = int in
      let st = Random.State.make [| seed |] in
      let per_code =
        Array.init (1 lsl r) (fun _ -> Array.init 128 (fun _ -> Random.State.bool st))
      in
      Array.mapi
        (fun c code ->
          let h = per_code.(code) in
          let dcs = Array.init 128 (fun _ -> Random.State.int st 10 < d) in
          let value i = if c = 0 && flip = Some i then not h.(i) else h.(i) in
          Isf.make man
            ~on:(Bv.to_bdd man (Bv.of_fun 7 (fun i -> value i && not dcs.(i))))
            ~dc:(Bv.to_bdd man (Bv.of_fun 7 (Array.get dcs))))
        codes
  in
  (vars, codes, cofs)

let compose_props =
  [
    QCheck2.Test.make
      ~name:"the guarded join equals the off-set composition function"
      ~count:300 gen_composition
      (fun (vars, codes, cofs) ->
        let joined =
          match Step.compose man ~vars codes cofs with
          | g -> Some g
          | exception Invalid_argument _ -> None
        in
        match (joined, old_compose vars codes cofs) with
        | None, None -> true
        | Some a, Some b -> Isf.equal a b
        | Some _, None | None, Some _ -> false);
  ]

let encode_tests =
  [
    Alcotest.test_case "single output, 3 classes -> 2 functions" `Quick
      (fun () ->
        let spec =
          { Encode.class_of_node = [| 0; 1; 2; 1 |]; nclasses = 3 }
        in
        let enc = Encode.encode [| spec |] in
        check_bool "valid" true (Encode.check [| spec |] enc);
        check_int "2 alphas" 2 (List.length (List.hd (Array.to_list enc.Encode.outputs)).Encode.alpha_ids);
        check_int "pool 2" 2 (List.length enc.Encode.pool));
    Alcotest.test_case "identical outputs share all functions" `Quick (fun () ->
        let spec = { Encode.class_of_node = [| 0; 1; 2; 3 |]; nclasses = 4 } in
        let enc = Encode.encode [| spec; spec |] in
        check_bool "valid" true (Encode.check [| spec; spec |] enc);
        check_int "pool = 2 (fully shared)" 2 (List.length enc.Encode.pool));
    Alcotest.test_case "one class needs no function" `Quick (fun () ->
        let spec = { Encode.class_of_node = [| 0; 0; 0 |]; nclasses = 1 } in
        let enc = Encode.encode [| spec |] in
        check_bool "valid" true (Encode.check [| spec |] enc);
        check_int "no alphas" 0 (List.length enc.Encode.pool));
    Alcotest.test_case "refinement sharing" `Quick (fun () ->
        (* Output A has 4 classes {0..3}; output B distinguishes only
           {01} vs {23}: B can reuse A's most significant function. *)
        let a = { Encode.class_of_node = [| 0; 1; 2; 3 |]; nclasses = 4 } in
        let b = { Encode.class_of_node = [| 0; 0; 1; 1 |]; nclasses = 2 } in
        let enc = Encode.encode [| a; b |] in
        check_bool "valid" true (Encode.check [| a; b |] enc);
        check_int "pool 2: b reuses" 2 (List.length enc.Encode.pool));
  ]

let encode_props =
  let gen_specs =
    let open QCheck2.Gen in
    let* nnodes = int_range 1 12 in
    let* nouts = int_range 1 4 in
    let+ raw =
      list_size (return nouts) (list_size (return nnodes) (int_range 0 5))
    in
    List.map
      (fun labels ->
        (* renumber to consecutive class ids *)
        let tbl = Hashtbl.create 8 in
        let class_of_node =
          Array.of_list
            (List.map
               (fun l ->
                 match Hashtbl.find_opt tbl l with
                 | Some c -> c
                 | None ->
                     let c = Hashtbl.length tbl in
                     Hashtbl.add tbl l c;
                     c)
               labels)
        in
        { Encode.class_of_node; nclasses = Hashtbl.length tbl })
      raw
    |> Array.of_list
  in
  [
    QCheck2.Test.make ~name:"encode always valid" ~count:300 gen_specs
      (fun specs ->
        let enc = Encode.encode specs in
        Encode.check specs enc);
    QCheck2.Test.make ~name:"pool size within bounds" ~count:300 gen_specs
      (fun specs ->
        let enc = Encode.encode specs in
        let r oc =
          let rec cl k c = if c >= oc.Encode.nclasses then k else cl (k + 1) (c * 2) in
          cl 0 1
        in
        let rs = Array.to_list (Array.map r specs) in
        let total = List.fold_left ( + ) 0 rs in
        let maxr = List.fold_left max 0 rs in
        let pool = List.length enc.Encode.pool in
        pool >= maxr && pool <= total);
  ]

(* Single decomposition step on random multi-output ISFs: the recomposed
   functions must extend the originals. *)
let step_recompose_prop =
  let cfg = Config.mulop_dc in
  let gen =
    let open QCheck2.Gen in
    let* nouts = int_range 1 3 in
    list_size (return nouts) (gen_isf 5)
  in
  QCheck2.Test.make ~name:"step: g composed with alphas extends f" ~count:100 gen
    (fun isfs ->
      let isfs = Array.of_list isfs in
      let next = ref 5 in
      let fresh_var () =
        let v = !next in
        incr next;
        v
      in
      let bound = [ 0; 1; 2 ] in
      let result = Step.run man cfg ~fresh_var isfs ~bound in
      (* Substitute alphas back into g and compare with the original. *)
      Array.for_all2
        (fun f g ->
          let subst =
            List.map (fun a -> (a.Step.var, a.Step.func)) result.Step.alphas
          in
          let g_on = Bdd.vector_compose man (Isf.on g) subst in
          let g_off = Bdd.vector_compose man (Isf.off man g) subst in
          (* g extends f: on(f) implies on-composed, off(f) implies off-composed *)
          Bdd.is_zero (Bdd.diff man (Isf.on f) g_on)
          && Bdd.is_zero (Bdd.diff man (Isf.off man f) g_off))
        isfs result.Step.g)

let step_tests =
  [
    Alcotest.test_case "step on an adder slice shares alphas" `Quick (fun () ->
        (* two outputs: sum and carry of (x0,x1) ripple into x2, x3:
           s = x0 + x1 + x2 functions... simply check r and sharing on
           f1 = maj(x0,x1,x2), f2 = x0 xor x1 xor x2, bound {0,1} *)
        let x0 = Bdd.var man 0 and x1 = Bdd.var man 1 and x2 = Bdd.var man 2 in
        let maj =
          Bdd.or_list man
            [ Bdd.and_ man x0 x1; Bdd.and_ man x0 x2; Bdd.and_ man x1 x2 ]
        in
        let par = Bdd.xor man (Bdd.xor man x0 x1) x2 in
        let isfs = [| Isf.of_csf man maj; Isf.of_csf man par |] in
        let next = ref 3 in
        let fresh_var () = let v = !next in incr next; v in
        let result = Step.run man Config.mulop_dc ~fresh_var isfs ~bound:[ 0; 1 ] in
        (* maj has classes {0, x2, 1} = 3 -> r=2; parity has 2 -> r=1;
           parity's single alpha (xor) can be one of maj's two. *)
        check_int "r maj" 2 result.Step.r.(0);
        check_int "r par" 1 result.Step.r.(1);
        check_int "3 shared alphas would be unshared; expect 2" 2
          (List.length result.Step.alphas));
    Alcotest.test_case "joint lower bound reported" `Quick (fun () ->
        let f = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
        let isfs = [| Isf.of_csf man f |] in
        let next = ref 2 in
        let fresh_var () = let v = !next in incr next; v in
        let result = Step.run man Config.mulop_dc ~fresh_var isfs ~bound:[ 0; 1 ] in
        check_int "2 joint classes" 2 result.Step.joint_classes;
        check_int "lower bound 1" 1 (Step.total_alpha_lower_bound result));
  ]

(* Full driver on random functions: network must realize an extension. *)
let driver_props =
  [
    QCheck2.Test.make ~name:"driver: network extends random csf (lut 3)"
      ~count:60
      (QCheck2.Gen.pair (gen_fun 6) (gen_fun 6))
      (fun (b1, b2) ->
        let spec =
          Driver.spec_of_csf man
            (List.init 6 (Printf.sprintf "x%d"))
            [ ("f", Bv.to_bdd man b1); ("g", Bv.to_bdd man b2) ]
        in
        let cfg = Config.with_lut_size 3 Config.mulop_dc in
        let net = Driver.decompose ~cfg man spec in
        Driver.verify man spec net);
    QCheck2.Test.make ~name:"driver: random isf (lut 4), all algorithms"
      ~count:40 (gen_isf 6)
      (fun isf ->
        let spec =
          {
            Driver.input_names = List.init 6 (Printf.sprintf "x%d");
            functions = [ ("f", isf) ];
          }
        in
        List.for_all
          (fun cfg ->
            let cfg = Config.with_lut_size 4 cfg in
            let net = Driver.decompose ~cfg man spec in
            Driver.verify man spec net
            && (Network.stats net).Network.max_fanin <= 4)
          [ Config.mulop_dc; Config.mulop_ii ]);
    QCheck2.Test.make ~name:"mulop-dc never uses more LUTs than budget"
      ~count:30 (gen_fun 6)
      (fun bv ->
        (* sanity: a 6-var function needs at most 3 LUTs of 5 inputs
           (Shannon w.r.t. one variable + mux merge); allow slack *)
        let spec =
          Driver.spec_of_csf man
            (List.init 6 (Printf.sprintf "x%d"))
            [ ("f", Bv.to_bdd man bv) ]
        in
        let net = Driver.decompose man spec in
        (Network.stats net).Network.lut_count <= 4);
  ]

(* Scoring-mode regression: Driver's step-1 symmetry-commit check used
   to call Bound_select.score without ~lut_size, so at gate-level
   configs (lut_size <= 3) it accepted don't-care assignments by the
   class-count-first criterion although the bound set had been selected
   by the reduction-first one.  On this deterministic spec the pre-fix
   driver emits 72 LUTs, the fixed one 71. *)
let scoring_mode_regression =
  Alcotest.test_case "symmetry commit scores at the config's lut size" `Quick
    (fun () ->
      let st = Random.State.make [| 9 |] in
      let m = Bdd.manager () in
      let nvars = 6 in
      let mk_isf () =
        let on = Bdd.random m ~nvars ~density:0.35 st in
        let dc0 = Bdd.random m ~nvars ~density:0.4 st in
        let dc = Bdd.diff m dc0 on in
        Isf.make m ~on ~dc
      in
      let f0 = mk_isf () in
      let f1 = mk_isf () in
      let spec =
        {
          Driver.input_names = List.init nvars (Printf.sprintf "x%d");
          functions = [ ("f0", f0); ("f1", f1) ];
        }
      in
      let cfg = Config.with_lut_size 2 Config.mulop_dc in
      let report = Driver.decompose_report ~cfg m spec in
      let net = Network.sweep report.Driver.network in
      check_bool "verifies" true (Driver.verify m spec net);
      check_bool "gate count (71 post-fix, 72 with the mode mismatch)" true
        ((Network.stats net).Network.lut_count <= 71))

(* The Hashtbl scorer that [Bound_select.score] replaced (area cost, no
   cache), kept as the oracle: support overlap by [List.mem] over
   [Isf.support], class counts in [Hashtbl]s keyed by id pairs and by
   lists of them. *)
let reference_score ~lut_size m isfs bound =
  let relevant =
    List.filter_map
      (fun f ->
        let overlap =
          match bound with
          | [] -> 0
          | _ ->
              let sup = Isf.support m f in
              List.length (List.filter (fun v -> List.mem v sup) bound)
        in
        if overlap = 0 then None else Some (f, overlap))
      isfs
  in
  if relevant = [] then Cost.worst
  else begin
    let vecs =
      List.map (fun (f, overlap) -> (Isf.cofactor_vector m f bound, overlap)) relevant
    in
    let nverts = 1 lsl List.length bound in
    let distinct_of vec =
      let tbl = Hashtbl.create 8 in
      for v = 0 to nverts - 1 do
        Hashtbl.replace tbl (Bdd.id (Isf.on vec.(v)), Bdd.id (Isf.dc vec.(v))) ()
      done;
      Hashtbl.length tbl
    in
    let reduction =
      List.fold_left
        (fun acc (vec, overlap) ->
          acc + max 0 (overlap - Bits.ceil_log2 (distinct_of vec)))
        0 vecs
    in
    let joint =
      let tbl = Hashtbl.create 8 in
      for v = 0 to nverts - 1 do
        Hashtbl.replace tbl
          (List.map
             (fun (vec, _) -> (Bdd.id (Isf.on vec.(v)), Bdd.id (Isf.dc vec.(v))))
             vecs)
          ()
      done;
      Hashtbl.length tbl
    in
    let p = List.length bound in
    let realization =
      if p <= lut_size then 0
      else Bits.ceil_log2 joint * (1 + ((p - 2) / max 1 (lut_size - 1)))
    in
    let pair =
      if lut_size <= 3 then (-(reduction - realization), joint)
      else (joint + realization, -reduction)
    in
    Cost.triple Cost.area ~bound pair
  end

(* The score cache is an invisible optimization: cached and fresh
   scores must agree exactly, in both scoring modes, including repeat
   queries (memo hits) and growing bound sets (incremental cofactor
   extension).  Sparse ISFs miss part of most bound sets, so their
   vectors are cached and extended over the intersection alone; the
   reference scorer cofactors over the whole bound set. *)
let score_cache_props =
  let bound_of_mask mask =
    List.filter (fun v -> (mask lsr v) land 1 = 1) (List.init 6 Fun.id)
  in
  let gen =
    let open QCheck2.Gen in
    let* nouts = int_range 1 3 in
    let* isfs = list_size (return nouts) (oneof [ gen_isf 6; gen_sparse_isf ]) in
    let* mask1 = int_range 1 62 in
    let+ mask2 = int_range 1 62 in
    (isfs, mask1, mask2)
  in
  [
    QCheck2.Test.make ~name:"cached score equals fresh score" ~count:200 gen
      (fun (isfs, mask1, mask2) ->
        let stats = Stats.create () in
        let cache = Score_cache.create ~stats man in
        (* One memo per scoring mode: a memo belongs to one list, LUT
           size and cost. *)
        let memos = List.map (fun lut_size -> (lut_size, Bound_select.memo ())) [ 2; 5 ] in
        (* A bound set no ISF depends on is scored without the memo. *)
        let relevant bound =
          List.exists
            (fun f -> List.exists (fun v -> List.mem v (Isf.support man f)) bound)
            isfs
        in
        (* mask1 lor mask2 is a superset of both: scoring it last goes
           through the incremental extension of a cached vector. *)
        let masks = [ mask1; mask2; mask1 lor mask2 ] in
        let agree =
          List.for_all
            (fun mask ->
              let bound = bound_of_mask mask in
              List.for_all
                (fun (lut_size, memo) ->
                  let fresh = Bound_select.score ~lut_size man isfs bound in
                  let c1 = Bound_select.score ~cache ~memo ~lut_size man isfs bound in
                  let hits = stats.Stats.score_hits in
                  let c2 = Bound_select.score ~cache ~memo ~lut_size man isfs bound in
                  fresh = c1 && fresh = c2
                  && fresh = reference_score ~lut_size man isfs bound
                  && stats.Stats.score_hits - hits = if relevant bound then 1 else 0)
                memos)
            masks
        in
        let exact =
          List.for_all
            (fun (lut_size, memo) ->
              List.for_all
                (fun (b, s) -> s = Bound_select.score ~lut_size man isfs b)
                (Bound_select.memoized memo))
            memos
        in
        (* The same functions rebuilt from their truth tables get the
           same nodes (hash consing), hence the same id keys: every
           rescore reads the cached vectors and gives the original
           score. *)
        let rebuilt =
          List.map
            (fun f ->
              let again b = Bv.to_bdd man (Bv.of_bdd 7 b) in
              Isf.make man ~on:(again (Isf.on f)) ~dc:(again (Isf.dc f)))
            isfs
        in
        let restricts = stats.Stats.restricts in
        agree && exact
        && List.for_all
             (fun mask ->
               let bound = bound_of_mask mask in
               Bound_select.score ~cache ~lut_size:5 man rebuilt bound
               = Bound_select.score ~lut_size:5 man isfs bound)
             masks
        && stats.Stats.restricts = restricts);
    QCheck2.Test.make ~name:"extend_cofactor_vector = cofactor_vector"
      ~count:200
      QCheck2.Gen.(pair (gen_isf 6) (pair (int_range 1 63) (int_range 0 5)))
      (fun (f, (mask, vpos)) ->
        let all = bound_of_mask mask in
        (* remove one variable of the set, then extend back with it *)
        let v = List.nth all (vpos mod List.length all) in
        let vars = List.filter (fun u -> u <> v) all in
        let base = Isf.cofactor_vector man f vars in
        let extended = Isf.extend_cofactor_vector man base vars v in
        let direct = Isf.cofactor_vector man f all in
        Array.length extended = Array.length direct
        && Array.for_all2 Isf.equal extended direct);
  ]

(* The greedy growth of [Bound_select.select] and [select_curtis],
   kept as the oracle with every candidate scored by building its
   vectors ([Bound_select.score] without a cache): atoms are the
   eligible parts of the groups, cut to the target, plus every single
   variable; each seed grows by the first best-scoring piece to the
   target; the first best of the window and the grown sets wins. *)
let reference_select ~curtis cfg ~groups ~eligible isfs =
  let lut_size = cfg.Config.lut_size in
  let score b = Bound_select.score ~lut_size man isfs b in
  let eligible = List.sort_uniq compare eligible in
  let n = List.length eligible in
  let lut_target = min lut_size (n - 1) in
  let target, min_size =
    if curtis then (min (max (lut_size + 1) 3) (n - 1), lut_target + 1)
    else (lut_target, 2)
  in
  if target < 2 || (curtis && target <= lut_target) then None
  else begin
    let rec chunks k = function
      | [] -> []
      | vars ->
          List.filteri (fun i _ -> i < k) vars
          :: chunks k (List.filteri (fun i _ -> i >= k) vars)
    in
    let atoms =
      List.filter
        (fun c -> List.length c >= 2)
        (List.concat_map
           (fun g ->
             chunks target
               (List.filter (fun v -> List.mem v eligible) (Symmetry.group_vars g)))
           groups)
      @ List.map (fun v -> [ v ]) eligible
    in
    (* The first of the lowest-scoring items. *)
    let best_by score = function
      | [] -> None
      | x :: rest ->
          Some
            (snd
               (List.fold_left
                  (fun (bs, bx) y ->
                    let s = score y in
                    if s < bs then (s, y) else (bs, bx))
                  (score x, x) rest))
    in
    let rec grow current =
      let size = List.length current in
      if size >= target then [ List.sort compare current ]
      else
        let pieces =
          List.filter_map
            (fun atom ->
              match List.filter (fun v -> not (List.mem v current)) atom with
              | [] -> None
              | rest -> Some (List.hd (chunks (target - size) rest)))
            atoms
        in
        match best_by (fun p -> score (List.sort compare (p @ current))) pieces with
        | Some p -> grow (p @ current)
        | None -> []
    in
    let seeds =
      if lut_size <= 3 && List.length atoms <= 24 then atoms
      else begin
        let count = max 1 cfg.Config.seeds in
        let by_size =
          List.sort (fun a b -> compare (List.length b) (List.length a)) atoms
        in
        let spread =
          List.filteri (fun i _ -> i mod (1 + (List.length atoms / count)) = 0) atoms
        in
        List.fold_left
          (fun acc a -> if List.mem a acc then acc else acc @ [ a ])
          []
          (List.filteri (fun i _ -> i < count) by_size @ spread)
      end
    in
    List.filteri (fun i _ -> i < target) eligible :: List.concat_map grow seeds
    |> List.map (List.sort compare)
    |> List.filter (fun c -> List.length c >= min_size)
    |> best_by score
  end

(* Random groups over [eligible], so that atoms of several variables
   occur: a shuffled order cut at random points. *)
let gen_groups eligible =
  let open QCheck2.Gen in
  let* order = shuffle_l eligible in
  let+ cuts = list_size (return (List.length eligible)) bool in
  let groups, last =
    List.fold_left2
      (fun (groups, cur) v cut ->
        if cut && cur <> [] then (List.rev cur :: groups, [ (v, false) ])
        else (groups, (v, false) :: cur))
      ([], []) order cuts
  in
  List.rev (List.rev last :: groups)

let score_reference_props =
  [
    QCheck2.Test.make
      ~name:"decided growth chooses as the built search, every score exact"
      ~count:60
      (let eligible = List.init 7 Fun.id in
       QCheck2.Gen.(
         triple
           (list_size (int_range 1 3)
              (oneof
                 [
                   gen_isf 7;
                   gen_sparse_isf;
                   map (fun bv -> Isf.of_csf man (Bv.to_bdd man bv)) (gen_fun 7);
                 ]))
           (int_range 2 6) (gen_groups eligible)))
      (fun (isfs, lut_size, groups) ->
        let cfg = Config.with_lut_size lut_size Config.mulop_dc in
        let eligible = List.init 7 Fun.id in
        let cache = Score_cache.create man in
        (* The retry shares the main search's memo, as in the driver. *)
        let memo = Bound_select.memo () in
        let chosen = Bound_select.select ~cache ~memo man cfg ~groups ~eligible isfs in
        let curtis =
          Bound_select.select_curtis ~cache ~memo man cfg ~groups ~eligible isfs
        in
        (* Every candidate either search scored, at every size, was
           decided and memoized: each equals the built score. *)
        let memoized = Bound_select.memoized memo in
        chosen = reference_select ~curtis:false cfg ~groups ~eligible isfs
        && curtis = reference_select ~curtis:true cfg ~groups ~eligible isfs
        && chosen = Bound_select.select man cfg ~groups ~eligible isfs
        && List.for_all
             (fun (b, s) -> s = Bound_select.score ~lut_size man isfs b)
             memoized);
    QCheck2.Test.make
      ~name:"the search's decided scores and matrix equal the built ones"
      ~count:100
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 3) (oneof [ gen_isf 6; gen_sparse_isf ]))
          (int_range 2 4))
      (fun (isfs, lut_size) ->
        let cfg = Config.with_lut_size lut_size Config.mulop_dc in
        let eligible = List.init 7 Fun.id in
        let groups = List.map (fun v -> [ (v, false) ]) eligible in
        let cache = Score_cache.create man in
        let memo = Bound_select.memo () in
        match Bound_select.select ~cache ~memo man cfg ~groups ~eligible isfs with
        | None -> true
        | Some bound ->
            (* Every score the search memoized, over any subset of the
               eligible variables, was decided; each equals the score
               built without a cache. *)
            let memoized = Bound_select.memoized memo in
            let reference = reference_node_of_vertex isfs bound in
            let vecs = List.map (fun f -> Isf.cofactor_vector man f bound) isfs in
            let info = Classes.cofactor_matrix ~cache man isfs bound in
            (memoized <> [] || List.for_all (fun f -> Isf.support man f = []) isfs)
            && List.for_all
                 (fun (b, s) -> s = Bound_select.score ~lut_size man isfs b)
                 memoized
            && info.Classes.node_of_vertex = reference
            && List.for_all
                 (fun v ->
                   List.for_all2 Isf.equal
                     (Array.to_list info.Classes.node_cof.(reference.(v)))
                     (List.map (fun vec -> vec.(v)) vecs))
                 (List.init (Array.length reference) Fun.id));
    QCheck2.Test.make
      ~name:"interleaved searches over two lists memoize their own scores"
      ~count:60
      (let eligible = List.init 7 Fun.id in
       let gen_list =
         QCheck2.Gen.(list_size (int_range 1 3) (oneof [ gen_isf 7; gen_sparse_isf ]))
       in
       QCheck2.Gen.(
         quad (gen_isf 7) (pair gen_list gen_list) (int_range 2 5) (gen_groups eligible)))
      (fun (shared, (rest_a, rest_b), lut_size, groups) ->
        (* Two lists that share an ISF, hence cached vectors, and are
           scored over the same eligible variables, hence the same
           candidates, by searches that take turns on one cache. *)
        let cfg = Config.with_lut_size lut_size Config.mulop_dc in
        let eligible = List.init 7 Fun.id in
        let lists = [ shared :: rest_a; rest_b @ [ shared ] ] in
        let cache = Score_cache.create man in
        let memos = List.map (fun _ -> Bound_select.memo ()) lists in
        let turn search = List.map2 search lists memos in
        let chosen =
          turn (fun isfs memo ->
              Bound_select.select ~cache ~memo man cfg ~groups ~eligible isfs)
        in
        let curtis =
          turn (fun isfs memo ->
              Bound_select.select_curtis ~cache ~memo man cfg ~groups ~eligible isfs)
        in
        let again =
          turn (fun isfs memo ->
              Bound_select.select ~cache ~memo man cfg ~groups ~eligible isfs)
        in
        chosen = again
        && chosen
           = List.map (fun isfs -> Bound_select.select man cfg ~groups ~eligible isfs) lists
        && curtis
           = List.map
               (fun isfs -> Bound_select.select_curtis man cfg ~groups ~eligible isfs)
               lists
        && List.for_all2
             (fun isfs memo ->
               List.for_all
                 (fun (b, s) -> s = Bound_select.score ~lut_size man isfs b)
                 (Bound_select.memoized memo))
             lists memos);
    QCheck2.Test.make ~name:"score equals the Hashtbl scorer" ~count:200
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 3) (oneof [ gen_isf 7; gen_sparse_isf ]))
          gen_bound)
      (fun (isfs, bound) ->
        List.for_all
          (fun lut_size ->
            Bound_select.score ~lut_size man isfs bound
            = reference_score ~lut_size man isfs bound)
          [ 2; 5 ]);
  ]

let bits_tests =
  [
    Alcotest.test_case "ceil_log2 boundaries" `Quick (fun () ->
        check_int "1" 0 (Bits.ceil_log2 1);
        check_int "2" 1 (Bits.ceil_log2 2);
        check_int "3" 2 (Bits.ceil_log2 3);
        check_int "4" 2 (Bits.ceil_log2 4);
        check_int "5" 3 (Bits.ceil_log2 5);
        for k = 1 to 1024 do
          let b = Bits.ceil_log2 k in
          check_bool "2^b covers k" true (1 lsl b >= k);
          check_bool "b is minimal" true (b = 0 || 1 lsl (b - 1) < k)
        done);
    Alcotest.test_case "ceil_log2 near max_int terminates" `Quick (fun () ->
        (* pre-fix, doubling the cap past max_int/2 overflowed to a
           negative and the loop never terminated *)
        check_int "2^61" 61 (Bits.ceil_log2 (1 lsl 61));
        check_int "2^61 + 1" 62 (Bits.ceil_log2 ((1 lsl 61) + 1));
        check_int "max_int" 62 (Bits.ceil_log2 max_int));
    Alcotest.test_case "ceil_log2 rejects nonpositive arguments" `Quick
      (fun () ->
        List.iter
          (fun k ->
            match Bits.ceil_log2 k with
            | _ -> Alcotest.fail (Printf.sprintf "expected a raise on %d" k)
            | exception Invalid_argument _ -> ())
          [ 0; -1; min_int ])
  ]

(* Zero-overlap regression: a bound set that intersects no ISF support
   used to score (0, 1) — in joint-first mode (lut_size > 3) that beat
   every genuine candidate, so the greedy search could grow a window of
   vacuous variables and the step made no progress. *)
let bound_select_tests =
  [
    Alcotest.test_case "zero-support-overlap bound sets score worst" `Quick
      (fun () ->
        let x0 = Bdd.var man 0 and x1 = Bdd.var man 1 and x2 = Bdd.var man 2 in
        let isfs =
          [
            Isf.of_csf man (Bdd.and_ man x0 (Bdd.or_ man x1 x2));
            Isf.of_csf man (Bdd.xor man x0 x1);
          ]
        in
        List.iter
          (fun lut_size ->
            let genuine = Bound_select.score ~lut_size man isfs [ 0; 1 ] in
            let vacuous = Bound_select.score ~lut_size man isfs [ 6; 7 ] in
            check_bool
              (Printf.sprintf "genuine beats vacuous at lut size %d" lut_size)
              true (genuine < vacuous))
          [ 2; 3; 4; 5 ]);
    Alcotest.test_case "a variable outside the support costs no restricts"
      `Quick (fun () ->
        let x0 = Bdd.var man 0 and x1 = Bdd.var man 1 and x2 = Bdd.var man 2 in
        let f = Isf.of_csf man (Bdd.and_ man x0 (Bdd.or_ man x1 x2)) in
        let stats = Stats.create () in
        let cache = Score_cache.create ~stats man in
        let score bound = Bound_select.score ~cache ~lut_size:5 man [ f ] bound in
        let scored = score [ 0; 1 ] in
        let restricts = stats.Stats.restricts and hits = stats.Stats.cof_hits in
        (* x5 is outside supp f: the vector over [0; 1] serves [0; 1; 5]. *)
        check_bool "same score" true (score [ 0; 1; 5 ] = scored);
        check_int "no restricts" restricts stats.Stats.restricts;
        check_int "one vector hit" (hits + 1) stats.Stats.cof_hits);
    Alcotest.test_case "score rejects a bound set that is not ascending"
      `Quick (fun () ->
        let f = Isf.of_csf man (Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1)) in
        List.iter
          (fun bound ->
            List.iter
              (fun cache ->
                match Bound_select.score ?cache man [ f ] bound with
                | _ -> Alcotest.fail "expected Invalid_argument"
                | exception Invalid_argument _ -> ())
              [ None; Some (Score_cache.create man) ])
          [ [ 1; 0 ]; [ 0; 0 ]; [ 0; 2; 1 ] ]);
    Alcotest.test_case "select never picks a window outside every support"
      `Quick (fun () ->
        let x0 = Bdd.var man 0 and x1 = Bdd.var man 1 in
        let isfs =
          [ Isf.of_csf man (Bdd.and_ man x0 x1);
            Isf.of_csf man (Bdd.xor man x0 x1) ]
        in
        (* four eligible variables the ISFs do not depend on: enough to
           fill a whole lut_size-4 window with vacuous variables *)
        let eligible = [ 0; 1; 8; 9; 10; 11 ] in
        let groups = List.map (fun v -> [ (v, false) ]) eligible in
        let cfg = Config.with_lut_size 4 Config.mulop_dc in
        match Bound_select.select man cfg ~groups ~eligible isfs with
        | None -> Alcotest.fail "expected a bound set"
        | Some bound ->
            check_bool "bound set overlaps a support" true
              (List.exists (fun v -> v = 0 || v = 1) bound))
  ]

let stats_tests =
  [
    Alcotest.test_case "stats counters monotone across a driver run" `Quick
      (fun () ->
        let s = Stats.create () in
        let snapshot () =
          [
            s.Stats.score_calls;
            s.Stats.score_hits;
            s.Stats.cof_lookups;
            s.Stats.cof_hits;
            s.Stats.cof_extends;
            s.Stats.cof_fresh;
            s.Stats.cof_decided;
            s.Stats.split_compares;
            s.Stats.restricts;
            s.Stats.retains;
            s.Stats.evicted;
          ]
        in
        let st = Random.State.make [| 42 |] in
        let m = Bdd.manager () in
        let spec =
          Driver.spec_of_csf m
            (List.init 7 (Printf.sprintf "x%d"))
            [
              ("f", Bdd.random m ~nvars:7 ~density:0.4 st);
              ("g", Bdd.random m ~nvars:7 ~density:0.5 st);
            ]
        in
        let before = snapshot () in
        let net1 = Driver.decompose ~stats:s m spec in
        check_bool "verifies (1)" true (Driver.verify m spec net1);
        let middle = snapshot () in
        let net2 =
          Driver.decompose
            ~cfg:(Config.with_lut_size 3 Config.mulop_dc)
            ~stats:s m spec
        in
        check_bool "verifies (2)" true (Driver.verify m spec net2);
        let after = snapshot () in
        check_bool "counters only grow" true
          (List.for_all2 ( <= ) before middle
          && List.for_all2 ( <= ) middle after);
        check_bool "a real run makes score calls" true (s.Stats.score_calls > 0);
        check_bool "the cache is actually hit" true (s.Stats.score_hits > 0);
        check_bool "hits within calls" true
          (s.Stats.score_hits <= s.Stats.score_calls);
        check_int "cofactor lookups partitioned"
          s.Stats.cof_lookups
          (s.Stats.cof_hits + s.Stats.cof_extends + s.Stats.cof_fresh
         + s.Stats.cof_decided);
        check_bool "search candidates are decided" true
          (s.Stats.cof_decided > 0);
        check_bool "decided splits compare halves" true
          (s.Stats.split_compares > 0);
        check_bool "phase buckets recorded" true
          (Hashtbl.length s.Stats.phases > 0);
        (* a run that isn't handed a stats instance must not touch ours *)
        let middle2 = snapshot () in
        let net3 = Driver.decompose m spec in
        check_bool "verifies (3)" true (Driver.verify m spec net3);
        check_bool "unthreaded run leaves foreign stats alone" true
          (snapshot () = middle2));
    Alcotest.test_case "Curtis retries are charged to their phases" `Quick
      (fun () ->
        (* At k = 2 the driver retries a fruitless step with oversized
           bound sets; their searches and steps belong to
           [bound-select] and [step], so the step's sub-phases fit in
           [step] and the driver's phases in the call. *)
        let m = Bdd.manager () in
        let spec = (Mcnc.find "f51m").Mcnc.build m in
        let stats = Stats.create () in
        let cfg = Mulop.config_of ~lut_size:2 Mulop.Mulop_dc in
        let t0 = Mono.now () in
        ignore (Driver.decompose_report ~cfg ~stats m spec);
        let wall = Mono.now () -. t0 in
        let sum keep =
          Hashtbl.fold
            (fun name dt acc -> if keep name then acc +. dt else acc)
            stats.Stats.phases 0.
        in
        check_bool "step/* phases within step" true
          (sum (String.starts_with ~prefix:"step/") <= Stats.phase_time stats "step");
        check_bool "phases within the call" true
          (sum (fun name -> not (String.contains name '/')) <= wall));
  ]

let clb_tests =
  [
    Alcotest.test_case "clb merge legality" `Quick (fun () ->
        let net = Network.create () in
        let xs = List.init 8 (fun k -> Network.add_input net (Printf.sprintf "x%d" k)) in
        let arr = Array.of_list xs in
        (* two 4-input LUTs over disjoint inputs: NOT mergeable (8 > 5) *)
        let tt4 = Bv.of_fun 4 (fun i -> i land 1 = 1 || i = 14) in
        let l1 = Network.add_lut net ~fanins:[ arr.(0); arr.(1); arr.(2); arr.(3) ] ~tt:tt4 in
        let l2 = Network.add_lut net ~fanins:[ arr.(4); arr.(5); arr.(6); arr.(7) ] ~tt:tt4 in
        (* two 3-input LUTs sharing an input: mergeable (5 distinct) *)
        let tt3 = Bv.of_fun 3 (fun i -> i = 3 || i = 5) in
        let l3 = Network.add_lut net ~fanins:[ arr.(0); arr.(1); arr.(2) ] ~tt:tt3 in
        let l4 = Network.add_lut net ~fanins:[ arr.(2); arr.(4); arr.(5) ] ~tt:tt3 in
        Network.set_output net "a" l1;
        Network.set_output net "b" l2;
        Network.set_output net "c" l3;
        Network.set_output net "d" l4;
        check_bool "disjoint 4+4 not mergeable" false (Clb.mergeable net l1 l2);
        check_bool "3+3 sharing mergeable" true (Clb.mergeable net l3 l4);
        (* l1+l3 share {x0,x1,x2} (4 distinct) and l2+l4 share {x4,x5}
           (5 distinct): a perfect matching of the four LUTs exists *)
        check_bool "l1+l3 mergeable" true (Clb.mergeable net l1 l3);
        check_bool "l2+l4 mergeable" true (Clb.mergeable net l2 l4);
        let clbs = Clb.clb_count Clb.Max_matching net in
        check_int "4 luts, perfect matching -> 2 clbs" 2 clbs);
    Alcotest.test_case "5-input lut never merges" `Quick (fun () ->
        let net = Network.create () in
        let xs = Array.init 5 (fun k -> Network.add_input net (Printf.sprintf "x%d" k)) in
        let tt5 = Bv.of_fun 5 (fun i -> i mod 3 = 0) in
        let l1 = Network.add_lut net ~fanins:(Array.to_list xs) ~tt:tt5 in
        let tt2 = Bv.of_fun 2 (fun i -> i = 3) in
        let l2 = Network.add_lut net ~fanins:[ xs.(0); xs.(1) ] ~tt:tt2 in
        Network.set_output net "a" l1;
        Network.set_output net "b" l2;
        check_bool "not mergeable" false (Clb.mergeable net l1 l2);
        check_int "2 clbs" 2 (Clb.clb_count Clb.Max_matching net));
    Alcotest.test_case "matching merge never worse than first fit" `Quick
      (fun () ->
        let st = Random.State.make [| 11 |] in
        for _ = 1 to 10 do
          let net = Network.create () in
          let xs =
            Array.init 10 (fun k -> Network.add_input net (Printf.sprintf "x%d" k))
          in
          for o = 0 to 12 do
            let k = 2 + Random.State.int st 3 in
            let fanins =
              List.init k (fun _ -> xs.(Random.State.int st 10))
              |> List.sort_uniq compare
            in
            let arity = List.length fanins in
            let tt =
              Bv.of_fun arity (fun i ->
                  i = 0 || Random.State.bool st)
            in
            Network.set_output net (Printf.sprintf "z%d" o)
              (Network.add_lut net ~fanins ~tt)
          done;
          Alcotest.(check bool)
            "matching <= first fit" true
            (Clb.clb_count Clb.Max_matching net <= Clb.clb_count Clb.First_fit net)
        done);
  ]

(* The merge graph reads each LUT's fanins once and counts distinct
   inputs by a merge walk; its edges must be exactly the pairs the
   pairwise rule accepts, on real decomposed networks of every size. *)
let test_merge_graph_matches_mergeable () =
  let examples_dir = Paths.examples_dir () in
  let files =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".blif" || Filename.check_suffix f ".pla")
    |> List.sort compare
  in
  check_bool "example circuits found" true (files <> []);
  List.iter
    (fun file ->
      let m = Bdd.manager () in
      let path = Filename.concat examples_dir file in
      let spec =
        if Filename.check_suffix file ".pla" then
          let pla = Pla.parse_file path in
          {
            Driver.input_names = pla.Pla.input_names;
            functions = Pla.to_isfs m ~var_of_column:Fun.id pla;
          }
        else Randnet.spec_of_network m (Blif.parse_file path)
      in
      List.iter
        (fun lut_size ->
          let net = (Mulop.run ~lut_size m Mulop.Mulop_dc spec).Mulop.network in
          let luts, g = Clb.merge_graph ~lut_size net in
          let count = Array.length luts in
          check_bool
            (Printf.sprintf "%s k=%d: graph on the LUTs" file lut_size)
            true
            (Ugraph.n g = count && count = List.length (Network.lut_signals net));
          let mismatches = ref 0 in
          for a = 0 to count - 1 do
            for b = 0 to count - 1 do
              if
                a <> b
                && Clb.mergeable ~lut_size net luts.(a) luts.(b)
                   <> Ugraph.has_edge g a b
              then incr mismatches
            done
          done;
          check_int
            (Printf.sprintf "%s k=%d: pairs where the graph disagrees" file
               lut_size)
            0 !mismatches)
        [ 3; 4; 5; 6 ])
    files

let suite =
  classes_tests @ encode_tests @ step_tests
  @ [ scoring_mode_regression ]
  @ bits_tests @ bound_select_tests @ stats_tests @ clb_tests
  @ [
      Alcotest.test_case "merge graph edges are the mergeable pairs" `Quick
        test_merge_graph_matches_mergeable;
    ]
  @ List.map
      (fun p -> QCheck_alcotest.to_alcotest ~long:false p)
      (classes_props @ numbering_props @ compose_props @ encode_props
     @ score_cache_props
      @ score_reference_props
      @ [ step_recompose_prop ] @ driver_props)
