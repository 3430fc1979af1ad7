(* Tests for the graph substrate: coloring and blossom matching, checked
   against exhaustive brute force on small random graphs. *)

(* The list-based graph kernel the bitset one replaced: a [bool array
   array] with fresh neighbour lists on every read, and the colorings
   and matchings on top of it, kept verbatim as the oracle the bitset
   kernel must reproduce result for result. *)
module Oracle = struct
  module Ugraph = struct
    type t = { size : int; adj : bool array array }

    let create size = { size; adj = Array.make_matrix size size false }
    let n g = g.size

    let add_edge g i j =
      if i <> j then begin
        g.adj.(i).(j) <- true;
        g.adj.(j).(i) <- true
      end

    let neighbours g i =
      let acc = ref [] in
      for j = g.size - 1 downto 0 do
        if g.adj.(i).(j) then acc := j :: !acc
      done;
      !acc

    let degree g i = List.length (neighbours g i)

    let edges g =
      let acc = ref [] in
      for i = g.size - 1 downto 0 do
        for j = g.size - 1 downto i + 1 do
          if g.adj.(i).(j) then acc := (i, j) :: !acc
        done
      done;
      !acc

    let of_edges size es =
      let g = create size in
      List.iter (fun (i, j) -> add_edge g i j) es;
      g
  end

  module Coloring = struct
    let color_count colors =
      Array.fold_left (fun acc c -> max acc (c + 1)) 0 colors

    let smallest_free g colors v =
      let used = Array.make (Ugraph.n g + 1) false in
      List.iter
        (fun w -> if colors.(w) >= 0 then used.(colors.(w)) <- true)
        (Ugraph.neighbours g v);
      let rec find c = if used.(c) then find (c + 1) else c in
      find 0

    let greedy g order =
      let colors = Array.make (Ugraph.n g) (-1) in
      List.iter (fun v -> colors.(v) <- smallest_free g colors v) order;
      colors

    let dsatur g =
      let size = Ugraph.n g in
      let colors = Array.make size (-1) in
      let saturation v =
        Ugraph.neighbours g v
        |> List.filter_map (fun w ->
               if colors.(w) >= 0 then Some colors.(w) else None)
        |> List.sort_uniq Stdlib.compare |> List.length
      in
      for _ = 1 to size do
        let best = ref (-1) and best_key = ref (-1, -1) in
        for v = 0 to size - 1 do
          if colors.(v) < 0 then begin
            let key = (saturation v, Ugraph.degree g v) in
            if key > !best_key then begin
              best := v;
              best_key := key
            end
          end
        done;
        colors.(!best) <- smallest_free g colors !best
      done;
      colors

    exception Budget_exhausted

    let exact ?(limit = 200_000) g =
      let size = Ugraph.n g in
      if size = 0 then Some [||]
      else begin
        let upper = dsatur g in
        let best = ref (Array.copy upper) in
        let best_k = ref (color_count upper) in
        let colors = Array.make size (-1) in
        let steps = ref 0 in
        let order =
          List.init size (fun v -> v)
          |> List.sort (fun a b -> compare (Ugraph.degree g b) (Ugraph.degree g a))
          |> Array.of_list
        in
        let rec go idx used_k =
          incr steps;
          if !steps > limit then raise Budget_exhausted;
          if used_k >= !best_k then ()
          else if idx = size then begin
            best := Array.copy colors;
            best_k := used_k
          end
          else begin
            let v = order.(idx) in
            let feasible c =
              List.for_all (fun w -> colors.(w) <> c) (Ugraph.neighbours g v)
            in
            for c = 0 to min used_k (!best_k - 2) do
              if feasible c then begin
                colors.(v) <- c;
                go (idx + 1) (max used_k (c + 1));
                colors.(v) <- -1
              end
            done
          end
        in
        match go 0 0 with
        | () -> Some !best
        | exception Budget_exhausted -> None
      end
  end

  module Matching = struct
    let maximum g =
      let size = Ugraph.n g in
      let mate = Array.make size (-1) in
      let p = Array.make size (-1) in
      let base = Array.make size 0 in
      let used = Array.make size false in
      let blossom = Array.make size false in
      let q = Queue.create () in
      let lca a b =
        let used_path = Array.make size false in
        let rec mark a =
          let a = base.(a) in
          used_path.(a) <- true;
          if mate.(a) <> -1 then mark p.(mate.(a))
        in
        mark a;
        let rec find b =
          let b = base.(b) in
          if used_path.(b) then b else find p.(mate.(b))
        in
        find b
      in
      let rec mark_path v b child =
        if base.(v) <> b then begin
          blossom.(base.(v)) <- true;
          blossom.(base.(mate.(v))) <- true;
          p.(v) <- child;
          mark_path p.(mate.(v)) b mate.(v)
        end
      in
      let find_path root =
        Array.fill used 0 size false;
        Array.fill p 0 size (-1);
        for i = 0 to size - 1 do
          base.(i) <- i
        done;
        used.(root) <- true;
        Queue.clear q;
        Queue.add root q;
        let result = ref (-1) in
        (try
           while not (Queue.is_empty q) do
             let v = Queue.pop q in
             let visit u =
               if base.(v) <> base.(u) && mate.(v) <> u then
                 if u = root || (mate.(u) <> -1 && p.(mate.(u)) <> -1) then begin
                   let curbase = lca v u in
                   Array.fill blossom 0 size false;
                   mark_path v curbase u;
                   mark_path u curbase v;
                   for i = 0 to size - 1 do
                     if blossom.(base.(i)) then begin
                       base.(i) <- curbase;
                       if not used.(i) then begin
                         used.(i) <- true;
                         Queue.add i q
                       end
                     end
                   done
                 end
                 else if p.(u) = -1 then begin
                   p.(u) <- v;
                   if mate.(u) = -1 then begin
                     result := u;
                     raise Exit
                   end
                   else begin
                     used.(mate.(u)) <- true;
                     Queue.add mate.(u) q
                   end
                 end
             in
             List.iter visit (Ugraph.neighbours g v)
           done
         with Exit -> ());
        !result
      in
      let augment u =
        let rec go u =
          if u <> -1 then begin
            let pv = p.(u) in
            let ppv = mate.(pv) in
            mate.(pv) <- u;
            mate.(u) <- pv;
            go ppv
          end
        in
        go u
      in
      for v = 0 to size - 1 do
        if mate.(v) = -1 then begin
          let u = find_path v in
          if u <> -1 then augment u
        end
      done;
      let pairs = ref [] in
      for v = 0 to size - 1 do
        if mate.(v) > v then pairs := (v, mate.(v)) :: !pairs
      done;
      List.rev !pairs

    let greedy g =
      let size = Ugraph.n g in
      let taken = Array.make size false in
      let pick acc (i, j) =
        if taken.(i) || taken.(j) then acc
        else begin
          taken.(i) <- true;
          taken.(j) <- true;
          (i, j) :: acc
        end
      in
      List.rev (List.fold_left pick [] (Ugraph.edges g))
  end
end

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Exhaustive maximum matching size by trying all subsets of edges. *)
let brute_matching_size g =
  let es = Array.of_list (Ugraph.edges g) in
  let best = ref 0 in
  let used = Array.make (Ugraph.n g) false in
  (* take-or-skip on each edge *)
  let rec go idx count =
    if idx = Array.length es then best := max !best count
    else begin
      let i, j = es.(idx) in
      if (not used.(i)) && not used.(j) then begin
        used.(i) <- true;
        used.(j) <- true;
        go (idx + 1) (count + 1);
        used.(i) <- false;
        used.(j) <- false
      end;
      go (idx + 1) count
    end
  in
  go 0 0;
  !best

(* Exhaustive chromatic number for tiny graphs. *)
let brute_chromatic g =
  let size = Ugraph.n g in
  if size = 0 then 0
  else
    let colors = Array.make size (-1) in
    let rec feasible k idx =
      if idx = size then true
      else
        let ok = ref false in
        let c = ref 0 in
        while (not !ok) && !c < k do
          if Array.for_all (fun w -> colors.(w) <> !c) (Ugraph.neighbours g idx)
          then begin
            colors.(idx) <- !c;
            if feasible k (idx + 1) then ok := true;
            colors.(idx) <- -1
          end;
          incr c
        done;
        !ok
    in
    let rec find k = if feasible k 0 then k else find (k + 1) in
    find 1

let unit_tests =
  [
    Alcotest.test_case "triangle needs 3 colors" `Quick (fun () ->
        let g = Ugraph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
        check_int "dsatur" 3 (Coloring.color_count (Coloring.dsatur g));
        check_bool "proper" true (Coloring.is_proper g (Coloring.dsatur g)));
    Alcotest.test_case "even cycle is 2-chromatic (exact)" `Quick (fun () ->
        let g = Ugraph.of_edges 6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ] in
        match Coloring.exact g with
        | Some colors ->
            check_int "chromatic" 2 (Coloring.color_count colors);
            check_bool "proper" true (Coloring.is_proper g colors)
        | None -> Alcotest.fail "exact gave up on a 6-cycle");
    Alcotest.test_case "odd cycle matching (blossom case)" `Quick (fun () ->
        (* A 5-cycle has maximum matching 2; a naive bipartite augmenter
           can get stuck, the blossom algorithm must not. *)
        let g = Ugraph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
        let mm = Matching.maximum g in
        check_bool "is matching" true (Matching.is_matching g mm);
        check_int "size" 2 (Matching.size mm));
    Alcotest.test_case "two triangles joined: matching 3" `Quick (fun () ->
        let g =
          Ugraph.of_edges 6
            [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5); (2, 3) ]
        in
        check_int "size" 3 (Matching.size (Matching.maximum g)));
    Alcotest.test_case "petersen graph has a perfect matching" `Quick (fun () ->
        let outer = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
        let spokes = [ (0, 5); (1, 6); (2, 7); (3, 8); (4, 9) ] in
        let inner = [ (5, 7); (7, 9); (9, 6); (6, 8); (8, 5) ] in
        let g = Ugraph.of_edges 10 (outer @ spokes @ inner) in
        check_int "perfect" 5 (Matching.size (Matching.maximum g)));
    Alcotest.test_case "complement" `Quick (fun () ->
        let g = Ugraph.of_edges 4 [ (0, 1) ] in
        let c = Ugraph.complement g in
        check_bool "no 01" false (Ugraph.has_edge c 0 1);
        check_bool "02" true (Ugraph.has_edge c 0 2);
        check_int "edges" 5 (List.length (Ugraph.edges c)));
    Alcotest.test_case "greedy matching is maximal" `Quick (fun () ->
        let st = Random.State.make [| 3 |] in
        let g = Ugraph.random 12 0.3 st in
        let mm = Matching.greedy g in
        check_bool "is matching" true (Matching.is_matching g mm);
        let matched = Array.make 12 false in
        List.iter
          (fun (i, j) ->
            matched.(i) <- true;
            matched.(j) <- true)
          mm;
        (* maximal: no edge with both endpoints free *)
        check_bool "maximal" true
          (List.for_all
             (fun (i, j) -> matched.(i) || matched.(j))
             (Ugraph.edges g)));
    Alcotest.test_case "out-of-range vertices raise" `Quick (fun () ->
        (* 70 vertices: row 0 spans two words, so vertex 70 would alias
           a bit of row 1 if it were not checked. *)
        let g = Ugraph.of_edges 70 [ (0, 1); (0, 69) ] in
        let raises name f =
          match f () with
          | _ -> Alcotest.fail (name ^ " accepted an out-of-range vertex")
          | exception Invalid_argument _ -> ()
        in
        List.iter
          (fun v ->
            raises "add_edge" (fun () -> Ugraph.add_edge g 0 v);
            raises "add_edge (first)" (fun () -> Ugraph.add_edge g v 0);
            raises "has_edge" (fun () -> Ugraph.has_edge g 0 v);
            raises "has_edge (first)" (fun () -> Ugraph.has_edge g v 0);
            raises "degree" (fun () -> Ugraph.degree g v);
            raises "neighbours" (fun () -> Ugraph.neighbours g v))
          [ -1; 70; 126; 139 ];
        check_int "degree 0" 2 (Ugraph.degree g 0);
        check_int "edges" 2 (List.length (Ugraph.edges g)));
  ]

let props =
  let gen_graph nmax =
    let open QCheck2.Gen in
    let* size = int_range 1 nmax in
    let* p = float_range 0.0 1.0 in
    let+ seed = int_bound 1_000_000 in
    (size, p, seed)
  in
  (* A random edge list with self loops and repeated edges, inserted
     into both kernels in the same order. *)
  let gen_edges nmin nmax =
    let open QCheck2.Gen in
    let* size = int_range nmin nmax in
    let* p = float_range 0.0 1.0 in
    let* seed = int_bound 1_000_000 in
    let+ limit = oneof [ int_range 0 60; int_range 60 5_000 ] in
    let st = Random.State.make [| seed |] in
    let m = int_of_float (p *. float_of_int (size * size) /. 2.0) in
    let es =
      List.init m (fun _ -> (Random.State.int st size, Random.State.int st size))
    in
    (size, es, limit)
  in
  [
    QCheck2.Test.make ~name:"bitset kernel reproduces the list kernel"
      ~count:120 (gen_edges 1 130) (fun (size, es, limit) ->
        let g = Ugraph.of_edges size es and o = Oracle.Ugraph.of_edges size es in
        let vertices = List.init size Fun.id in
        let order = List.rev vertices in
        Ugraph.edges g = Oracle.Ugraph.edges o
        && List.for_all
             (fun v ->
               Ugraph.degree g v = Oracle.Ugraph.degree o v
               && Array.to_list (Ugraph.neighbours g v)
                  = Oracle.Ugraph.neighbours o v)
             vertices
        && Coloring.greedy g order = Oracle.Coloring.greedy o order
        && Coloring.dsatur g = Oracle.Coloring.dsatur o
        && Coloring.exact ~limit g = Oracle.Coloring.exact ~limit o
        && Matching.greedy g = Oracle.Matching.greedy o
        && Matching.maximum g = Oracle.Matching.maximum o);
    QCheck2.Test.make ~name:"colorable decides k-colorability" ~count:150
      (gen_edges 1 8) (fun (size, es, limit) ->
        let g = Ugraph.of_edges size es in
        let chi = brute_chromatic g in
        List.for_all
          (fun k ->
            Coloring.colorable g k = Some (chi <= k)
            &&
            match Coloring.colorable ~limit g k with
            | None -> true
            | Some ok -> ok = (chi <= k))
          (List.init (size + 2) Fun.id));
    QCheck2.Test.make ~name:"blossom matches brute force" ~count:150
      (gen_graph 9)
      (fun (size, p, seed) ->
        let g = Ugraph.random size p (Random.State.make [| seed |]) in
        let mm = Matching.maximum g in
        Matching.is_matching g mm && Matching.size mm = brute_matching_size g);
    QCheck2.Test.make ~name:"exact coloring matches brute force" ~count:80
      (gen_graph 7)
      (fun (size, p, seed) ->
        let g = Ugraph.random size p (Random.State.make [| seed |]) in
        match Coloring.exact g with
        | None -> true
        | Some colors ->
            Coloring.is_proper g colors
            && Coloring.color_count colors = brute_chromatic g);
    QCheck2.Test.make ~name:"dsatur is proper and >= chromatic" ~count:100
      (gen_graph 8)
      (fun (size, p, seed) ->
        let g = Ugraph.random size p (Random.State.make [| seed |]) in
        let colors = Coloring.dsatur g in
        Coloring.is_proper g colors
        && Coloring.color_count colors >= brute_chromatic g);
    QCheck2.Test.make ~name:"greedy coloring proper in any order" ~count:100
      (gen_graph 10)
      (fun (size, p, seed) ->
        let g = Ugraph.random size p (Random.State.make [| seed |]) in
        let order = List.init size (fun v -> size - 1 - v) in
        Coloring.is_proper g (Coloring.greedy g order));
    QCheck2.Test.make ~name:"blossom >= greedy" ~count:100 (gen_graph 14)
      (fun (size, p, seed) ->
        let g = Ugraph.random size p (Random.State.make [| seed |]) in
        Matching.size (Matching.maximum g) >= Matching.size (Matching.greedy g));
  ]

let suite = unit_tests @ List.map (fun p -> QCheck_alcotest.to_alcotest ~long:false p) props
