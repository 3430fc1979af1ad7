(* Blossom algorithm, classical array-based formulation: repeated BFS for
   an augmenting path from each free vertex, contracting odd cycles
   (blossoms) on the fly via a [base] array. *)

let maximum g =
  let size = Ugraph.n g in
  let mate = Array.make size (-1) in
  let p = Array.make size (-1) in
  let base = Array.make size 0 in
  let used = Array.make size false in
  let blossom = Array.make size false in
  let used_path = Array.make size false in
  let q = Queue.create () in

  let lca a b =
    Array.fill used_path 0 size false;
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
    let visit v u =
      if base.(v) <> base.(u) && mate.(v) <> u then
        if u = root || (mate.(u) <> -1 && p.(mate.(u)) <> -1) then begin
          (* Odd cycle: contract the blossom with base [curbase]. *)
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
    (try
       while not (Queue.is_empty q) do
         let v = Queue.pop q in
         let nb = Ugraph.neighbours g v in
         for k = 0 to Array.length nb - 1 do
           visit v nb.(k)
         done
       done
     with Exit -> ());
    !result
  in

  let augment u =
    (* Flip matched/unmatched edges along the alternating path to the root. *)
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

(* Edges in [Ugraph.edges] order: ascending [i], then ascending [j > i]. *)
let greedy g =
  let size = Ugraph.n g in
  let taken = Array.make size false in
  let acc = ref [] in
  for i = 0 to size - 1 do
    let nb = Ugraph.neighbours g i in
    for k = 0 to Array.length nb - 1 do
      let j = nb.(k) in
      if j > i && (not taken.(i)) && not taken.(j) then begin
        taken.(i) <- true;
        taken.(j) <- true;
        acc := (i, j) :: !acc
      end
    done
  done;
  List.rev !acc

let size pairs = List.length pairs

let is_matching g pairs =
  let seen = Hashtbl.create 16 in
  List.for_all
    (fun (i, j) ->
      let fresh v =
        if Hashtbl.mem seen v then false
        else begin
          Hashtbl.add seen v ();
          true
        end
      in
      Ugraph.has_edge g i j && fresh i && fresh j)
    pairs
