(* Row [i] is the bitset of [i]'s neighbours: words
   [i * words .. i * words + words - 1] of [rows], vertex [j] at bit
   [j mod bits] of word [j / bits].  Degrees are counted as edges are
   added; the ascending neighbour arrays are built on the first read
   after the last insertion. *)

let bits = Sys.int_size

type t = {
  size : int;
  words : int;
  rows : int array;
  deg : int array;
  mutable adj : int array array option;
}

let create size =
  let words = (size + bits - 1) / bits in
  {
    size;
    words;
    rows = Array.make (size * words) 0;
    deg = Array.make size 0;
    adj = None;
  }

let n g = g.size

let check g i =
  if i < 0 || i >= g.size then invalid_arg "Ugraph: vertex out of range"

let mem g i j = g.rows.((i * g.words) + (j / bits)) land (1 lsl (j mod bits)) <> 0

let set g i j =
  let w = (i * g.words) + (j / bits) in
  g.rows.(w) <- g.rows.(w) lor (1 lsl (j mod bits))

let add_edge g i j =
  check g i;
  check g j;
  if i <> j && not (mem g i j) then begin
    set g i j;
    set g j i;
    g.deg.(i) <- g.deg.(i) + 1;
    g.deg.(j) <- g.deg.(j) + 1;
    g.adj <- None
  end

let has_edge g i j =
  check g i;
  check g j;
  mem g i j

let degree g i =
  check g i;
  g.deg.(i)

let build g =
  Array.init g.size (fun i ->
      let nb = Array.make g.deg.(i) 0 in
      let k = ref 0 in
      for w = 0 to g.words - 1 do
        let x = ref g.rows.((i * g.words) + w) and j = ref (w * bits) in
        while !x <> 0 do
          if !x land 1 <> 0 then begin
            nb.(!k) <- !j;
            incr k
          end;
          x := !x lsr 1;
          incr j
        done
      done;
      nb)

let adjacency g =
  match g.adj with
  | Some a -> a
  | None ->
      let a = build g in
      g.adj <- Some a;
      a

let neighbours g i =
  check g i;
  (adjacency g).(i)

let edges g =
  let adj = adjacency g in
  let acc = ref [] in
  for i = g.size - 1 downto 0 do
    let nb = adj.(i) in
    for k = Array.length nb - 1 downto 0 do
      if nb.(k) > i then acc := (i, nb.(k)) :: !acc
    done
  done;
  !acc

let complement g =
  let c = create g.size in
  for i = 0 to g.size - 1 do
    for j = i + 1 to g.size - 1 do
      if not (mem g i j) then add_edge c i j
    done
  done;
  c

let of_edges size es =
  let g = create size in
  List.iter (fun (i, j) -> add_edge g i j) es;
  g

let random size p st =
  let g = create size in
  for i = 0 to size - 1 do
    for j = i + 1 to size - 1 do
      if Random.State.float st 1.0 < p then add_edge g i j
    done
  done;
  g
