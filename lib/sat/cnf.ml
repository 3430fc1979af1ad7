type var = int
type lit = int

let pos v = v lsl 1
let neg v = (v lsl 1) lor 1
let negate l = l lxor 1
let var_of l = l lsr 1
let is_pos l = l land 1 = 0
let lit_of_bool v b = if b then pos v else neg v

let pp_lit fmt l =
  Format.fprintf fmt "%d" (if is_pos l then var_of l + 1 else -(var_of l + 1))

(* Every literal of every clause, back to back, in [lits.(0 .. nlits)];
   clause [i] ends (exclusively) at [ends.(i)] and starts where clause
   [i - 1] ends.  Both arrays double when full. *)
type t = {
  mutable nvars : int;
  mutable lits : lit array;
  mutable nlits : int;
  mutable ends : int array;
  mutable nclauses : int;
}

let create () =
  { nvars = 0; lits = Array.make 64 0; nlits = 0; ends = Array.make 16 0;
    nclauses = 0 }

let fresh t =
  let v = t.nvars in
  t.nvars <- v + 1;
  v

let nvars t = t.nvars

let check_lit t l =
  if l < 0 || var_of l >= t.nvars then
    invalid_arg
      (Printf.sprintf "Cnf.add_clause: literal %d of unallocated variable" l)

let push_lit t l =
  if t.nlits = Array.length t.lits then begin
    let d = Array.make (2 * t.nlits) 0 in
    Array.blit t.lits 0 d 0 t.nlits;
    t.lits <- d
  end;
  t.lits.(t.nlits) <- l;
  t.nlits <- t.nlits + 1

let end_clause t =
  if t.nclauses = Array.length t.ends then begin
    let d = Array.make (2 * t.nclauses) 0 in
    Array.blit t.ends 0 d 0 t.nclauses;
    t.ends <- d
  end;
  t.ends.(t.nclauses) <- t.nlits;
  t.nclauses <- t.nclauses + 1

(* Both entry points check every literal before storing any, so a
   rejected clause leaves the formula as it was. *)
let add_lits t buf n =
  for i = 0 to n - 1 do
    check_lit t buf.(i)
  done;
  for i = 0 to n - 1 do
    push_lit t buf.(i)
  done;
  end_clause t

let add_clause t lits =
  List.iter (check_lit t) lits;
  List.iter (push_lit t) lits;
  end_clause t

let nclauses t = t.nclauses

let iter_clauses t f =
  let start = ref 0 in
  for i = 0 to t.nclauses - 1 do
    let stop = t.ends.(i) in
    f t.lits !start (stop - !start);
    start := stop
  done

let pp fmt t =
  Format.fprintf fmt "p cnf %d %d@." t.nvars t.nclauses;
  iter_clauses t (fun lits off len ->
      for i = off to off + len - 1 do
        Format.fprintf fmt "%a " pp_lit lits.(i)
      done;
      Format.fprintf fmt "0@.")
