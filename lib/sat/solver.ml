(* MiniSat's architecture, reduced to what the don't-care analysis
   needs: two-watched-literal propagation, first-UIP learning, VSIDS
   activities with phase saving, Luby restarts, assumptions, and
   per-call budgets.  No clause-database reduction and no
   preprocessing — solvers here live for one window and a handful of
   enumeration calls, so learned clauses never pile up far. *)

(* A tiny growable vector; watch lists need in-place compaction, which
   OCaml lists cannot do without reallocation. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable size : int }

  let create () = { data = [||]; size = 0 }
  let size v = v.size
  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x

  let push v x =
    if v.size = Array.length v.data then begin
      let d = Array.make (max 4 (2 * Array.length v.data)) x in
      Array.blit v.data 0 d 0 v.size;
      v.data <- d
    end;
    v.data.(v.size) <- x;
    v.size <- v.size + 1

  let shrink v n = v.size <- n
end

type clause = int array
(* Watched literals are positions 0 and 1; a clause acting as a reason
   keeps its asserted literal at position 0 (propagation preserves
   this: a clause whose first watch is true is never reordered). *)

(* The reason of a decision, an assumption, a root fact or an
   unassigned variable: compared physically, so recording a reason
   allocates nothing. *)
let no_reason : clause = [||]

type outcome = Sat | Unsat | Unknown of string

type t = {
  nvars : int;
  assigns : int array;  (* per var: -1 unassigned / 0 false / 1 true *)
  level : int array;
  reason : clause array;  (* [no_reason] unless implied by a clause *)
  activity : float array;
  polarity : bool array;  (* saved phase, used as the decision value *)
  heap : int array;  (* max-heap of variables by activity *)
  mutable heap_size : int;
  heap_pos : int array;  (* var -> heap index, -1 when absent *)
  watches : clause Vec.t array;  (* indexed by literal *)
  trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int array;  (* trail size at each decision-level start *)
  mutable trail_lim_size : int;  (* = current decision level *)
  mutable qhead : int;
  seen : bool array;  (* scratch of [analyze] *)
  mutable scratch : int array;  (* scratch of [add_slice] *)
  mutable var_inc : float;
  mutable ok : bool;  (* false once the clause set is root-contradictory *)
  model : bool array;
  mutable has_model : bool;
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_learned : int;
  mutable n_solve_calls : int;
}

let conflicts t = t.n_conflicts
let decisions t = t.n_decisions
let propagations t = t.n_propagations
let restarts t = t.n_restarts
let learned t = t.n_learned
let solve_calls t = t.n_solve_calls

let decision_level t = t.trail_lim_size

(* Value of a literal: -1 unassigned, 0 false, 1 true. *)
let lval t l =
  let v = t.assigns.(Cnf.var_of l) in
  if v < 0 then -1 else v lxor (l land 1)

(* ---- variable-order heap (max-heap on activity) ---- *)

let heap_swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.heap_pos.(b) <- i;
  t.heap_pos.(a) <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.activity.(t.heap.(i)) > t.activity.(t.heap.(parent)) then begin
      heap_swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_size && t.activity.(t.heap.(l)) > t.activity.(t.heap.(!best))
  then best := l;
  if r < t.heap_size && t.activity.(t.heap.(r)) > t.activity.(t.heap.(!best))
  then best := r;
  if !best <> i then begin
    heap_swap t i !best;
    sift_down t !best
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    t.heap.(t.heap_size) <- v;
    t.heap_pos.(v) <- t.heap_size;
    t.heap_size <- t.heap_size + 1;
    sift_up t t.heap_pos.(v)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_size <- t.heap_size - 1;
  t.heap_pos.(v) <- -1;
  if t.heap_size > 0 then begin
    let last = t.heap.(t.heap_size) in
    t.heap.(0) <- last;
    t.heap_pos.(last) <- 0;
    sift_down t 0
  end;
  v

(* ---- activities ---- *)

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for u = 0 to t.nvars - 1 do
      t.activity.(u) <- t.activity.(u) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.heap_pos.(v) >= 0 then sift_up t t.heap_pos.(v)

let var_decay t = t.var_inc <- t.var_inc /. 0.95

(* ---- assignments ---- *)

let unchecked_enqueue t l reason =
  let v = Cnf.var_of l in
  t.assigns.(v) <- (l land 1) lxor 1;
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

let new_level t =
  (* vacuous assumption levels can outnumber the variables, so this
     array must grow on demand *)
  if t.trail_lim_size = Array.length t.trail_lim then begin
    let d = Array.make (2 * Array.length t.trail_lim) 0 in
    Array.blit t.trail_lim 0 d 0 t.trail_lim_size;
    t.trail_lim <- d
  end;
  t.trail_lim.(t.trail_lim_size) <- t.trail_size;
  t.trail_lim_size <- t.trail_lim_size + 1

let cancel_until t lvl =
  if decision_level t > lvl then begin
    for i = t.trail_size - 1 downto t.trail_lim.(lvl) do
      let v = Cnf.var_of t.trail.(i) in
      t.polarity.(v) <- t.assigns.(v) = 1;
      t.assigns.(v) <- -1;
      t.reason.(v) <- no_reason;
      heap_insert t v
    done;
    t.trail_size <- t.trail_lim.(lvl);
    t.qhead <- t.trail_size;
    t.trail_lim_size <- lvl
  end

(* ---- propagation ---- *)

let propagate t =
  let confl = ref None in
  while !confl = None && t.qhead < t.trail_size do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.n_propagations <- t.n_propagations + 1;
    let false_lit = Cnf.negate p in
    let ws = t.watches.(false_lit) in
    let i = ref 0 and j = ref 0 in
    while !i < Vec.size ws do
      let c = Vec.get ws !i in
      incr i;
      (* normalize: the falsified watch goes to position 1 *)
      if c.(0) = false_lit then begin
        c.(0) <- c.(1);
        c.(1) <- false_lit
      end;
      let first = c.(0) in
      if lval t first = 1 then begin
        (* clause already satisfied by its other watch *)
        Vec.set ws !j c;
        incr j
      end
      else begin
        let n = Array.length c in
        let k = ref 2 in
        while !k < n && lval t c.(!k) = 0 do
          incr k
        done;
        if !k < n then begin
          (* found a non-false literal to watch instead *)
          c.(1) <- c.(!k);
          c.(!k) <- false_lit;
          Vec.push t.watches.(c.(1)) c
        end
        else begin
          (* unit under the current assignment — or a conflict *)
          Vec.set ws !j c;
          incr j;
          if lval t first = 0 then begin
            while !i < Vec.size ws do
              Vec.set ws !j (Vec.get ws !i);
              incr i;
              incr j
            done;
            confl := Some c;
            t.qhead <- t.trail_size
          end
          else unchecked_enqueue t first c
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !confl

(* ---- first-UIP conflict analysis ----

   Returns the learned clause (asserting literal first, a literal of
   the backjump level second when one exists) and the backjump level. *)

let analyze t confl =
  let dl = decision_level t in
  let learnt = ref [] in
  let to_clear = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (t.trail_size - 1) in
  let finished = ref false in
  while not !finished do
    let c = !confl in
    assert (c != no_reason);
    (* skip position 0 of a reason clause: it is the asserted [p] *)
    let start = if !p < 0 then 0 else 1 in
    for k = start to Array.length c - 1 do
      let q = c.(k) in
      let v = Cnf.var_of q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        to_clear := v :: !to_clear;
        var_bump t v;
        if t.level.(v) >= dl then incr path else learnt := q :: !learnt
      end
    done;
    while not t.seen.(Cnf.var_of t.trail.(!index)) do
      decr index
    done;
    let pl = t.trail.(!index) in
    decr index;
    p := pl;
    decr path;
    if !path <= 0 then finished := true
    else confl := t.reason.(Cnf.var_of pl)
  done;
  let out = Array.of_list (Cnf.negate !p :: !learnt) in
  List.iter (fun v -> t.seen.(v) <- false) !to_clear;
  (* backjump to the second-highest decision level in the clause, and
     keep a literal of that level at position 1 (the new watch pair
     must span the backjump) *)
  let bj = ref 0 in
  if Array.length out > 1 then begin
    let max_i = ref 1 in
    for k = 2 to Array.length out - 1 do
      if t.level.(Cnf.var_of out.(k)) > t.level.(Cnf.var_of out.(!max_i)) then
        max_i := k
    done;
    let tmp = out.(1) in
    out.(1) <- out.(!max_i);
    out.(!max_i) <- tmp;
    bj := t.level.(Cnf.var_of out.(1))
  end;
  (out, !bj)

let attach_learnt t c =
  if Array.length c = 1 then unchecked_enqueue t c.(0) no_reason
  else begin
    Vec.push t.watches.(c.(0)) c;
    Vec.push t.watches.(c.(1)) c;
    t.n_learned <- t.n_learned + 1;
    unchecked_enqueue t c.(0) c
  end

(* ---- clause addition (initial import and incremental) ---- *)

(* Sort [a.(0 .. n - 1)] ascending in place: insertion sort for the
   short clauses the encoders produce, the library sort past that. *)
let sort_prefix a n =
  if n <= 16 then
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let s = Array.sub a 0 n in
    Array.sort Int.compare s;
    Array.blit s 0 a 0 n
  end

(* Add the clause [lits.(off .. off + len - 1)] — the one routine behind
   both the initial import and {!add_clause}.  It normalizes at the
   root: literals sorted ascending with duplicates merged, the clause
   dropped when tautologous or root-satisfied, root-false literals
   removed.  Only a stored clause of two or more literals allocates. *)
let add_slice t lits off len =
  if t.ok then begin
    cancel_until t 0;
    if Array.length t.scratch < len then
      t.scratch <- Array.make (max len (2 * Array.length t.scratch)) 0;
    let a = t.scratch in
    Array.blit lits off a 0 len;
    sort_prefix a len;
    (* merge duplicates; sorted, a tautology shows as [2v], [2v+1] *)
    let n = ref 0 and tauto = ref false in
    for i = 0 to len - 1 do
      let l = a.(i) in
      if !n = 0 || a.(!n - 1) <> l then begin
        if !n > 0 && a.(!n - 1) lxor 1 = l then tauto := true;
        a.(!n) <- l;
        incr n
      end
    done;
    (* keep the literals not false at the root; one true one drops all *)
    let m = ref 0 and sat = ref false in
    for i = 0 to !n - 1 do
      let l = a.(i) in
      match lval t l with
      | 1 -> sat := true
      | 0 -> ()
      | _ ->
          a.(!m) <- l;
          incr m
    done;
    if not (!tauto || !sat) then
      match !m with
      | 0 -> t.ok <- false
      | 1 ->
          unchecked_enqueue t a.(0) no_reason;
          if propagate t <> None then t.ok <- false
      | m ->
          let c = Array.sub a 0 m in
          Vec.push t.watches.(c.(0)) c;
          Vec.push t.watches.(c.(1)) c
  end

let add_clause t lits =
  List.iter
    (fun l ->
      if l < 0 || Cnf.var_of l >= t.nvars then
        invalid_arg "Solver.add_clause: literal out of range")
    lits;
  t.has_model <- false;
  let a = Array.of_list lits in
  add_slice t a 0 (Array.length a)

let create cnf =
  let n = Cnf.nvars cnf in
  let t =
    {
      nvars = n;
      assigns = Array.make (max n 1) (-1);
      level = Array.make (max n 1) 0;
      reason = Array.make (max n 1) no_reason;
      activity = Array.make (max n 1) 0.0;
      polarity = Array.make (max n 1) false;
      heap = Array.make (max n 1) 0;
      heap_size = 0;
      heap_pos = Array.make (max n 1) (-1);
      watches = Array.init (max (2 * n) 1) (fun _ -> Vec.create ());
      trail = Array.make (max n 1) 0;
      trail_size = 0;
      trail_lim = Array.make (max n 1) 0;
      trail_lim_size = 0;
      qhead = 0;
      seen = Array.make (max n 1) false;
      scratch = Array.make 16 0;
      var_inc = 1.0;
      ok = true;
      model = Array.make (max n 1) false;
      has_model = false;
      n_conflicts = 0;
      n_decisions = 0;
      n_propagations = 0;
      n_restarts = 0;
      n_learned = 0;
      n_solve_calls = 0;
    }
  in
  for v = 0 to n - 1 do
    heap_insert t v
  done;
  Cnf.iter_clauses cnf (add_slice t);
  t

(* ---- search ---- *)

(* The reluctant-doubling (Luby) sequence scaling the restart cap. *)
let luby y x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

let pick_branch t =
  let v = ref (-1) in
  while !v < 0 && t.heap_size > 0 do
    let u = heap_pop t in
    if t.assigns.(u) < 0 then v := u
  done;
  if !v < 0 then None else Some !v

let save_model t =
  for v = 0 to t.nvars - 1 do
    t.model.(v) <- t.assigns.(v) = 1
  done;
  t.has_model <- true

let value t v =
  if not t.has_model then
    invalid_arg "Solver.value: no model (last outcome was not Sat)";
  t.model.(v)

let solve ?(assumptions = []) ?max_conflicts ?max_decisions
    ?(check = fun () -> ()) t =
  t.n_solve_calls <- t.n_solve_calls + 1;
  t.has_model <- false;
  let assum = Array.of_list assumptions in
  let n_assum = Array.length assum in
  Array.iter
    (fun l ->
      if l < 0 || Cnf.var_of l >= t.nvars then
        invalid_arg "Solver.solve: assumption literal out of range")
    assum;
  if not t.ok then Unsat
  else begin
    cancel_until t 0;
    let conflicts0 = t.n_conflicts and decisions0 = t.n_decisions in
    let over () =
      match max_conflicts with
      | Some c when t.n_conflicts - conflicts0 >= c -> Some "conflict budget"
      | _ -> (
          match max_decisions with
          | Some d when t.n_decisions - decisions0 >= d -> Some "decision budget"
          | _ -> None)
    in
    (* one restart round, capped at [cap] conflicts *)
    let search cap =
      let round_conflicts = ref 0 in
      let result = ref None in
      while !result = None do
        match propagate t with
        | Some confl ->
            t.n_conflicts <- t.n_conflicts + 1;
            incr round_conflicts;
            if t.n_conflicts land 255 = 0 then check ();
            if decision_level t <= n_assum then
              (* only assumptions (and root facts) are assigned: the
                 conflict refutes the assumptions themselves *)
              result := Some Unsat
            else begin
              let learnt, bj = analyze t confl in
              cancel_until t bj;
              attach_learnt t learnt;
              var_decay t;
              match over () with
              | Some msg -> result := Some (Unknown msg)
              | None -> if !round_conflicts >= cap then result := Some Sat
              (* [Sat] abused as the `restart` marker, remapped below *)
            end
        | None ->
            if decision_level t < n_assum then begin
              let a = assum.(decision_level t) in
              match lval t a with
              | 1 -> new_level t (* vacuous level keeps indexing aligned *)
              | 0 -> result := Some Unsat
              | _ ->
                  new_level t;
                  unchecked_enqueue t a no_reason
            end
            else begin
              match over () with
              | Some msg -> result := Some (Unknown msg)
              | None -> (
                  match pick_branch t with
                  | None ->
                      save_model t;
                      result := Some Sat
                  | Some v ->
                      t.n_decisions <- t.n_decisions + 1;
                      new_level t;
                      unchecked_enqueue t
                        (Cnf.lit_of_bool v t.polarity.(v))
                        no_reason)
            end
      done;
      match !result with
      | Some Sat when not t.has_model -> `Restart
      | Some r -> `Done r
      | None -> assert false
    in
    let rec rounds i =
      check ();
      match search (int_of_float (100.0 *. luby 2.0 i)) with
      | `Done r -> r
      | `Restart ->
          t.n_restarts <- t.n_restarts + 1;
          cancel_until t 0;
          rounds (i + 1)
    in
    let outcome = rounds 0 in
    (match outcome with
    | Unsat when n_assum = 0 -> t.ok <- false
    | _ -> ());
    cancel_until t 0;
    outcome
  end
