(* In-memory spans around the benchmark's calls into the library.

   A span records its name, the circuit it belongs to, its parent, its
   duration and the [Gc] deltas over it.  Child spans that the program
   reports itself ([Stats] phase times, the analyzer's per-tier wall
   times) are added with [child]: they carry a duration only.  Nothing
   is written until the run ends. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a top-level span *)
  name : string;
  circuit : string;
  pass : int;
  dur : float;
  alloc_bytes : float;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  reported : bool;  (** a duration the program reported, not a timed call *)
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let pass = ref 0

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let parent () = match !stack with p :: _ -> p | [] -> -1

(* [span name circuit f] runs [f]; when tracing is on it also records a
   span and returns [f]'s result with the span's id. *)
let span name circuit f =
  if not !enabled then (f (), -1)
  else begin
    let id = fresh_id () in
    let parent = parent () in
    stack := id :: !stack;
    let g0 = Gc.quick_stat () in
    let a0 = Gc.allocated_bytes () in
    let t0 = Mono.now () in
    let finish () =
      let t1 = Mono.now () in
      let a1 = Gc.allocated_bytes () in
      let g1 = Gc.quick_stat () in
      stack := List.tl !stack;
      spans :=
        {
          id;
          parent;
          name;
          circuit;
          pass = !pass;
          dur = t1 -. t0;
          alloc_bytes = a1 -. a0;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
          minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
          reported = false;
        }
        :: !spans
    in
    match f () with
    | v ->
        finish ();
        (v, id)
    | exception e ->
        finish ();
        raise e
  end

(* A reported child of [parent]; returns its id ([-1] when off). *)
let child ~parent name circuit dur =
  if not (!enabled && parent >= 0) then -1
  else begin
    let id = fresh_id () in
    spans :=
      {
        id;
        parent;
        name;
        circuit;
        pass = !pass;
        dur;
        alloc_bytes = 0.;
        minor_words = 0.;
        promoted_words = 0.;
        minor_collections = 0;
        major_collections = 0;
        reported = true;
      }
      :: !spans;
    id
  end

let of_pass p = List.filter (fun s -> s.pass = p) !spans

(* Self time of every span: its duration minus its children's. *)
let self_times ss =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace kids s.parent
          (s.dur +. Option.value ~default:0. (Hashtbl.find_opt kids s.parent)))
    ss;
  List.map (fun s -> (s, s.dur -. Option.value ~default:0. (Hashtbl.find_opt kids s.id))) ss

(* Total duration of the spans named [name]. *)
let sum ss name = List.fold_left (fun acc s -> if s.name = name then acc +. s.dur else acc) 0. ss

let to_json ss =
  let open Json in
  Arr
    (List.rev_map
       (fun (s, self) ->
         Obj
           [
             ("id", int s.id);
             ("parent", int s.parent);
             ("name", Str s.name);
             ("circuit", Str s.circuit);
             ("pass", int s.pass);
             ("dur_s", Num s.dur);
             ("self_s", Num self);
             ("reported", Bool s.reported);
             ("alloc_bytes", Num s.alloc_bytes);
             ("minor_words", Num s.minor_words);
             ("promoted_words", Num s.promoted_words);
             ("minor_collections", int s.minor_collections);
             ("major_collections", int s.major_collections);
           ])
       (self_times ss))
