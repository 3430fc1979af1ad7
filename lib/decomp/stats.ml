type t = {
  mutable score_calls : int;
  mutable score_hits : int;
  mutable cof_lookups : int;
  mutable cof_hits : int;
  mutable cof_extends : int;
  mutable cof_fresh : int;
  mutable cof_decided : int;
  mutable split_compares : int;
  mutable restricts : int;
  mutable retains : int;
  mutable evicted : int;
  mutable budget_checks : int;
  mutable sem_nodes : int;
  mutable sem_truncations : int;
  mutable sat_calls : int;
  mutable sat_conflicts : int;
  mutable windows_built : int;
  mutable df_iterations : int;
  mutable df_facts : int;
  mutable screened_out : int;
  mutable degradations : (string * string * string) list;
  mutable findings : (string * string * string) list;
  phases : (string, float) Hashtbl.t;
}

let create () =
  {
    score_calls = 0;
    score_hits = 0;
    cof_lookups = 0;
    cof_hits = 0;
    cof_extends = 0;
    cof_fresh = 0;
    cof_decided = 0;
    split_compares = 0;
    restricts = 0;
    retains = 0;
    evicted = 0;
    budget_checks = 0;
    sem_nodes = 0;
    sem_truncations = 0;
    sat_calls = 0;
    sat_conflicts = 0;
    windows_built = 0;
    df_iterations = 0;
    df_facts = 0;
    screened_out = 0;
    degradations = [];
    findings = [];
    phases = Hashtbl.create 8;
  }

let counter_fields =
  (* name, getter, setter — one list drives merge, to_json, of_json
     and the bench diff's notion of "every counter". *)
  [
    ("score_calls", (fun t -> t.score_calls), fun t v -> t.score_calls <- v);
    ("score_hits", (fun t -> t.score_hits), fun t v -> t.score_hits <- v);
    ("cof_lookups", (fun t -> t.cof_lookups), fun t v -> t.cof_lookups <- v);
    ("cof_hits", (fun t -> t.cof_hits), fun t v -> t.cof_hits <- v);
    ("cof_extends", (fun t -> t.cof_extends), fun t v -> t.cof_extends <- v);
    ("cof_fresh", (fun t -> t.cof_fresh), fun t v -> t.cof_fresh <- v);
    ("cof_decided", (fun t -> t.cof_decided), fun t v -> t.cof_decided <- v);
    ("split_compares", (fun t -> t.split_compares), fun t v -> t.split_compares <- v);
    ("restricts", (fun t -> t.restricts), fun t v -> t.restricts <- v);
    ("retains", (fun t -> t.retains), fun t v -> t.retains <- v);
    ("evicted", (fun t -> t.evicted), fun t v -> t.evicted <- v);
    ("budget_checks", (fun t -> t.budget_checks), fun t v -> t.budget_checks <- v);
    ("sem_nodes", (fun t -> t.sem_nodes), fun t v -> t.sem_nodes <- v);
    ("sem_truncations", (fun t -> t.sem_truncations), fun t v -> t.sem_truncations <- v);
    ("sat_calls", (fun t -> t.sat_calls), fun t v -> t.sat_calls <- v);
    ("sat_conflicts", (fun t -> t.sat_conflicts), fun t v -> t.sat_conflicts <- v);
    ("windows_built", (fun t -> t.windows_built), fun t v -> t.windows_built <- v);
    ("df_iterations", (fun t -> t.df_iterations), fun t v -> t.df_iterations <- v);
    ("df_facts", (fun t -> t.df_facts), fun t v -> t.df_facts <- v);
    ("screened_out", (fun t -> t.screened_out), fun t v -> t.screened_out <- v);
  ]

let add_degradation t ~stage ~reason ~where =
  t.degradations <- (stage, reason, where) :: t.degradations

let degradations t = List.rev t.degradations

let add_finding t ~severity ~code ~message =
  t.findings <- (severity, code, message) :: t.findings

let findings t = List.rev t.findings

let add_phase t name dt =
  Hashtbl.replace t.phases name
    (dt +. Option.value ~default:0.0 (Hashtbl.find_opt t.phases name))

let phase_time t name = Option.value ~default:0.0 (Hashtbl.find_opt t.phases name)

let merge ~into s =
  List.iter (fun (_, get, set) -> set into (get into + get s)) counter_fields;
  (* both lists are newest-first; keep the merged one newest-first too *)
  into.degradations <- s.degradations @ into.degradations;
  into.findings <- s.findings @ into.findings;
  Hashtbl.iter (add_phase into) s.phases

let add_coverage t (c : Semantics.coverage) =
  t.sem_nodes <- t.sem_nodes + c.exact_nodes + c.windowed_nodes;
  if c.truncated_nodes > 0 then t.sem_truncations <- t.sem_truncations + 1;
  t.sat_calls <- t.sat_calls + c.sat_calls;
  t.sat_conflicts <- t.sat_conflicts + c.sat_conflicts;
  t.windows_built <- t.windows_built + c.windows_built;
  t.df_iterations <- t.df_iterations + c.df_iterations;
  t.df_facts <- t.df_facts + c.df_facts;
  t.screened_out <- t.screened_out + c.screened_out

let score_hit_rate t =
  if t.score_calls = 0 then 0.0
  else float_of_int t.score_hits /. float_of_int t.score_calls

let cof_hit_rate t =
  if t.cof_lookups = 0 then 0.0
  else
    float_of_int (t.cof_lookups - t.cof_fresh) /. float_of_int t.cof_lookups

type clock = { stats : t; mutable last : float }

(* Monotonic, not gettimeofday: a phase duration must survive an NTP
   step mid-run. *)
let clock stats = { stats; last = Mono.now () }

let mark ck name =
  let now = Mono.now () in
  let dt = now -. ck.last in
  ck.last <- now;
  add_phase ck.stats name dt;
  dt

(* ---- JSON projection (the per-run object of the bench schema) ----

   Emission and parsing live together so the schema cannot drift
   silently: [of_json (to_json t)] is the round-trip property the
   bench-report tests pin down.  Unknown fields are ignored and
   missing counters default to zero, so a newer reader accepts an
   older run object. *)

let counter_names = List.map (fun (name, _, _) -> name) counter_fields

let counter t name =
  match List.find_opt (fun (n, _, _) -> n = name) counter_fields with
  | Some (_, get, _) -> get t
  | None -> invalid_arg (Printf.sprintf "Stats.counter: unknown counter %S" name)

let to_json t =
  let event (a, b, c) ka kb kc =
    Json.Obj [ (ka, Json.Str a); (kb, Json.Str b); (kc, Json.Str c) ]
  in
  let phases =
    Hashtbl.fold (fun name dt acc -> (name, dt) :: acc) t.phases []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (name, dt) -> (name, Json.Num dt))
  in
  Json.Obj
    (List.map (fun (name, get, _) -> (name, Json.int (get t))) counter_fields
    @ [
        ( "degradations",
          Json.Arr
            (List.map
               (fun d -> event d "stage" "reason" "where")
               (degradations t)) );
        ( "findings",
          Json.Arr
            (List.map
               (fun f -> event f "severity" "code" "message")
               (findings t)) );
        ("phases", Json.Obj phases);
      ])

let of_json j =
  match j with
  | Json.Obj _ ->
      let t = create () in
      List.iter
        (fun (name, _, set) ->
          set t (Option.value ~default:0 (Json.mem_int name j)))
        counter_fields;
      let events key ka kb kc add =
        List.iter
          (fun e ->
            match (Json.mem_str ka e, Json.mem_str kb e, Json.mem_str kc e) with
            | Some a, Some b, Some c -> add a b c
            | _ -> ())
          (Option.value ~default:[] (Json.mem_list key j))
      in
      (* add_* prepend, so feed events in order to keep newest-first. *)
      events "degradations" "stage" "reason" "where" (fun stage reason where ->
          add_degradation t ~stage ~reason ~where);
      events "findings" "severity" "code" "message" (fun severity code message ->
          add_finding t ~severity ~code ~message);
      (match Json.member "phases" j with
      | Some (Json.Obj fields) ->
          List.iter
            (fun (name, v) ->
              match Json.to_float v with
              | Some dt -> add_phase t name dt
              | None -> ())
            fields
      | _ -> ());
      Ok t
  | _ -> Error "stats must be a JSON object"

let pp fmt t =
  Format.fprintf fmt
    "@[<v>score calls %d, memo hits %d (%.1f%%)@,\
     cofactor vectors: %d lookups, %d cached, %d extended, %d fresh, %d decided \
     (reuse %.1f%%); %d half comparisons@,\
     isf restricts %d; cache retains %d (evicted %d entries)@]"
    t.score_calls t.score_hits
    (100.0 *. score_hit_rate t)
    t.cof_lookups t.cof_hits t.cof_extends t.cof_fresh t.cof_decided
    (100.0 *. cof_hit_rate t)
    t.split_compares
    t.restricts t.retains t.evicted;
  if t.sem_nodes > 0 || t.sem_truncations > 0 then
    Format.fprintf fmt "@,semantic dataflow: %d node(s) analyzed, %d truncation(s)"
      t.sem_nodes t.sem_truncations;
  if t.sat_calls > 0 || t.windows_built > 0 then
    Format.fprintf fmt
      "@,sat engine: %d window(s), %d call(s), %d conflict(s)"
      t.windows_built t.sat_calls t.sat_conflicts;
  if t.df_facts > 0 || t.screened_out > 0 then
    Format.fprintf fmt
      "@,dataflow screen: %d fact(s) in %d iteration(s), %d work unit(s) screened"
      t.df_facts t.df_iterations t.screened_out;
  (match degradations t with
  | [] -> ()
  | ds ->
      Format.fprintf fmt "@,@[<v>budget degradations (%d checks):" t.budget_checks;
      List.iter
        (fun (stage, reason, where) ->
          Format.fprintf fmt "@,  -> %-14s (%s exceeded in %s)" stage reason where)
        ds;
      Format.fprintf fmt "@]");
  (match findings t with
  | [] -> ()
  | fs ->
      let sev name = List.length (List.filter (fun (s, _, _) -> s = name) fs) in
      Format.fprintf fmt
        "@,@[<v>check findings: %d error(s), %d warning(s), %d info"
        (sev "error") (sev "warning") (sev "info");
      List.iter
        (fun (severity, code, message) ->
          Format.fprintf fmt "@,  %s[%s] %s" severity code message)
        fs;
      Format.fprintf fmt "@]");
  let phases =
    Hashtbl.fold (fun name dt acc -> (name, dt) :: acc) t.phases []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  if phases <> [] then begin
    Format.fprintf fmt "@,@[<v>phases:";
    List.iter
      (fun (name, dt) -> Format.fprintf fmt "@,  %-16s %8.3fs" name dt)
      phases;
    Format.fprintf fmt "@]"
  end
