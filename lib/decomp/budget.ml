type effort = Quick | Normal | Thorough

let effort_name = function
  | Quick -> "quick"
  | Normal -> "normal"
  | Thorough -> "thorough"

let effort_of_string = function
  | "quick" -> Ok Quick
  | "normal" -> Ok Normal
  | "thorough" -> Ok Thorough
  | s -> Error (Printf.sprintf "unknown effort %S (quick|normal|thorough)" s)

type reason = Deadline | Nodes

let reason_name = function Deadline -> "deadline" | Nodes -> "node budget"

type stage = Full | No_symmetry | No_sharing | Shannon_only

let stage_name = function
  | Full -> "full"
  | No_symmetry -> "no-symmetry"
  | No_sharing -> "no-sharing"
  | Shannon_only -> "shannon-only"

exception Out_of_budget of { reason : reason; where : string }

type t = {
  timeout : float option;  (* seconds, relative; clock starts at [attach] *)
  node_budget : int option;  (* allotment of fresh nodes per stage *)
  effort_level : effort;
  stats : Stats.t;  (* the attached run's counters ([budget_checks]) *)
  mutable deadline : float option;  (* absolute Mono.now time *)
  mutable node_limit : int option;  (* absolute unique-table size limit *)
  mutable current : stage;
  mutable mask : int;  (* > 0: checks suspended (inside [exempt]) *)
  mutable manager : Bdd.manager option;  (* set by [attach] *)
}

let create ?timeout ?node_budget ?(effort = Normal) ?(stats = Stats.create ())
    () =
  {
    timeout;
    node_budget;
    effort_level = effort;
    stats;
    deadline = None;
    node_limit = None;
    current = Full;
    mask = 0;
    manager = None;
  }

let unlimited = create ()

let is_limited t = t.timeout <> None || t.node_budget <> None
let stage t = t.current

let exceed reason where = raise (Out_of_budget { reason; where })

(* The growth hook receives the node count for free; [check] looks it
   up itself.  Both funnel here. *)
let poll t ~where node_count =
  if t.mask = 0 && t.current <> Shannon_only then begin
    (* The run's own stats, never a process-global one: poll fires
       concurrently from every batch worker domain. *)
    t.stats.Stats.budget_checks <- t.stats.Stats.budget_checks + 1;
    (match t.node_limit with
    | Some limit when node_count > limit -> exceed Nodes where
    | Some _ | None -> ());
    match t.deadline with
    | Some d when Mono.now () > d -> exceed Deadline where
    | Some _ | None -> ()
  end

let check t ~where =
  if is_limited t then
    let count =
      match (t.node_limit, t.manager) with
      | Some _, Some m -> Bdd.node_count m
      | _ -> 0
    in
    poll t ~where count

let checker t ~where () = check t ~where

let attach t m =
  if is_limited t then begin
    t.manager <- Some m;
    (* Re-arm from scratch on every attach.  A reused budget previously
       kept the first run's absolute deadline, node baseline and
       degradation stage, so a second run started (partly or fully)
       exhausted; each attach is the start of a fresh run. *)
    t.current <- Full;
    t.mask <- 0;
    (* Monotonic: a wall-clock (NTP) step must not expire or extend a
       running deadline. *)
    (match t.timeout with
    | Some secs -> t.deadline <- Some (Mono.now () +. secs)
    | None -> t.deadline <- None);
    (match t.node_budget with
    | Some b -> t.node_limit <- Some (Bdd.node_count m + b)
    | None -> t.node_limit <- None);
    Bdd.set_growth_hook m (Some (fun count -> poll t ~where:"bdd-growth" count))
  end

let detach t m = if is_limited t then Bdd.set_growth_hook m None

let exempt t f =
  if not (is_limited t) then f ()
  else begin
    t.mask <- t.mask + 1;
    Fun.protect ~finally:(fun () -> t.mask <- t.mask - 1) f
  end

let degrade t m reason =
  let next =
    match t.current with
    | Full -> No_symmetry
    | No_symmetry -> No_sharing
    | No_sharing | Shannon_only -> Shannon_only
  in
  t.current <- next;
  if next = Shannon_only then begin
    (* Terminal stage: emitting the remaining Shannon/MUX trees is
       mandatory work, so the budget disarms itself entirely. *)
    t.deadline <- None;
    t.node_limit <- None;
    detach t m
  end
  else begin
    match (reason, t.node_budget) with
    | Nodes, Some b ->
        (* Fresh allotment: the cheaper mode needs room to operate. *)
        t.node_limit <- Some (Bdd.node_count m + b)
    | (Nodes | Deadline), _ -> ()
  end;
  next

let apply_effort t cfg =
  match t.effort_level with
  | Normal -> cfg
  | Quick ->
      {
        cfg with
        Config.seeds = min cfg.Config.seeds 2;
        symmetry_budget = min cfg.Config.symmetry_budget 400;
        exact_coloring_limit = min cfg.Config.exact_coloring_limit 2_000;
      }
  | Thorough ->
      {
        cfg with
        Config.seeds = 2 * cfg.Config.seeds;
        symmetry_budget = 4 * cfg.Config.symmetry_budget;
        exact_coloring_limit = 4 * cfg.Config.exact_coloring_limit;
      }
