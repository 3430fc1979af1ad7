(* Pluggable bound-set cost functions.

   [Bound_select] ranks candidate bound sets by a lexicographic triple
   whose first component this module owns: the mapping objective.
   Under [Area] the component is constantly 0, so the ordering
   collapses to the classical pair (communication complexity, then
   support reduction) and area-mode results are bit-identical to the
   pre-objective engine.  Under [Delay] the component is the arrival
   time of the decomposition functions the candidate would create —
   one LUT level above the latest-arriving bound variable — so the
   search prefers bound sets of early-arriving signals and keeps
   critical (late) signals in the free set, where they feed the
   composition function without the extra level (Tempia Calvino et
   al., delay-driven LUT mapping).  [Balanced] folds the same arrival
   term into the area component instead of dominating it.

   The [arrival] oracle maps a decomposition variable to the level of
   the signal realizing it: 0 for primary inputs, [Network.level] for
   already-emitted decomposition functions.  Arrivals are immutable
   once a signal exists (the driver's network is append-only), which
   is what lets scores be memoized: within one search, and within the
   Curtis retries that follow a step that added no LUT, the objective
   and every arrival are fixed, so a memo keyed by the bound set alone
   is exact. *)

type objective = Area | Delay | Balanced

let objective_name = function
  | Area -> "area"
  | Delay -> "delay"
  | Balanced -> "balanced"

let objective_of_string = function
  | "area" -> Ok Area
  | "delay" -> Ok Delay
  | "balanced" -> Ok Balanced
  | s ->
      Error
        (Printf.sprintf "unknown objective %S (expected area, delay or balanced)"
           s)

type t = { objective : objective; arrival : int -> int }

let area = { objective = Area; arrival = (fun _ -> 0) }

let make objective ~arrival =
  match objective with Area -> area | Delay | Balanced -> { objective; arrival }

(* Arrival of the candidate's decomposition functions: one level above
   the latest bound variable.  Both inputs and the constant-0 arrival
   of Area make this 1, but Area never reads it. *)
let step_arrival t bound =
  1 + List.fold_left (fun acc v -> max acc (t.arrival v)) 0 bound

let triple t ~bound (a1, a2) =
  match t.objective with
  | Area -> (0, a1, a2)
  | Delay -> (step_arrival t bound, a1, a2)
  | Balanced -> (0, a1 + step_arrival t bound, a2)

let worst = (max_int, max_int, max_int)
