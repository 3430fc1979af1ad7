(** Per-run resource governor for the decomposition engine.

    A budget carries up to three limits — a wall-clock deadline, a BDD
    node budget, and an effort level — and a {e degradation stage}.  The
    engine polls the budget at phase boundaries ({!check}) and from a
    growth hook installed in the {!Bdd.manager} ({!attach}), so even a
    single runaway BDD operation is interrupted.  On exceedance a
    structured {!Out_of_budget} is raised; the driver catches it and
    {!degrade}s instead of aborting:

    + [Full] — all three don't-care steps run;
    + [No_symmetry] — symmetry maximization (step 1) is dropped;
    + [No_sharing] — the joint sharing-aware clique cover (step 2) is
      dropped too, and class minimization falls back to per-output
      greedy coloring;
    + [Shannon_only] — no more decomposition steps: remaining work items
      are emitted as plain Shannon/free-variable splits (shared MUX
      trees), which always terminates and always yields a correct
      network.

    A node-budget exceedance grants the next stage a fresh node
    allotment (the cheaper mode needs room to operate); a deadline
    exceedance does not extend the deadline, so repeated raises cascade
    quickly down to [Shannon_only].  Once there, the budget disarms
    itself completely — producing the final network is mandatory work.

    Create one budget per decomposition run.  {!attach} re-arms the
    deadline, the node baseline and the degradation stage from scratch,
    so a reused value behaves like a fresh one — but inspecting
    {!stage} between runs only makes sense before the next {!attach}.
    Every degradation event is recorded in {!Stats} by the driver and
    surfaced by [mfd --stats] and the bench harness. *)

(** {1 Effort levels} *)

type effort =
  | Quick  (** cut search budgets: fewer seeds, smaller symmetry/coloring budgets *)
  | Normal  (** the paper's configuration, unchanged *)
  | Thorough  (** widened search budgets for small, hard instances *)

val effort_name : effort -> string
val effort_of_string : string -> (effort, string) result

(** {1 Budgets} *)

type t

type reason = Deadline | Nodes

val reason_name : reason -> string

type stage = Full | No_symmetry | No_sharing | Shannon_only

val stage_name : stage -> string

exception Out_of_budget of { reason : reason; where : string }
(** Raised by {!check} (and by the growth hook installed by {!attach})
    when a limit is exceeded; [where] names the poll point. *)

val create :
  ?timeout:float ->
  ?node_budget:int ->
  ?effort:effort ->
  ?stats:Stats.t ->
  unit ->
  t
(** [timeout] is in seconds of wall-clock time, counted from {!attach}
    (i.e. from the start of the run, not from [create]); [node_budget]
    bounds the number of BDD nodes the run may allocate on top of what
    the manager already holds at {!attach} time.  Omitted limits are
    unlimited; the default effort is [Normal].  [stats] receives the
    [budget_checks] counter — pass the run's own instance (the default
    is a fresh throwaway), never one shared between concurrent runs. *)

val unlimited : t
(** No limits, [Normal] effort: never raises, never degrades.  Safe to
    share because it is inert. *)

val is_limited : t -> bool
val stage : t -> stage

val attach : t -> Bdd.manager -> unit
(** Arm the budget: start the deadline clock, record the node baseline,
    reset the degradation stage to [Full], and install the manager's
    growth hook.  Every attach re-arms from scratch, so attaching a
    budget a second time starts a fresh run instead of inheriting the
    first run's spent deadline and stale node baseline.  Must be called
    before {!check}; a no-op for {!unlimited}. *)

val detach : t -> Bdd.manager -> unit
(** Remove the growth hook (leaves the budget's stage intact). *)

val check : t -> where:string -> unit
(** Poll the limits; raises {!Out_of_budget} on exceedance.  A no-op
    when the budget is unlimited, suspended by {!exempt}, or already at
    [Shannon_only]. *)

val checker : t -> where:string -> unit -> unit
(** [checker t ~where] is [fun () -> check t ~where] — the polling
    callback handed to modules that must not depend on this one
    (e.g. {!Symmetry.maximize}). *)

val exempt : t -> (unit -> 'a) -> 'a
(** Run a thunk with all checks (including the growth hook) suspended.
    Used around commit and fallback sections: once a decomposition step
    has been computed, emitting it must not be interrupted — aborting
    there would waste the work the budget already paid for. *)

val degrade : t -> Bdd.manager -> reason -> stage
(** Advance to the next degradation stage and return it.  On a [Nodes]
    exceedance the node limit is re-armed with a fresh allotment above
    the current count; a [Deadline] is never extended.  Reaching
    [Shannon_only] disarms the budget completely (hook removed, limits
    cleared). *)

val apply_effort : t -> Config.t -> Config.t
(** Scale the search knobs of a configuration ([seeds],
    [symmetry_budget], [exact_coloring_limit]) by the budget's effort
    level.  [Normal] is the identity, so an unlimited budget never
    changes behaviour. *)
