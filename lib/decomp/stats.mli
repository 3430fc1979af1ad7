(** Decomposition statistics: counters for the bound-set scoring cache
    and per-phase wall-clock time of the driver loop.

    One mutable record accumulates everything.  A [Stats.t] is owned by
    exactly one decomposition run: front ends ([mfd --stats], the bench
    harness, the batch engine) {!create} one per run, pass it to
    {!Driver.decompose_report} / {!Mulop.run} / {!Budget.create}, and
    print it afterwards.  There is deliberately no process-global
    instance — concurrent runs in separate domains each own their stats,
    so the counters are data-race-free by construction.  Counters only
    ever increase. *)

type t = {
  mutable score_calls : int;  (** {!Bound_select.score} invocations *)
  mutable score_hits : int;  (** of which served from the score memo *)
  mutable cof_lookups : int;  (** cofactor-vector requests *)
  mutable cof_hits : int;  (** exact vector found in the cache *)
  mutable cof_extends : int;
      (** vectors built incrementally from a cached subset *)
  mutable cof_fresh : int;  (** vectors built from the root *)
  mutable cof_decided : int;
      (** scoring requests answered by deciding which halves of a
          cached parent vector's entries are equal; no vector built *)
  mutable split_compares : int;
      (** half comparisons ({!Bdd.equal_cof} confirmations) those
          decided splits made *)
  mutable restricts : int;  (** ISF restricts spent building vectors *)
  mutable retains : int;  (** cache invalidation passes *)
  mutable evicted : int;  (** entries dropped by invalidation *)
  mutable budget_checks : int;  (** {!Budget.check} polls performed *)
  mutable sem_nodes : int;
      (** LUT nodes the deep semantic (SDC/ODC) analysis covered: exact
          nodes plus windowed ones, undecided windows included *)
  mutable sem_truncations : int;
      (** semantic analyses that left some node covered by no engine
          (see {!add_coverage}), at most 1 per deep-checked run or
          optimize pass.  An exact engine stopped by its budget does
          not count when the windows covered every node it missed. *)
  mutable sat_calls : int;
      (** CDCL solver invocations by the windowed don't-care fallback
          and the SAT audit (mirrored from the check layer, like
          [findings]) *)
  mutable sat_conflicts : int;  (** conflicts across those calls *)
  mutable windows_built : int;  (** windows extracted for SAT analysis *)
  mutable df_iterations : int;
      (** dataflow node visits (two sweeps, so twice the reachable
          nodes), mirrored from the check layer's screening tier *)
  mutable df_facts : int;  (** facts the dataflow tier derived *)
  mutable screened_out : int;
      (** expensive-engine work units (exact ODC computations, SAT
          windows) skipped on the strength of a dataflow fact *)
  mutable degradations : (string * string * string) list;
      (** budget degradation events, newest first:
          [(stage entered, resource exceeded, where it was detected)] *)
  mutable findings : (string * string * string) list;
      (** [--check] assertion-layer findings, newest first:
          [(severity, code, message)] — the typed findings live in the
          driver report *)
  phases : (string, float) Hashtbl.t;  (** per-phase wall time, seconds *)
}

val create : unit -> t

val merge : into:t -> t -> unit
(** Accumulate another run's counters (every one in {!counter_names}),
    events and phase times into [into] (which is unchanged otherwise).
    Used by front ends that aggregate per-run instances — e.g. a bench
    section over many runs, or a batch report over many jobs. *)

val add_coverage : t -> Semantics.coverage -> unit
(** Add one semantic analysis's coverage to the check-layer counters:
    [sem_nodes] gains the exact plus windowed nodes, [sem_truncations]
    gains 1 when any node was left uncovered, and the SAT and dataflow
    counters gain their namesakes. *)

val add_phase : t -> string -> float -> unit
val phase_time : t -> string -> float

val add_degradation : t -> stage:string -> reason:string -> where:string -> unit
(** Record one budget degradation event (the driver entered [stage]
    because [reason] was exceeded, detected at poll point [where]). *)

val degradations : t -> (string * string * string) list
(** Degradation events in the order they fired. *)

val add_finding : t -> severity:string -> code:string -> message:string -> unit
(** Record one assertion-layer finding (driver [--check] hooks). *)

val findings : t -> (string * string * string) list
(** Findings in the order they fired, as [(severity, code, message)]. *)

(** A phase clock marks the boundaries between the named phases of a
    loop iteration; the elapsed time since the previous mark is added
    to the named bucket. *)

type clock

val clock : t -> clock
val mark : clock -> string -> float
(** [mark ck name] accumulates the time since the last mark (or since
    {!clock}) into phase [name] and returns it.  Clocks read
    {!Mono.now}, so phase durations are immune to wall-clock steps. *)

(** {1 JSON projection}

    The per-run statistics object of the bench schema
    ([bench_schema] 1): every counter under its field name, plus
    ["degradations"], ["findings"] and ["phases"].  {!Bench_report}
    embeds this object verbatim in [BENCH_*.json]; [mfd run --json]
    emits the same shape, so one reader handles both. *)

val counter_names : string list
(** Field names of all integer counters, in schema order.  {!merge},
    the JSON projection and the bench diff iterate this list, so a
    counter added to {!t} (and to the internal field table) is merged,
    serialized and gated automatically. *)

val counter : t -> string -> int
(** Read a counter by its schema field name.
    @raise Invalid_argument on names not in {!counter_names}. *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Tolerant inverse of {!to_json}: unknown fields are ignored and
    missing counters default to [0], so a newer reader accepts run
    objects written by an older schema.  Errors only on a value that
    is not a JSON object. *)

val pp : Format.formatter -> t -> unit
