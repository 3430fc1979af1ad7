(** Domain-parallel batch decomposition.

    The natural unit of parallelism of the algorithm is the whole
    circuit: every decomposition run owns its hash-consed
    {!Bdd.manager}, its {!Budget.t} and its {!Stats.t}, so runs are
    {e shared-nothing} and scale across OCaml 5 domains without locks.
    [run] drains a list of jobs with a fixed pool of worker domains
    (the calling domain is worker 0); each claimed job builds its
    specification, decomposes it under its own fresh budget, and writes
    its row of the report.  The only shared mutable state is the queue
    cursor (an [Atomic.t]) and the result array, each slot of which is
    written by exactly one worker.

    Failures are isolated per job and {e structured}: a parse error of
    a lazily loaded file, a {!Driver.Internal} violation, budget
    exhaustion and anything else become that job's [Error] row — with
    its {!error_kind} preserved, so a report can tell a client error
    from an engine fault instead of grepping a flattened string.

    The report is deterministic: job results are independent of
    scheduling (each run's manager starts empty, so node ids and every
    downstream choice are reproducible) and rows keep submission order,
    so [run ~jobs:1] and [run ~jobs:8] produce identical summaries —
    the batch determinism property tested in [test_batch.ml]. *)

type job = {
  name : string;  (** label used in the report *)
  build : Bdd.manager -> Driver.spec;
      (** called inside the claiming worker domain, on that run's own
          manager; may raise (e.g. a parse error) — the failure is
          confined to this job *)
}

val job : name:string -> (Bdd.manager -> Driver.spec) -> job

(** {1 Failure taxonomy} *)

type error_kind =
  | Parse_error
      (** the job's input could not be turned into a specification
          (malformed BLIF/PLA, unknown benchmark) — a {e client}
          error: resubmitting the same input will fail again *)
  | Internal
      (** a {!Driver.Internal} invariant violation — an {e engine}
          fault worth a bug report *)
  | Out_of_budget
      (** a {!Budget.Out_of_budget} escaped the driver's degradation
          ladder (it normally cannot; seeing this is a budget placed
          on work outside the driver's control) *)
  | Other  (** anything else, message preserved verbatim *)

val error_kind_name : error_kind -> string
(** Stable lowercase-hyphen names: ["parse-error"], ["internal"],
    ["out-of-budget"], ["other"] — used in the batch text and JSON
    reports. *)

type error = { kind : error_kind; message : string }

exception Job_rejected of error_kind * string
(** For job [build] functions: raise this to classify the failure
    (e.g. [Job_rejected (Parse_error, "foo.blif:3: ...")]).  Any other
    exception is classified by {!classify}. *)

val classify : exn -> error
(** The taxonomy map: {!Job_rejected} keeps its kind,
    {!Driver.Internal} is [Internal], {!Budget.Out_of_budget} is
    [Out_of_budget], [Failure] and everything else are [Other]. *)

(** {1 Reports} *)

type summary = {
  algorithm : Mulop.algorithm;
  network : Network.t;
      (** the produced LUT network — self-contained (plain truth
          tables, no BDD references), so it outlives the job's manager *)
  lut_count : int;
  clb_count : int;
  depth : int;
  step_count : int;
  shannon_count : int;
  alpha_count : int;
  degraded_to : Budget.stage;
  findings : Diagnostic.t list;
  verified : bool option;  (** [None] unless [run ~verify:true] *)
}

type job_report = {
  job : string;
  outcome : (summary, error) result;
  seconds : float;
      (** monotonic wall time of this job inside its worker — immune
          to NTP steps (never negative) *)
  stats : Stats.t;  (** the run's own counters and phase timings *)
}

type report = {
  results : job_report list;  (** in job submission order *)
  domains : int;  (** worker domains actually used *)
  wall : float;  (** monotonic wall time of the whole batch *)
}

val run :
  ?jobs:int ->
  ?lut_size:int ->
  ?objective:Cost.objective ->
  ?algorithm:Mulop.algorithm ->
  ?timeout:float ->
  ?node_budget:int ->
  ?effort:Budget.effort ->
  ?checks:Diagnostic.level ->
  ?verify:bool ->
  job list ->
  report
(** Decompose every job.  [jobs] (default 1) is the number of worker
    domains, clamped to the job count; [timeout]/[node_budget]/[effort]
    parameterize a {e fresh} {!Budget.t} per job (the timeout is per
    job, not for the whole batch).  [objective] (default {!Cost.Area})
    is threaded to {!Mulop.run} — delay/balanced jobs run the two-pass
    portfolio inside their own domain.  [verify] (default [false]) re-checks
    every produced network against its specification by BDD
    equivalence.  [checks] is threaded to the driver's assertion layer.
    Raises only on asynchronous exceptions (e.g. an interrupt); job
    failures are reported, not raised. *)

val failures : report -> (string * error) list
(** Failed jobs as [(job, structured error)]. *)

val error_findings : report -> (string * Diagnostic.t) list
(** Error-level assertion findings across all jobs, with their job. *)

val pp_text : ?stats:bool -> Format.formatter -> report -> unit
(** Aligned per-job table with totals; failed rows read
    [FAILED[<kind>]: <message>]; [~stats:true] appends every job's
    {!Stats} block. *)

val to_json : report -> string
(** The whole report as one JSON object ([domains], [wall_seconds],
    [jobs] array with per-job status, counts and findings; failed rows
    carry ["error_kind"] and ["error"]). *)
