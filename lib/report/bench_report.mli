(** Machine-readable bench reports ([BENCH_*.json]): one schema shared
    by the bench harness, [mfd run --json] and the CI perf gate.

    The design premise is that wall-clock time is too noisy to gate on,
    while the engine's own counters ({!Stats}), [Gc.allocated_bytes]
    and the LUT/CLB quality numbers are deterministic for a fixed
    input.  A report therefore carries both kinds of data, but {!diff}
    only compares the deterministic ("stable") cells, and it compares
    them for exact equality; wall time is reported and rendered, never
    compared.

    Every emitter stamps {!schema_version} under the key
    ["bench_schema"]; {!of_json} checks it before anything else, so a
    reader meeting a future schema fails with a clean message instead
    of misinterpreting fields. *)

val schema_version : int

(** {1 Report structure} *)

(** A typed table cell.  The tag survives the JSON round trip, so
    renderers (text, markdown) format a reloaded report exactly like a
    fresh one. *)
type value =
  | Int of int
  | Float of float
  | Secs of float  (** duration, rendered as seconds *)
  | Pct of float  (** ratio in percent, [12.5] renders as [12.5%] *)
  | Str of string

type run = {
  name : string;  (** circuit or workload name, e.g. ["duke2"] *)
  algorithm : string;
      (** algorithm or variant label; part of the {!diff} match key, so
          one circuit may appear once per algorithm in a section *)
  stable : bool;
      (** [false] exempts this run from gating — set for runs whose
          counters depend on elapsed time (timeout-governed, threaded) *)
  wall : float;  (** monotonic wall time, seconds — never gated *)
  alloc_bytes : float;
      (** [Gc.allocated_bytes] delta — the stable stand-in for time *)
  luts : int option;
  clbs : int option;
  depth : int option;
  bdd_nodes : int option;
      (** live BDD nodes after the run, when the workload exposes it *)
  stats : Stats.t;
}

(** One rendered table row: a label plus named cells.  Rows are what
    the text and markdown renderers show; {!run}s are what {!diff}
    gates on.  Sections carry both so display formatting can change
    without touching the gate. *)
type row = { label : string; cells : (string * value) list }

type section = {
  name : string;  (** the bench CLI section name, e.g. ["table1"] *)
  title : string;
  command : string;
      (** exact command that (re)produces this section's data — printed
          with every rendered table *)
  columns : string list;
      (** column headers; the first names the row-label column *)
  rows : row list;
  runs : run list;
  notes : string list;
  wall : float;
  alloc_bytes : float;
  stats : Stats.t;  (** merge of all per-run stats in the section *)
}

type report = {
  schema : int;
  created : string;  (** UTC timestamp, [YYYY-MM-DDThh:mm:ssZ] *)
  quick : bool;  (** produced under the bench [quick] flag *)
  sections : section list;
}

(** {1 Measurement} *)

val measure : (unit -> 'a) -> 'a * float * float
(** [measure f] runs [f] and returns [(result, wall_seconds,
    alloc_bytes)].  Wall time is {!Mono.now}-based.  Allocation is the
    [Gc.allocated_bytes] delta between two readings, each taken right
    after a forced minor collection: [Gc.allocated_bytes] does not count
    the minor heap's current fill, so without the collections a reading
    would be off by up to one minor heap.  With them the delta is every
    byte [f] allocated, exact and deterministic for a fixed workload and
    hence gateable.  The wall time excludes the second collection. *)

val created_now : unit -> string
(** Current UTC time in the {!report.created} format. *)

(** {1 JSON} *)

val run_to_json : run -> Json.t

val to_json : report -> Json.t

val of_json : Json.t -> (report, string) result
(** Checks ["bench_schema"] first: missing or mismatched versions are
    an [Error] naming both versions, never a misparse. *)

val load : string -> (report, string) result
(** Read and parse a [BENCH_*.json] file. *)

val write : dir:string -> report -> (string * string, string) result
(** Persist a report as [BENCH_<stamp>.json] (stamp derived from
    {!report.created}) and [BENCH_latest.json] in [dir].  Returns both
    paths, timestamped first. *)

(** {1 Rendering} *)

val pp_section : Format.formatter -> section -> unit
(** Console rendering: title, aligned table, notes, wall/alloc
    footer.  The bench harness prints sections only through this, so
    text output and JSON come from the same structure. *)

val markdown : report -> string
(** All sections of the report as markdown, for
    [bench --render-md]. *)

(** {1 Baseline diffing} *)

type delta = {
  d_section : string;
  d_run : string;  (** ["name/algorithm"] *)
  metric : string;  (** e.g. ["luts"], ["alloc_bytes"], ["stats.restricts"] *)
  base : float option;  (** [None] when the run lacks the cell *)
  current : float option;
}

type verdict = {
  changed : delta list;
      (** cells of stable runs that differ from the baseline, in either
          direction *)
  missing : string list;
      (** sections/runs present in base but absent in current: coverage
          loss fails the gate too *)
}

val diff : base:report -> current:report -> verdict
(** Match runs by (section name, run name, algorithm).  For every run
    that is [stable] on both sides, the LUT, CLB, depth and BDD-node
    counts, [alloc_bytes] and every {!Stats} counter
    ({!Stats.counter_names}, zeros included) must equal the baseline;
    any difference is a {!verdict.changed} cell.  There is no tolerance
    and no direction: a cell that moves on purpose is recorded by
    committing a regenerated baseline.  Runs with [stable = false] and
    wall times are never compared. *)

val verdict_ok : verdict -> bool
(** [true] iff no cell changed and no coverage is missing. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** One [CHANGED section run metric: base -> current] or [MISSING]
    line per entry, then an [OK] or [FAIL] summary line. *)
