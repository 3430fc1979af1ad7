(** Structured diagnostics for the static-analysis passes.

    A finding couples a stable {e code} (["NET001"], ["DEC003"], ...)
    with a severity, an optional location (an output or signal name) and
    a human-readable message.  Codes are declared once in {!catalogue};
    {!make} refuses codes that are not declared, so a typo in a pass
    cannot silently invent a new code.

    Renderers: {!pp} / {!pp_list} for terminal text, {!to_json} for
    machine consumption ([mfd lint --json]).  The exit-code policy of
    the [mfd lint] subcommand and of [--check] assertion failures is
    {!exit_code}. *)

type severity = Error | Warning | Info

val severity_name : severity -> string

type t = {
  code : string;
  severity : severity;
  loc : string option;  (** output name, signal name, or phase *)
  message : string;
}

val make : ?loc:string -> string -> string -> t
(** [make ?loc code message].  The severity comes from the catalogue.
    @raise Invalid_argument on a code missing from {!catalogue}. *)

val catalogue : (string * severity * string) list
(** Every known code with its severity and a one-line description, in
    code order.  [NET*] codes are network-structure passes, [DEC*]
    codes are decomposition invariants, [PLA*] codes are two-level
    input hygiene, [SEM*] codes are the semantic (SDC/ODC dataflow)
    passes of {!Semantics}, [SUP*] codes are the support/redundancy
    facts of the {!Dataflow} screening tier. *)

val family : string -> string
(** The alphabetic family prefix of a code (["SEM003"] -> ["SEM"]). *)

val families : (string * (string * severity * string) list) list
(** {!catalogue} grouped by {!family}, families in first-appearance
    catalogue order and codes in catalogue order within each — the
    order [mfd lint --codes] renders. *)

val catalogue_version : string
(** Version tag of the catalogue, embedded in the JSON report so
    machine consumers can detect vocabulary skew.  Bumped whenever a
    code is added, removed or reclassified. *)

val severity_of_code : string -> severity option

(** {1 Aggregation} *)

val count : severity -> t list -> int
val errors : t list -> t list

val exit_code : t list -> int
(** The [mfd lint] policy: [0] when no finding is worse than [Info],
    [2] when warnings but no errors are present, [1] on any error.
    (Exit [3] is reserved by the CLI for parse/IO failures.) *)

(** {1 Rendering} *)

val normalize : t list -> t list
(** Stable sort by (location, code) — the deterministic order both
    renderers use.  Two runs over the same input render byte-identical
    reports regardless of pass scheduling; findings sharing a location
    and code keep their firing order. *)

val pp : Format.formatter -> t -> unit
(** [error[NET001] loc: message] — one line. *)

val pp_list : Format.formatter -> t list -> unit
(** One finding per line (in {!normalize} order) followed by a severity
    summary; prints ["clean"] for an empty list. *)

val finding_json : t -> Json.t
(** One finding as a [{"code","severity","loc","message"}] object
    (["loc"] is [null] when absent). *)

val json : ?extra:(string * Json.t) list -> t list -> Json.t
(** A JSON object [{"catalogue":V,"findings":[...]}] where [V] is
    {!catalogue_version} and the findings are {!finding_json} objects
    in {!normalize} order.  Each [extra] pair is appended to the object
    as one more field (the lint and audit front ends attach their
    analyzer coverage this way). *)

val to_json : ?extra:(string * Json.t) list -> t list -> string
(** {!json} rendered by {!Json.to_string}. *)

(** {1 Check levels} *)

(** How much the decomposition driver asserts while it runs: [Off] is
    free, [Cheap] covers bookkeeping invariants (well-formed ISFs,
    refinement of committed phases, proper clique covers, injective
    encodings, structural soundness of the final network), [Full] adds
    the BDD-equivalence obligations (committed symmetries really hold,
    every committed step composes back to its specification under the
    care set, every emitted LUT realizes its ISF), and [Deep]
    additionally runs the semantic SDC/ODC dataflow passes
    ({!Semantics}) over the final network against the specification's
    care set. *)
type level = Off | Cheap | Full | Deep

val level_name : level -> string
val level_of_string : string -> (level, string) result

val at_least : level -> level -> bool
(** [at_least level threshold]: does [level] include the checks of
    [threshold]?  ([Off < Cheap < Full < Deep].) *)
