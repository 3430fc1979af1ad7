(** A tiny self-contained JSON codec.

    This is the one JSON implementation of the repository: the batch
    report ([Batch.to_json]), the diagnostics renderer
    ([Diagnostic.to_json]), the [mfd] command line's [--json] outputs
    and the bench report ([Bench_report]) all build a {!t} and emit it
    through {!to_string}, and everything machine-readable parses back
    through {!parse}.  It is hand-rolled rather than a dependency
    because the consumers need full control over rejection behaviour —
    the bench diff must turn a stale or malformed report into a clean
    error, never an exception. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num (float_of_int n)] — integers survive the float carrier
    unchanged up to [2^53]. *)

val to_string : t -> string
(** Compact rendering (no insignificant whitespace).  Integral [Num]s
    print without a decimal point, so [int n] round-trips textually. *)

val parse : string -> (t, string) result
(** Strict recursive-descent parser: rejects trailing garbage,
    unterminated strings, invalid escapes, control characters in
    strings, and nesting deeper than 64 levels (a hostile input of
    open brackets cannot blow the stack). *)

(** {1 Accessors}

    Total helpers for picking fields out of parsed values; all return
    [None] instead of raising on shape mismatches. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing fields and non-objects. *)

val to_int : t -> int option
(** [Some] only for integral [Num]s whose magnitude is at most [2^53]
    — the largest range where doubles represent every integer exactly.
    Larger values would round silently through [int_of_float], so they
    are rejected with [None]. *)

val to_float : t -> float option

val mem_int : string -> t -> int option
val mem_float : string -> t -> float option
val mem_str : string -> t -> string option
val mem_bool : string -> t -> bool option
val mem_list : string -> t -> t list option
