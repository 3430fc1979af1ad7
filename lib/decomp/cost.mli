(** Pluggable bound-set cost functions: the mapping objective.

    {!Bound_select.score} ranks candidates by a lexicographic triple
    [(objective term, communication complexity, support reduction)].
    This module computes the first component from a per-variable
    {e arrival time} oracle, giving the engine a delay-driven mode
    (critical-path-aware bound sets, following Tempia Calvino et al.,
    "Practical Boolean Decomposition for Delay-driven LUT Mapping")
    without touching the paper's area machinery: under {!Area} the
    term is constantly 0 and the ordering is bit-identical to the
    classical pair. *)

type objective =
  | Area  (** LUT/CLB count only — the paper's behaviour, the default *)
  | Delay
      (** arrival-time increase first: prefer bound sets of
          early-arriving signals, keep critical signals in the free set *)
  | Balanced
      (** the arrival term added into the area component instead of
          dominating it *)

val objective_name : objective -> string
(** ["area"], ["delay"], ["balanced"] — stable CLI/report names. *)

val objective_of_string : string -> (objective, string) result

type t = {
  objective : objective;
  arrival : int -> int;
      (** level of the signal realizing a decomposition variable: 0
          for primary inputs, {!Network.level} for emitted
          decomposition functions.  Never consulted under {!Area}. *)
}

val area : t
(** The zero cost function: objective {!Area}, arrival constantly 0. *)

val make : objective -> arrival:(int -> int) -> t
(** [make Area ~arrival] ignores [arrival] and returns {!area}, so an
    area-mode run cannot accidentally depend on network state. *)

val triple : t -> bound:int list -> int * int -> int * int * int
(** Extend the area pair [(a1, a2)] with the objective term for
    [bound], the arrival [s = 1 + max (arrival v)] of the decomposition
    functions the bound set would create: [Area → (0, a1, a2)],
    [Delay → (s, a1, a2)], [Balanced → (0, a1 + s, a2)].
    Lexicographically smaller is better in every mode. *)

val worst : int * int * int
(** Worse than any genuine candidate in every objective. *)
