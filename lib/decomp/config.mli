(** Configuration of the decomposition engine, including the paper's
    algorithm presets. *)

type dc_steps = {
  symmetry : bool;
      (** step 1: assign don't cares to maximize symmetries before bound
          set selection *)
  sharing : bool;
      (** step 2: assign don't cares to minimize the joint compatible
          class count (lower bound on the total number of decomposition
          functions) *)
  cms : bool;
      (** step 3: Chang & Marek-Sadowska per-output class minimization *)
}

type t = {
  lut_size : int;  (** [n_LUT]; 5 for the XC3000 experiments, 2 for gates *)
  objective : Cost.objective;
      (** bound-set scoring objective: {!Cost.Area} (the default, the
          paper's behaviour), {!Cost.Delay} (arrival-time-aware,
          critical-path-first) or {!Cost.Balanced} *)
  dc_steps : dc_steps;
  zero_dc_on_entry : bool;
      (** assign every don't care to 0 as soon as it appears — the
          [mulopII] baseline behaviour *)
  seeds : int;  (** bound-set search: number of greedy seeds *)
  symmetry_budget : int;  (** pair-merge attempts per symmetry pass *)
  exact_coloring_limit : int;
      (** search-node budget before falling back to DSATUR *)
}

val default : t
(** The full [mulop-dc] configuration with [lut_size = 5]. *)

val mulop_ii : t
(** The baseline of Table 1: no don't-care exploitation; every don't
    care is assigned 0 ([x] in the paper: "All don't cares were assigned
    to 0"). *)

val mulop_dc : t
(** The paper's algorithm: three-step don't-care assignment. *)

val with_lut_size : int -> t -> t
val with_objective : Cost.objective -> t -> t
