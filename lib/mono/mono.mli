(** Monotonic time for durations.

    Every elapsed-time measurement of the library ({!Stats.clock},
    {!Budget} deadlines, batch job timing) uses {!now} — a
    monotonic clock that never jumps backwards, so an NTP step in the
    middle of a run cannot produce negative or skewed durations in
    reports.  {!wall} is the non-monotonic wall clock, to be used only
    for human-facing timestamps, never subtracted. *)

val now : unit -> float
(** Seconds on CLOCK_MONOTONIC, from an arbitrary (boot-time) epoch.
    Only differences of two [now] values are meaningful. *)

val wall : unit -> float
(** [Unix.gettimeofday] — calendar timestamps only. *)
