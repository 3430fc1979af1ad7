(* Monotonic time source for durations; wall clock only for timestamps.

   [Unix.gettimeofday] is subject to NTP steps: a clock adjustment in
   the middle of a run yields negative or wildly skewed durations in
   batch and bench reports.  All interval measurement in this library
   (job timing, phase clocks, budget deadlines) goes through [now],
   which is CLOCK_MONOTONIC via the bechamel stub — a zero-dependency
   [@noalloc] external, safe to call concurrently from worker
   domains. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let wall = Unix.gettimeofday
