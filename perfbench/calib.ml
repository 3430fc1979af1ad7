(* The calibration kernel.

   The machine the benchmark runs on is shared.  For seconds to minutes
   at a time its memory system serves the benchmark up to half as fast,
   and a whole run can land in such a phase.  A fixed kernel that grows
   a hash table of boxed pairs and probes it slows in the same phases.
   It runs before every circuit, and the run's end-to-end times are
   scaled by its time.  The kernel uses nothing from the library, so a
   change to the program cannot move it.

   The kernel is more sensitive than the library: the log of a run's
   median pass rose 0.55 (decompose-k5, five runs), 0.70 (decompose-k2,
   ten runs) and 0.48 (check-deep, five runs) times as fast as the log
   of the kernel's time.  So times are scaled by the square root of the
   kernel's slow-down, not by the slow-down itself (see README.md). *)

let size = 100_000

let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to size - 1 do
    Hashtbl.replace h (i * 7919) (i, i + 1)
  done;
  let s = ref 0 in
  for i = 0 to (3 * size) - 1 do
    match Hashtbl.find_opt h (i * 104729 mod size * 7919) with
    | Some (a, _) -> s := !s + a
    | None -> ()
  done;
  !s

(* The kernel's time in the machine's fast phases. *)
let reference_s = 0.07

(* One timed run of the kernel, between two full collections so that
   neither the kernel's garbage nor the heap it starts from belongs to
   the program. *)
let time () =
  Gc.compact ();
  let t0 = Mono.now () in
  ignore (Sys.opaque_identity (kernel ()));
  let dt = Mono.now () -. t0 in
  Gc.compact ();
  dt

(* [scale ~kernel_s t]: a time [t] measured while the kernel took
   [kernel_s], at the reference speed. *)
let scale ~kernel_s t = t *. sqrt (reference_s /. kernel_s)
