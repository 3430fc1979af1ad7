(* Domain-parallel batch decomposition.

   The unit of parallelism is the whole circuit: a run owns its
   hash-consed Bdd.manager, its Budget.t and its Stats.t, so runs are
   shared-nothing and a fixed pool of worker domains can drain a job
   queue without any cross-domain synchronization beyond the queue
   cursor itself (one Atomic.fetch_and_add per job claim).  Results land
   in a pre-sized array slot owned by exactly one worker, so the report
   is independent of scheduling: job [i]'s row is the same whether the
   batch ran on 1 domain or 8. *)

type job = { name : string; build : Bdd.manager -> Driver.spec }

let job ~name build = { name; build }

type error_kind = Parse_error | Internal | Out_of_budget | Other

let error_kind_name = function
  | Parse_error -> "parse-error"
  | Internal -> "internal"
  | Out_of_budget -> "out-of-budget"
  | Other -> "other"

type error = { kind : error_kind; message : string }

exception Job_rejected of error_kind * string

(* Every failure a job can produce, folded into the structured taxonomy
   instead of a flat string, so a report can tell a client error (bad
   input) from an engine fault. *)
let classify = function
  | Job_rejected (kind, message) -> { kind; message }
  | Driver.Internal e -> { kind = Internal; message = Driver.internal_error_message e }
  | Budget.Out_of_budget { reason; where } ->
      {
        kind = Out_of_budget;
        message =
          Printf.sprintf "out of budget: %s exceeded in %s"
            (Budget.reason_name reason) where;
      }
  | Failure message -> { kind = Other; message }
  | e -> { kind = Other; message = Printexc.to_string e }

type summary = {
  algorithm : Mulop.algorithm;
  network : Network.t;
  lut_count : int;
  clb_count : int;
  depth : int;
  step_count : int;
  shannon_count : int;
  alpha_count : int;
  degraded_to : Budget.stage;
  findings : Diagnostic.t list;
  verified : bool option;
}

type job_report = {
  job : string;
  outcome : (summary, error) result;
  seconds : float;
  stats : Stats.t;
}

type report = { results : job_report list; domains : int; wall : float }

(* One job, start to finish, inside whichever domain claimed it.  Every
   per-run resource is created here — manager, budget, stats — and
   every exception (parse error of a lazily loaded file, driver
   invariant violation, out-of-memory of a pathological instance) is
   confined to this job's row instead of aborting the batch.  Timing is
   monotonic: a wall-clock (NTP) step mid-job must not produce negative
   [seconds]. *)
let run_job ?lut_size ?objective ?timeout ?node_budget ?effort ?checks
    ?(verify = false) algorithm jb =
  let stats = Stats.create () in
  let t0 = Mono.now () in
  let outcome =
    match
      let m = Bdd.manager () in
      let spec = jb.build m in
      let budget = Budget.create ?timeout ?node_budget ?effort ~stats () in
      let o =
        Mulop.run ?lut_size ?objective ~budget ?checks ~stats m algorithm spec
      in
      let verified =
        if verify then Some (Driver.verify m spec o.Mulop.network) else None
      in
      {
        algorithm;
        network = o.Mulop.network;
        lut_count = o.Mulop.lut_count;
        clb_count = o.Mulop.clb_count;
        depth = o.Mulop.depth;
        step_count = o.Mulop.step_count;
        shannon_count = o.Mulop.shannon_count;
        alpha_count = o.Mulop.alpha_count;
        degraded_to = o.Mulop.degraded_to;
        findings = o.Mulop.findings;
        verified;
      }
    with
    | summary -> Ok summary
    | exception e -> Error (classify e)
  in
  { job = jb.name; outcome; seconds = Mono.now () -. t0; stats }

let run ?(jobs = 1) ?lut_size ?objective ?(algorithm = Mulop.Mulop_dc)
    ?timeout ?node_budget ?effort ?checks ?verify job_list =
  let arr = Array.of_list job_list in
  let n = Array.length arr in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          Some
            (run_job ?lut_size ?objective ?timeout ?node_budget ?effort
               ?checks ?verify algorithm arr.(i));
        loop ()
      end
    in
    loop ()
  in
  let domains = max 1 (min jobs n) in
  let t0 = Mono.now () in
  (* The calling domain is worker 0; only the extra workers are spawned.
     [run_job] catches everything, so a worker only dies on truly
     asynchronous exceptions; [Domain.join] re-raises those. *)
  let spawned =
    if domains <= 1 then []
    else List.init (domains - 1) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join spawned;
  let wall = Mono.now () -. t0 in
  let results =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false (* every slot claimed *))
         results)
  in
  { results; domains; wall }

let failures report =
  List.filter_map
    (fun r ->
      match r.outcome with Ok _ -> None | Error e -> Some (r.job, e))
    report.results

let error_findings report =
  List.concat_map
    (fun r ->
      match r.outcome with
      | Ok s -> List.map (fun d -> (r.job, d)) (Diagnostic.errors s.findings)
      | Error _ -> [])
    report.results

(* ---- rendering ---- *)

let pp_text ?(stats = false) fmt report =
  Format.fprintf fmt "@[<v>%-12s | %6s %6s %6s %6s %8s | %8s %s@,"
    "job" "luts" "clbs" "depth" "steps" "shannon" "time" "";
  let total_luts = ref 0 and total_clbs = ref 0 and failed = ref 0 in
  List.iter
    (fun r ->
      match r.outcome with
      | Ok s ->
          total_luts := !total_luts + s.lut_count;
          total_clbs := !total_clbs + s.clb_count;
          Format.fprintf fmt "%-12s | %6d %6d %6d %6d %8d | %7.2fs %s%s%s@,"
            r.job s.lut_count s.clb_count s.depth s.step_count s.shannon_count
            r.seconds
            (match s.degraded_to with
            | Budget.Full -> ""
            | stage -> "degraded=" ^ Budget.stage_name stage)
            (match s.findings with
            | [] -> ""
            | fs -> Printf.sprintf " findings=%d" (List.length fs))
            (match s.verified with
            | Some true -> " verified"
            | Some false -> " VERIFY-FAILED"
            | None -> "")
      | Error e ->
          incr failed;
          Format.fprintf fmt "%-12s | FAILED[%s]: %s@," r.job
            (error_kind_name e.kind) e.message)
    report.results;
  Format.fprintf fmt "%-12s | %6d %6d %38s@," "total" !total_luts !total_clbs
    (Printf.sprintf "(%d jobs, %d domains, %.2fs wall%s)"
       (List.length report.results)
       report.domains report.wall
       (if !failed = 0 then "" else Printf.sprintf ", %d FAILED" !failed));
  if stats then
    List.iter
      (fun r -> Format.fprintf fmt "@,[%s]@,%a@," r.job Stats.pp r.stats)
      report.results;
  Format.fprintf fmt "@]"

let to_json report =
  let row r =
    let rest =
      match r.outcome with
      | Ok s ->
          [
            ("status", Json.Str "ok");
            ("algorithm", Json.Str (Mulop.algorithm_name s.algorithm));
            ("luts", Json.int s.lut_count);
            ("clbs", Json.int s.clb_count);
            ("depth", Json.int s.depth);
            ("steps", Json.int s.step_count);
            ("shannon", Json.int s.shannon_count);
            ("alphas", Json.int s.alpha_count);
            ("degraded_to", Json.Str (Budget.stage_name s.degraded_to));
            ("findings", Diagnostic.json s.findings);
          ]
          @ (match s.verified with
            | None -> []
            | Some ok -> [ ("verified", Json.Bool ok) ])
      | Error e ->
          [
            ("status", Json.Str "failed");
            ("error_kind", Json.Str (error_kind_name e.kind));
            ("error", Json.Str e.message);
          ]
    in
    Json.Obj
      (("job", Json.Str r.job) :: ("seconds", Json.Num r.seconds) :: rest)
  in
  Json.to_string
    (Json.Obj
       [
         ("domains", Json.int report.domains);
         ("wall_seconds", Json.Num report.wall);
         ("jobs", Json.Arr (List.map row report.results));
       ])
