(* The domain-parallel batch engine: results must be independent of the
   worker-domain count (each job owns its manager/budget/stats, so
   scheduling cannot leak into the outcome), failures must stay confined
   to their job, and the report renderers must stay well-formed. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let names n = List.init n (Printf.sprintf "x%d")

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* A deterministic pseudo-random job: the spec is rebuilt from the seed
   inside whichever worker domain claims the job, on that run's own
   manager. *)
let random_job ~nvars seed =
  Batch.job ~name:(Printf.sprintf "rnd%d" seed) (fun m ->
      let st = Random.State.make [| seed |] in
      Driver.spec_of_csf m (names nvars)
        [
          ("f", Bdd.random m ~nvars ~density:0.4 st);
          ("g", Bdd.random m ~nvars ~density:0.55 st);
        ])

(* The scheduling-independent projection of a report: per-job outcome in
   submission order, without the wall-clock fields. *)
let fingerprint report =
  List.map
    (fun r ->
      match r.Batch.outcome with
      | Ok s ->
          Ok
            ( r.Batch.job,
              s.Batch.lut_count,
              s.Batch.clb_count,
              s.Batch.depth,
              s.Batch.step_count,
              s.Batch.shannon_count,
              List.length s.Batch.findings,
              s.Batch.verified )
      | Error e -> Error (r.Batch.job, e.Batch.kind, e.Batch.message))
    report.Batch.results

let batch_tests =
  [
    Alcotest.test_case "every job verified, rows in submission order" `Quick
      (fun () ->
        let jobs = List.map (random_job ~nvars:6) [ 3; 14; 15; 92 ] in
        let report = Batch.run ~jobs:2 ~verify:true jobs in
        check_int "one row per job" (List.length jobs)
          (List.length report.Batch.results);
        List.iter2
          (fun jb r ->
            check_bool "submission order kept" true (jb.Batch.name = r.Batch.job);
            match r.Batch.outcome with
            | Ok s -> check_bool "verified" true (s.Batch.verified = Some true)
            | Error e -> Alcotest.fail (r.Batch.job ^ ": " ^ e.Batch.message))
          jobs report.Batch.results;
        check_bool "no failures" true (Batch.failures report = []);
        check_bool "per-job stats populated" true
          (List.for_all
             (fun r -> r.Batch.stats.Stats.score_calls > 0)
             report.Batch.results));
    Alcotest.test_case "a failing job is confined to its row" `Quick (fun () ->
        let boom =
          Batch.job ~name:"boom" (fun _ -> failwith "no such benchmark")
        in
        let jobs = [ random_job ~nvars:5 1; boom; random_job ~nvars:5 2 ] in
        let report = Batch.run ~jobs:3 jobs in
        (match fingerprint report with
        | [ Ok _; Error ("boom", Batch.Other, msg); Ok _ ] ->
            check_bool "failure message survives" true
              (contains msg "no such benchmark")
        | _ -> Alcotest.fail "expected ok/failed/ok rows in order");
        match Batch.failures report with
        | [ ("boom", _) ] -> ()
        | fs -> check_int "exactly one failure" 1 (List.length fs));
    Alcotest.test_case "more domains than jobs is clamped" `Quick (fun () ->
        let jobs = [ random_job ~nvars:5 7 ] in
        let report = Batch.run ~jobs:8 jobs in
        check_int "domains clamped to job count" 1 report.Batch.domains;
        check_bool "job succeeded" true (Batch.failures report = []));
    Alcotest.test_case "error taxonomy: one kind per failure category" `Quick
      (fun () ->
        (* Each category of job failure must keep its structured kind in
           the report — the old string flattening made them
           indistinguishable (a bad input is a client error, the others
           are engine faults). *)
        let reject kind msg =
          Batch.job ~name:(Batch.error_kind_name kind) (fun _ ->
              raise (Batch.Job_rejected (kind, msg)))
        in
        let internal =
          Batch.job ~name:"internal" (fun _ ->
              raise (Driver.Internal (Driver.Iteration_limit 7)))
        in
        let oob =
          Batch.job ~name:"oob" (fun _ ->
              raise
                (Budget.Out_of_budget
                   { reason = Budget.Deadline; where = "spec build" }))
        in
        let plain = Batch.job ~name:"plain" (fun _ -> failwith "boom") in
        let report =
          Batch.run
            [ reject Batch.Parse_error "x.blif:3: bad cube"; internal; oob; plain ]
        in
        (match fingerprint report with
        | [
         Error (_, Batch.Parse_error, pmsg);
         Error (_, Batch.Internal, imsg);
         Error (_, Batch.Out_of_budget, omsg);
         Error (_, Batch.Other, bmsg);
        ] ->
            check_bool "parse message" true (contains pmsg "x.blif:3");
            check_bool "internal message" true (contains imsg "iteration");
            check_bool "budget message" true (contains omsg "deadline");
            check_bool "other message" true (contains bmsg "boom")
        | _ -> Alcotest.fail "expected four structured failure rows");
        let json = Batch.to_json report in
        List.iter
          (fun kind ->
            check_bool
              ("json carries " ^ kind)
              true
              (contains json (Printf.sprintf "\"error_kind\":%S" kind)))
          [ "parse-error"; "internal"; "out-of-budget"; "other" ];
        let text = Format.asprintf "%a" (Batch.pp_text ~stats:false) report in
        check_bool "text tags the kind" true (contains text "FAILED[parse-error]"));
    Alcotest.test_case "classify maps every exception category" `Quick
      (fun () ->
        let kind_of e = (Batch.classify e).Batch.kind in
        check_bool "job_rejected keeps its kind" true
          (kind_of (Batch.Job_rejected (Batch.Parse_error, "m")) = Batch.Parse_error);
        check_bool "driver internal" true
          (kind_of (Driver.Internal Driver.Worklist_deadlock) = Batch.Internal);
        check_bool "out of budget" true
          (kind_of (Budget.Out_of_budget { reason = Budget.Nodes; where = "w" })
          = Batch.Out_of_budget);
        check_bool "failure is other" true
          (kind_of (Failure "f") = Batch.Other);
        check_bool "arbitrary exception is other" true
          (kind_of Exit = Batch.Other));
    Alcotest.test_case "job timing is monotonic and non-negative" `Quick
      (fun () ->
        let report = Batch.run [ random_job ~nvars:5 11 ] in
        check_bool "wall >= 0" true (report.Batch.wall >= 0.0);
        List.iter
          (fun r -> check_bool "seconds >= 0" true (r.Batch.seconds >= 0.0))
          report.Batch.results;
        (* Mono.now never goes backwards across repeated samples. *)
        let last = ref (Mono.now ()) in
        for _ = 1 to 10_000 do
          let t = Mono.now () in
          check_bool "monotone" true (t >= !last);
          last := t
        done);
    Alcotest.test_case "report renderers are well-formed" `Quick (fun () ->
        let jobs =
          [ random_job ~nvars:5 4;
            Batch.job ~name:"bad" (fun _ -> failwith "parse error") ]
        in
        let report = Batch.run ~jobs:2 ~verify:true jobs in
        let text = Format.asprintf "%a" (Batch.pp_text ~stats:true) report in
        check_bool "table mentions every job" true
          (contains text "rnd4"
          && contains text "bad"
          && contains text "FAILED");
        let json = Batch.to_json report in
        check_bool "json has both statuses" true
          (contains json "\"status\":\"ok\""
          && contains json "\"status\":\"failed\"");
        check_bool "json escapes the error" true
          (contains json "parse error");
        match Json.parse json with
        | Error msg -> Alcotest.failf "Json.parse rejects the report: %s" msg
        | Ok j ->
            check_int "one parsed row per job" 2
              (List.length (Option.get (Json.mem_list "jobs" j))));
  ]

(* The headline property: the per-job results of a parallel batch are
   job-for-job identical to the sequential ones, and a clean spec stays
   clean under --check=full in both. *)
let props =
  [
    QCheck2.Test.make ~name:"batch: jobs:4 report equals jobs:1 report"
      ~count:8
      QCheck2.Gen.(list_size (int_range 3 6) (int_range 0 1000))
      (fun seeds ->
        let jobs = List.mapi (fun k s -> random_job ~nvars:6 (s + (k * 1009))) seeds in
        let sequential =
          Batch.run ~jobs:1 ~checks:Diagnostic.Full ~verify:true jobs
        in
        let parallel =
          Batch.run ~jobs:4 ~checks:Diagnostic.Full ~verify:true jobs
        in
        let seq = fingerprint sequential and par = fingerprint parallel in
        seq = par
        && List.for_all
             (function
               | Ok (_, _, _, _, _, _, findings, verified) ->
                   findings = 0 && verified = Some true
               | Error _ -> false)
             seq);
  ]

let suite =
  batch_tests @ List.map (fun p -> QCheck_alcotest.to_alcotest ~long:false p) props
