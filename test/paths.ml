(* Where the tests find the example circuits.  Under [dune runtest] the
   working directory is _build/default/test and the test's dune stanza
   copies the circuits next to it; [dune exec test/test_main.exe] runs
   from the repository root. *)
let examples_dir () =
  match
    List.find_opt Sys.file_exists [ "../examples/circuits"; "examples/circuits" ]
  with
  | Some dir -> dir
  | None -> Alcotest.fail "examples/circuits not found from the working directory"
