(* Source linter: the repo-local hygiene rules that used to live as
   grep one-liners in CI, as a dune-built executable so the rule table,
   the waiver mechanism and the scopes are reviewed like any other
   code.  Run via the [srclint] alias (attached to [runtest]):

     dune build @srclint

   Each rule bans a substring within a path scope.  A line containing
   the marker [srclint-ok] is waived (use sparingly, with a reason in
   a comment).  Matches inside OCaml comments count: a comment is the
   classic place a banned idiom gets recommended to the next reader,
   so spell the API without its module prefix when you only mean to
   talk about it. *)

let waiver_marker = "srclint-ok"

type rule = {
  pattern : string;
  scope : string -> bool;  (* slash-normalized relative path *)
  why : string;
}

let under dir path =
  let dir = dir ^ "/" in
  String.length path >= String.length dir
  && String.sub path 0 (String.length dir) = dir

let in_lib path = under "lib" path
let in_mono path = under "lib/mono" path

let decide =
  "builds a BDD only to answer yes or no; ask Bdd.disjoint or Bdd.leq"

let window_stage =
  "the window stage has one home, Semantics.windows in lib/check; call \
   it (or Semantics.analyze_report) instead of a second copy"

let rules =
  [
    {
      pattern = "Sys.time";
      scope = (fun p -> in_lib p && not (in_mono p));
      why =
        "CPU-time clock: runs N-times wall rate under worker domains and \
         stalls while blocked; deadlines must use Mono.now";
    };
    {
      pattern = "Unix.gettimeofday";
      scope = (fun p -> in_lib p && not (in_mono p));
      why =
        "wall clock subject to NTP steps; only lib/mono may read it \
         (calendar timestamps), deadlines must use Mono.now";
    };
    {
      pattern = "Unix.time";
      scope = (fun p -> in_lib p && not (in_mono p));
      why = "non-monotonic clock; use Mono.now through lib/mono";
    };
    {
      pattern = "Printf.printf";
      scope = in_lib;
      why =
        "libraries must not write to stdout (the CLI owns the terminal); \
         return data or take a formatter";
    };
    {
      pattern = "Format.printf";
      scope = in_lib;
      why = "libraries must not write to stdout; take a formatter argument";
    };
    {
      pattern = "print_string";
      scope = in_lib;
      why = "libraries must not write to stdout";
    };
    {
      pattern = "print_endline";
      scope = in_lib;
      why = "libraries must not write to stdout";
    };
    {
      pattern = "print_newline";
      scope = in_lib;
      why = "libraries must not write to stdout";
    };
    {
      pattern = "Obj.magic";
      scope = (fun _ -> true);
      why = "unsound cast; there is always another way";
    };
    {
      pattern = "is_zero (Bdd.and_";
      scope = in_lib;
      why = decide;
    };
    {
      pattern = "is_zero (Bdd.diff";
      scope = in_lib;
      why = decide;
    };
    {
      pattern = "is_one (Bdd.imp";
      scope = in_lib;
      why = decide;
    };
    {
      pattern = "Complete_dc.analyze_node";
      scope = (fun p -> not (under "lib/check" p));
      why = window_stage;
    };
    {
      pattern = "Window.context";
      scope = (fun p -> not (under "lib/check" p));
      why = window_stage;
    };
    {
      pattern = "failwith";
      scope = under "lib/decomp";
      why =
        "untyped failure in the decomposition engine; raise a typed \
         exception or return a result so callers can recover";
    };
  ]

let contains ~sub line =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  m > 0 && go 0

let ml_file path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

(* _build and friends never appear when run via the dune rule (the
   source_tree deps are copied clean), but keep standalone runs from
   the repo root honest. *)
let skip_dir name =
  String.length name > 0 && (name.[0] = '_' || name.[0] = '.')

let rec walk acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if skip_dir entry then acc
        else walk acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if ml_file path then path :: acc
  else acc

let lint_file errors path =
  (* dune runs actions with OS-native separators only on Windows;
     normalize anyway so scopes are portable *)
  let norm = String.map (fun c -> if c = '\\' then '/' else c) path in
  let applicable = List.filter (fun r -> r.scope norm) rules in
  if applicable <> [] then begin
    let ic = open_in path in
    let lineno = ref 0 in
    (try
       while true do
         let line = input_line ic in
         incr lineno;
         if not (contains ~sub:waiver_marker line) then
           List.iter
             (fun r ->
               if contains ~sub:r.pattern line then begin
                 incr errors;
                 Printf.eprintf "%s:%d: banned %s (%s)\n" path !lineno
                   r.pattern r.why
               end)
             applicable
       done
     with End_of_file -> ());
    close_in ic
  end

let () =
  let roots =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as roots) -> roots
    | _ -> [ "lib"; "bin"; "bench" ]
  in
  let files =
    List.concat_map
      (fun root -> if Sys.file_exists root then walk [] root else [])
      roots
  in
  let errors = ref 0 in
  List.iter (lint_file errors) (List.sort compare files);
  if !errors > 0 then begin
    Printf.eprintf "srclint: %d violation(s)\n" !errors;
    exit 1
  end
