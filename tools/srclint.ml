(* Source linter: the repo-local hygiene rules that used to live as
   grep one-liners in CI, as a dune-built executable so the rule table,
   the waiver mechanism and the scopes are reviewed like any other
   code.  Run via the [srclint] alias (attached to [runtest]):

     dune build @srclint

   Each rule bans a substring within a path scope under [lib], [bin]
   and [bench].  A line containing the marker [srclint-ok] is waived
   (use sparingly, with a reason in a comment).  Matches inside OCaml
   comments count: a comment is the classic place a banned idiom gets
   recommended to the next reader, so spell the API without its module
   prefix when you only mean to talk about it.

   One more rule keeps the library surface small: every top-level
   [val] of a [lib/**/*.mli] must be named as [Module.value] by the
   code of some [.ml] outside its own module, in any root (tests, the
   benchmark, the examples and the tools count), through the module's
   name or a [module X = Module] alias, or used bare where the module
   is opened.  The other roots are read for these references only. *)

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

let step1_cofactor =
  "builds cofactor nodes that no closed function keeps; decide quadrants \
   with Bdd.equal_cof2 or Bdd.leq_cof2 and close with Bdd.exchange_close"

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
      pattern = "Bdd.restrict";
      scope = under "lib/symmetry";
      why = step1_cofactor;
    };
    {
      pattern = "Isf.restrict";
      scope = under "lib/symmetry";
      why = step1_cofactor;
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

(* dune runs actions with OS-native separators only on Windows;
   normalize anyway so scopes are portable *)
let norm path = String.map (fun c -> if c = '\\' then '/' else c) path

let lint_file errors path =
  let norm = norm path in
  let applicable =
    if List.exists (fun d -> under d norm) [ "lib"; "bin"; "bench" ] then
      List.filter (fun r -> r.scope norm) rules
    else []
  in
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

(* ---- the surface rule ---- *)

let read path = In_channel.with_open_bin path In_channel.input_all

(* [src] with comments and string literals blanked out, so that only
   code names a value. *)
let code_of src =
  let n = String.length src in
  let b = Buffer.create n in
  let rec code i depth =
    let at k c = i + k < n && src.[i + k] = c in
    if i >= n then ()
    else if at 0 '(' && at 1 '*' then code (i + 2) (depth + 1)
    else if depth > 0 && at 0 '*' && at 1 ')' then code (i + 2) (depth - 1)
    else if at 0 '"' then string (i + 1) depth
    else if depth = 0 && at 0 '{' && at 1 '|' then quoted (i + 2)
    else if depth = 0 && at 0 '\'' && at 2 '\'' then code (i + 3) depth
    else if depth = 0 && at 0 '\'' && at 1 '\\' then
      code (String.index_from src (i + 2) '\'' + 1) depth
    else begin
      Buffer.add_char b (if depth = 0 then src.[i] else ' ');
      code (i + 1) depth
    end
  and string i depth =
    if i >= n then ()
    else if src.[i] = '\\' then string (i + 2) depth
    else if src.[i] = '"' then (Buffer.add_char b ' '; code (i + 1) depth)
    else string (i + 1) depth
  and quoted i =
    if i + 1 >= n then ()
    else if src.[i] = '|' && src.[i + 1] = '}' then code (i + 2) 0
    else quoted (i + 1)
  in
  code 0 0;
  Buffer.contents b

let word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' | '.' -> true
  | _ -> false

(* Words (dotted paths included) and single punctuation characters. *)
let tokens code =
  let n = String.length code in
  let rec go i acc =
    if i >= n then List.rev acc
    else if word_char code.[i] then begin
      let j = ref i in
      while !j < n && word_char code.[!j] do incr j done;
      go !j (String.sub code i (!j - i) :: acc)
    end
    else
      match code.[i] with
      | ' ' | '\n' | '\t' | '\r' -> go (i + 1) acc
      | c -> go (i + 1) (String.make 1 c :: acc)
  in
  go 0 []

let upper s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'
let last_module p =
  List.hd (List.rev (List.filter upper (String.split_on_char '.' p)))

(* The [Module.value] keys one file's code names, aliases resolved, and
   the modules it opens (whose values it may name bare). *)
let references code =
  let toks = tokens code in
  let alias = Hashtbl.create 8 and opened = ref [] in
  let rec scan = function
    | "module" :: x :: "=" :: p :: rest when upper x && upper p ->
        Hashtbl.replace alias x (last_module p);
        scan rest
    | "open" :: p :: rest when upper p ->
        opened := last_module p :: !opened;
        scan rest
    | p :: "(" :: rest when upper p && p.[String.length p - 1] = '.' ->
        opened := last_module p :: !opened;
        scan rest
    | _ :: rest -> scan rest
    | [] -> ()
  in
  scan toks;
  let resolve m = Option.value ~default:m (Hashtbl.find_opt alias m) in
  let keys = Hashtbl.create 64 in
  let rec pairs = function
    | m :: (v :: _ as rest) ->
        if upper m && v <> "" && not (upper v) then
          Hashtbl.replace keys (resolve m ^ "." ^ v) ();
        pairs rest
    | _ -> ()
  in
  (* a bare word names an opened module's value unless it binds one *)
  let rec words prev = function
    | tok :: rest ->
        pairs (String.split_on_char '.' tok);
        if not (upper tok || List.mem prev [ "let"; "rec"; "and" ]) then
          List.iter (fun m -> Hashtbl.replace keys (m ^ "." ^ tok) ()) !opened;
        words tok rest
    | [] -> ()
  in
  words "" toks;
  keys

(* The top-level [val]s of an interface: (line, name, waived). *)
let exports path =
  let lines = String.split_on_char '\n' (read path) in
  List.concat
    (List.mapi
       (fun i line ->
         match String.split_on_char ' ' line with
         | "val" :: name :: _ when name <> "" && name <> "(" ->
             [ (i + 1, name, contains ~sub:waiver_marker line) ]
         | _ -> [])
       lines)

let lint_surface errors files =
  let module_of path =
    String.capitalize_ascii (Filename.remove_extension (Filename.basename path))
  in
  (* key -> the files naming it *)
  let named = Hashtbl.create 1024 in
  List.iter
    (fun path ->
      if Filename.check_suffix path ".ml" then
        Hashtbl.iter
          (fun key () -> Hashtbl.add named key (norm path))
          (references (code_of (read path))))
    files;
  List.iter
    (fun path ->
      if Filename.check_suffix path ".mli" && under "lib" (norm path) then begin
        let own = Filename.remove_extension (norm path) ^ ".ml" in
        let m = module_of path in
        List.iter
          (fun (line, name, waived) ->
            let key = m ^ "." ^ name in
            if
              (not waived)
              && List.for_all (String.equal own) (Hashtbl.find_all named key)
            then begin
              incr errors;
              Printf.eprintf
                "%s:%d: export %s has no caller outside its module (drop it \
                 from the interface, or delete it)\n"
                path line key
            end)
          (exports path)
      end)
    files

let () =
  let roots =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as roots) -> roots
    | _ -> [ "lib"; "bin"; "bench"; "test"; "perfbench"; "examples"; "tools" ]
  in
  let files =
    List.concat_map
      (fun root -> if Sys.file_exists root then walk [] root else [])
      roots
  in
  let files = List.sort compare files in
  let errors = ref 0 in
  List.iter (lint_file errors) files;
  lint_surface errors files;
  if !errors > 0 then begin
    Printf.eprintf "srclint: %d violation(s)\n" !errors;
    exit 1
  end
