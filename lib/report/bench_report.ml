(* Machine-readable bench reports.  See bench_report.mli for the
   design rationale (deterministic cells gate exactly, wall clock is
   only reported). *)

let schema_version = 1

type value =
  | Int of int
  | Float of float
  | Secs of float
  | Pct of float
  | Str of string

type run = {
  name : string;
  algorithm : string;
  stable : bool;
  wall : float;
  alloc_bytes : float;
  luts : int option;
  clbs : int option;
  depth : int option;
  bdd_nodes : int option;
  stats : Stats.t;
}

type row = { label : string; cells : (string * value) list }

type section = {
  name : string;
  title : string;
  command : string;
  columns : string list;
  rows : row list;
  runs : run list;
  notes : string list;
  wall : float;
  alloc_bytes : float;
  stats : Stats.t;
}

type report = {
  schema : int;
  created : string;
  quick : bool;
  sections : section list;
}

(* ---- measurement ---- *)

(* [Gc.allocated_bytes] leaves out the minor heap's current fill, so
   each reading is taken on an empty minor heap. *)
let measure f =
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let t0 = Mono.now () in
  let result = f () in
  let wall = Mono.now () -. t0 in
  Gc.minor ();
  let alloc = Gc.allocated_bytes () -. a0 in
  (result, wall, alloc)

let created_now () =
  let tm = Unix.gmtime (Mono.wall ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* ---- JSON ---- *)

let value_to_json v =
  let tagged t v = Json.Obj [ ("t", Json.Str t); ("v", v) ] in
  match v with
  | Int n -> tagged "int" (Json.int n)
  | Float f -> tagged "float" (Json.Num f)
  | Secs s -> tagged "secs" (Json.Num s)
  | Pct p -> tagged "pct" (Json.Num p)
  | Str s -> tagged "str" (Json.Str s)

let value_of_json j =
  match (Json.mem_str "t" j, Json.member "v" j) with
  | Some "str", Some (Json.Str s) -> Ok (Str s)
  | Some "int", Some v -> (
      match Json.to_int v with
      | Some n -> Ok (Int n)
      | None -> Error "cell tagged \"int\" without an integer value")
  | Some tag, Some v -> (
      match (tag, Json.to_float v) with
      | "float", Some f -> Ok (Float f)
      | "secs", Some s -> Ok (Secs s)
      | "pct", Some p -> Ok (Pct p)
      | _ -> Error (Printf.sprintf "unknown or mistyped cell tag %S" tag))
  | _ -> Error "cell without \"t\"/\"v\""

let opt_int name = function
  | None -> []
  | Some n -> [ (name, Json.int n) ]

let run_to_json (r : run) =
  Json.Obj
    ([
       ("name", Json.Str r.name);
       ("algorithm", Json.Str r.algorithm);
       ("stable", Json.Bool r.stable);
       ("wall", Json.Num r.wall);
       ("alloc_bytes", Json.Num r.alloc_bytes);
     ]
    @ opt_int "luts" r.luts @ opt_int "clbs" r.clbs @ opt_int "depth" r.depth
    @ opt_int "bdd_nodes" r.bdd_nodes
    @ [ ("stats", Stats.to_json r.stats) ])

let ( let* ) = Result.bind

let run_of_json j : (run, string) result =
  match j with
  | Json.Obj _ ->
      let* name =
        Option.to_result ~none:"run without \"name\"" (Json.mem_str "name" j)
      in
      let* stats =
        match Json.member "stats" j with
        | None -> Ok (Stats.create ())
        | Some s -> Stats.of_json s
      in
      Ok
        {
          name;
          algorithm = Option.value ~default:"" (Json.mem_str "algorithm" j);
          stable = Option.value ~default:true (Json.mem_bool "stable" j);
          wall = Option.value ~default:0.0 (Json.mem_float "wall" j);
          alloc_bytes =
            Option.value ~default:0.0 (Json.mem_float "alloc_bytes" j);
          luts = Json.mem_int "luts" j;
          clbs = Json.mem_int "clbs" j;
          depth = Json.mem_int "depth" j;
          bdd_nodes = Json.mem_int "bdd_nodes" j;
          stats;
        }
  | _ -> Error "run must be a JSON object"

let row_to_json (r : row) =
  Json.Obj
    [
      ("label", Json.Str r.label);
      ( "cells",
        Json.Arr
          (List.map
             (fun (k, v) ->
               match value_to_json v with
               | Json.Obj fields -> Json.Obj (("k", Json.Str k) :: fields)
               | other -> other)
             r.cells) );
    ]

let row_of_json j : (row, string) result =
  let* label =
    Option.to_result ~none:"row without \"label\"" (Json.mem_str "label" j)
  in
  let* cells =
    List.fold_left
      (fun acc c ->
        let* acc = acc in
        let* k =
          Option.to_result ~none:"cell without \"k\"" (Json.mem_str "k" c)
        in
        let* v = value_of_json c in
        Ok ((k, v) :: acc))
      (Ok [])
      (Option.value ~default:[] (Json.mem_list "cells" j))
  in
  Ok { label; cells = List.rev cells }

let str_list l = Json.Arr (List.map (fun s -> Json.Str s) l)

let section_to_json (s : section) =
  Json.Obj
    [
      ("name", Json.Str s.name);
      ("title", Json.Str s.title);
      ("command", Json.Str s.command);
      ("columns", str_list s.columns);
      ("rows", Json.Arr (List.map row_to_json s.rows));
      ("runs", Json.Arr (List.map run_to_json s.runs));
      ("notes", str_list s.notes);
      ("wall", Json.Num s.wall);
      ("alloc_bytes", Json.Num s.alloc_bytes);
      ("stats", Stats.to_json s.stats);
    ]

let strings_of key j =
  Option.value ~default:[] (Json.mem_list key j)
  |> List.filter_map (function Json.Str s -> Some s | _ -> None)

let map_result f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

let section_of_json j : (section, string) result =
  match j with
  | Json.Obj _ ->
      let* name =
        Option.to_result ~none:"section without \"name\""
          (Json.mem_str "name" j)
      in
      let* rows =
        map_result row_of_json (Option.value ~default:[] (Json.mem_list "rows" j))
      in
      let* runs =
        map_result run_of_json (Option.value ~default:[] (Json.mem_list "runs" j))
      in
      let* stats =
        match Json.member "stats" j with
        | None -> Ok (Stats.create ())
        | Some s -> Stats.of_json s
      in
      Ok
        {
          name;
          title = Option.value ~default:name (Json.mem_str "title" j);
          command = Option.value ~default:"" (Json.mem_str "command" j);
          columns = strings_of "columns" j;
          rows;
          runs;
          notes = strings_of "notes" j;
          wall = Option.value ~default:0.0 (Json.mem_float "wall" j);
          alloc_bytes =
            Option.value ~default:0.0 (Json.mem_float "alloc_bytes" j);
          stats;
        }
  | _ -> Error "section must be a JSON object"

let to_json (r : report) =
  Json.Obj
    [
      ("bench_schema", Json.int r.schema);
      ("created", Json.Str r.created);
      ("quick", Json.Bool r.quick);
      ("sections", Json.Arr (List.map section_to_json r.sections));
    ]

let of_json j =
  match j with
  | Json.Obj _ -> (
      match Json.mem_int "bench_schema" j with
      | None -> Error "not a bench report: missing \"bench_schema\""
      | Some v when v <> schema_version ->
          Error
            (Printf.sprintf
               "bench_schema %d is not supported (this binary reads schema %d)"
               v schema_version)
      | Some _ ->
          let* sections =
            map_result section_of_json
              (Option.value ~default:[] (Json.mem_list "sections" j))
          in
          Ok
            {
              schema = schema_version;
              created = Option.value ~default:"" (Json.mem_str "created" j);
              quick = Option.value ~default:false (Json.mem_bool "quick" j);
              sections;
            })
  | _ -> Error "bench report must be a JSON object"

(* ---- files ---- *)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text ->
      let* j =
        Result.map_error (Printf.sprintf "%s: %s" path) (Json.parse text)
      in
      Result.map_error (Printf.sprintf "%s: %s" path) (of_json j)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write ~dir report =
  let stamp =
    String.map
      (function ':' -> '\000' | '-' -> '\000' | c -> c)
      report.created
    |> String.split_on_char '\000' |> String.concat ""
  in
  let stamped = Filename.concat dir (Printf.sprintf "BENCH_%s.json" stamp) in
  let latest = Filename.concat dir "BENCH_latest.json" in
  let text = Json.to_string (to_json report) ^ "\n" in
  match
    mkdir_p dir;
    List.iter
      (fun path -> Out_channel.with_open_bin path (fun oc ->
           Out_channel.output_string oc text))
      [ stamped; latest ]
  with
  | () -> Ok (stamped, latest)
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, _, arg) ->
      Error (Printf.sprintf "%s: %s" arg (Unix.error_message e))

(* ---- rendering ---- *)

let value_to_string = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%.2f" f
  | Secs s -> Printf.sprintf "%.3fs" s
  | Pct p -> Printf.sprintf "%.1f%%" p
  | Str s -> s

(* Cells are looked up by column name so a row may omit columns (the
   renderer shows "-") and cell order never matters. *)
let table_matrix (s : section) =
  match s.columns with
  | [] -> []
  | label_col :: cols ->
      (label_col :: cols)
      :: List.map
           (fun r ->
             r.label
             :: List.map
                  (fun c ->
                    match List.assoc_opt c r.cells with
                    | Some v -> value_to_string v
                    | None -> "-")
                  cols)
           s.rows

let pp_section fmt s =
  Format.fprintf fmt "@[<v>== %s ==@," s.title;
  (match table_matrix s with
  | [] -> ()
  | header :: _ as matrix ->
      let widths =
        List.mapi
          (fun i _ ->
            List.fold_left
              (fun w row -> max w (String.length (List.nth row i)))
              0 matrix)
          header
      in
      List.iteri
        (fun ri row ->
          let line =
            List.mapi
              (fun i cell ->
                let w = List.nth widths i in
                if i = 0 then Printf.sprintf "%-*s" w cell
                else Printf.sprintf "%*s" w cell)
              row
            |> String.concat "  "
          in
          Format.fprintf fmt "%s@," line;
          if ri = 0 then
            Format.fprintf fmt "%s@,"
              (String.concat "--"
                 (List.map (fun w -> String.make w '-') widths)))
        matrix);
  List.iter (fun n -> Format.fprintf fmt "note: %s@," n) s.notes;
  Format.fprintf fmt "[%s] wall %.1fs, %.1f MB allocated@]" s.name s.wall
    (s.alloc_bytes /. 1048576.0)

let md_escape s =
  String.concat "\\|" (String.split_on_char '|' s)

let section_markdown s =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "### %s\n\n" s.title);
  Buffer.add_string b
    (Printf.sprintf
       "*Generated from `BENCH_latest.json`; reproduce with `%s`.*\n\n"
       s.command);
  (match table_matrix s with
  | [] -> ()
  | header :: body ->
      let line row =
        Buffer.add_string b
          ("| " ^ String.concat " | " (List.map md_escape row) ^ " |\n")
      in
      line header;
      Buffer.add_string b
        ("|" ^ String.concat "|" (List.map (fun _ -> "---") header) ^ "|\n");
      List.iter line body);
  if s.notes <> [] then begin
    Buffer.add_char b '\n';
    List.iter (fun n -> Buffer.add_string b (Printf.sprintf "- %s\n" n)) s.notes
  end;
  Buffer.contents b

let markdown r =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "<!-- Tables below are generated: bench run of %s%s (bench_schema %d).\n\
       \     Do not edit by hand; rerun the bench and `bench --render-md`. -->\n\n"
       r.created
       (if r.quick then ", quick mode" else "")
       r.schema);
  List.iter
    (fun s ->
      Buffer.add_string b (section_markdown s);
      Buffer.add_char b '\n')
    r.sections;
  Buffer.contents b

(* ---- baseline diffing ---- *)

type delta = {
  d_section : string;
  d_run : string;
  metric : string;
  base : float option;
  current : float option;
}

type verdict = { changed : delta list; missing : string list }

(* Every gated cell of a run, in a fixed order, so two runs' cells
   pair up by position. *)
let cells (r : run) =
  let count name v = (name, Option.map float_of_int v) in
  [
    count "luts" r.luts;
    count "clbs" r.clbs;
    count "depth" r.depth;
    count "bdd_nodes" r.bdd_nodes;
    ("alloc_bytes", Some r.alloc_bytes);
  ]
  @ List.map
      (fun name -> count ("stats." ^ name) (Some (Stats.counter r.stats name)))
      Stats.counter_names

let diff ~base ~current =
  let changed = ref [] in
  let missing = ref [] in
  let run_key (r : run) =
    if r.algorithm = "" then r.name else r.name ^ "/" ^ r.algorithm
  in
  List.iter
    (fun bsec ->
      match List.find_opt (fun s -> s.name = bsec.name) current.sections with
      | None -> missing := Printf.sprintf "section %s" bsec.name :: !missing
      | Some csec ->
          List.iter
            (fun (brun : run) ->
              match
                List.find_opt
                  (fun (r : run) ->
                    r.name = brun.name && r.algorithm = brun.algorithm)
                  csec.runs
              with
              | None ->
                  missing :=
                    Printf.sprintf "run %s/%s" bsec.name (run_key brun)
                    :: !missing
              | Some crun when brun.stable && crun.stable ->
                  List.iter2
                    (fun (metric, b) (_, c) ->
                      if b <> c then
                        changed :=
                          {
                            d_section = bsec.name;
                            d_run = run_key brun;
                            metric;
                            base = b;
                            current = c;
                          }
                          :: !changed)
                    (cells brun) (cells crun)
              | Some _ -> ())
            bsec.runs)
    base.sections;
  { changed = List.rev !changed; missing = List.rev !missing }

let verdict_ok v = v.changed = [] && v.missing = []

let pp_cell fmt = function
  | None -> Format.fprintf fmt "-"
  | Some x -> Format.fprintf fmt "%.17g" x

let pp_verdict fmt v =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun d ->
      Format.fprintf fmt "CHANGED  %s %s %s: %a -> %a@," d.d_section d.d_run
        d.metric pp_cell d.base pp_cell d.current)
    v.changed;
  List.iter (fun m -> Format.fprintf fmt "MISSING  %s@," m) v.missing;
  if verdict_ok v then
    Format.fprintf fmt "OK: every deterministic cell equals the baseline"
  else
    Format.fprintf fmt "FAIL: %d changed cell(s), %d missing"
      (List.length v.changed) (List.length v.missing);
  Format.fprintf fmt "@]"
