exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

(* Logical lines: strip comments, join '\'-continuations, drop blanks.
   Returns (line_number, tokens). *)
let logical_lines text =
  let raw = String.split_on_char '\n' text in
  let rec go lineno pending pending_line acc = function
    | [] ->
        let acc = if pending = "" then acc else (pending_line, pending) :: acc in
        List.rev acc
    | line :: rest ->
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let line = String.trim line in
        let continued =
          String.length line > 0 && line.[String.length line - 1] = '\\'
        in
        let body =
          if continued then String.sub line 0 (String.length line - 1) else line
        in
        let joined = if pending = "" then body else pending ^ " " ^ body in
        let start = if pending = "" then lineno else pending_line in
        if continued then go (lineno + 1) joined start acc rest
        else if String.trim joined = "" then go (lineno + 1) "" 0 acc rest
        else go (lineno + 1) "" 0 ((start, joined) :: acc) rest
  in
  go 1 "" 0 [] raw
  |> List.map (fun (ln, s) ->
         ( ln,
           String.split_on_char ' ' s
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun t -> t <> "") ))
  |> List.filter (fun (_, toks) -> toks <> [])

type names_block = {
  nb_line : int;
  nb_inputs : string list;
  nb_output : string;
  nb_cubes : (string * char) list; (* input plane, output value *)
}

let parse text =
  let lines = logical_lines text in
  let inputs = ref [] and outputs = ref [] in
  let blocks = ref [] in
  let rec scan = function
    | [] -> ()
    | (ln, tokens) :: rest -> (
        match tokens with
        | ".model" :: _ -> scan rest
        | ".inputs" :: names ->
            inputs := !inputs @ List.map (fun n -> (ln, n)) names;
            scan rest
        | ".outputs" :: names ->
            outputs := !outputs @ List.map (fun n -> (ln, n)) names;
            scan rest
        | [ ".end" ] -> ()
        | ".names" :: signals -> (
            match List.rev signals with
            | [] -> fail ln ".names without signals"
            | out :: rev_ins ->
                let nb_inputs = List.rev rev_ins in
                let cubes, rest' = collect_cubes ln (List.length nb_inputs) rest in
                blocks :=
                  { nb_line = ln; nb_inputs; nb_output = out; nb_cubes = cubes }
                  :: !blocks;
                scan rest')
        | directive :: _ when String.length directive > 0 && directive.[0] = '.'
          ->
            fail ln (Printf.sprintf "unsupported directive %s" directive)
        | _ -> fail ln "cube line outside a .names block")
  and collect_cubes ln arity lines =
    match lines with
    | (cl, tokens) :: rest
      when (match tokens with t :: _ -> t.[0] <> '.' | [] -> false) -> (
        match (tokens, arity) with
        | [ out ], 0 when String.length out = 1 ->
            let cubes, rest' = collect_cubes ln arity rest in
            (("", out.[0]) :: cubes, rest')
        | [ plane; out ], _ when String.length out = 1 ->
            if String.length plane <> arity then
              fail cl "cube arity does not match .names";
            (* Validate here, with the line at hand — [Cover.cube_of_string]
               only runs at resolution time, far from any line number. *)
            String.iter
              (function
                | '0' | '1' | '-' | '2' -> ()
                | c -> fail cl (Printf.sprintf "bad cube char %C" c))
              plane;
            let cubes, rest' = collect_cubes ln arity rest in
            ((plane, out.[0]) :: cubes, rest')
        | _ -> fail cl "malformed cube")
    | rest -> ([], rest)
  in
  scan lines;
  let blocks = List.rev !blocks in
  (* Instantiate on demand: .names blocks may appear in any order. *)
  let net = Network.create () in
  let by_output = Hashtbl.create 16 in
  List.iter
    (fun b ->
      (match Hashtbl.find_opt by_output b.nb_output with
      | Some prev ->
          fail b.nb_line
            (Printf.sprintf "duplicate .names block for %s (first at line %d)"
               b.nb_output prev.nb_line)
      | None -> ());
      Hashtbl.replace by_output b.nb_output b)
    blocks;
  let resolved : (string, Network.signal) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (ln, name) ->
      if Hashtbl.mem resolved name then
        fail ln (Printf.sprintf "duplicate input %s" name);
      (match Hashtbl.find_opt by_output name with
      | Some b ->
          fail b.nb_line (Printf.sprintf ".names redefines input %s" name)
      | None -> ());
      Hashtbl.replace resolved name (Network.add_input net name))
    !inputs;
  let rec resolve stack name =
    match Hashtbl.find_opt resolved name with
    | Some s -> s
    | None ->
        if List.mem name stack then
          fail 0 (Printf.sprintf "combinational cycle through %s" name);
        let b =
          match Hashtbl.find_opt by_output name with
          | Some b -> b
          | None -> fail 0 (Printf.sprintf "undefined signal %s" name)
        in
        let fanins = List.map (resolve (name :: stack)) b.nb_inputs in
        let arity = List.length fanins in
        (* A .names body lists either on-set cubes (phase '1') or off-set
           cubes (phase '0'); mixed phases are rejected, as in SIS. *)
        let phases = List.sort_uniq compare (List.map snd b.nb_cubes) in
        let s =
          match phases with
          | [] -> Network.const net false
          | [ ('1' | '0') as phase ] ->
              (* Each row once, as care and value masks (character [k]
                 is variable [k]); the table is the union of the rows'
                 cubes, complemented for an off-set body. *)
              let masks (plane, _) =
                let care = ref 0 and value = ref 0 in
                String.iteri
                  (fun k c ->
                    match c with
                    | '0' -> care := !care lor (1 lsl k)
                    | '1' ->
                        care := !care lor (1 lsl k);
                        value := !value lor (1 lsl k)
                    | _ -> ())
                  plane;
                (!care, !value)
              in
              let hits = Bv.of_cubes arity (List.map masks b.nb_cubes) in
              let tt = if phase = '1' then hits else Bv.not_ hits in
              Network.add_lut net ~fanins ~tt
          | _ -> fail b.nb_line "mixed or invalid output phases in .names"
        in
        Hashtbl.replace resolved name s;
        s
  in
  let seen_out = Hashtbl.create 16 in
  List.iter
    (fun (ln, name) ->
      if Hashtbl.mem seen_out name then
        fail ln (Printf.sprintf "duplicate output %s" name);
      Hashtbl.add seen_out name ();
      Network.set_output net name (resolve [] name))
    !outputs;
  net

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse text

let print ?(model = "network") net =
  let buf = Buffer.create 1024 in
  let man = Bdd.manager () in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" model);
  let add_names prefix names =
    Buffer.add_string buf prefix;
    List.iter
      (fun n ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf n)
      names;
    Buffer.add_char buf '\n'
  in
  add_names ".inputs" (List.map fst (Network.inputs net));
  add_names ".outputs" (List.map fst (Network.outputs net));
  (* Give every needed signal a name.  Output names claim their driver
     when possible; clashes get a buffer .names at the end. *)
  let names = Hashtbl.create 64 in
  List.iter (fun (n, s) -> Hashtbl.replace names s n) (Network.inputs net);
  List.iter
    (fun (n, s) -> if not (Hashtbl.mem names s) then Hashtbl.replace names s n)
    (Network.outputs net);
  let name_of s =
    match Hashtbl.find_opt names s with
    | Some n -> n
    | None ->
        let n = Printf.sprintf "n%d" (Network.signal_id s) in
        Hashtbl.replace names s n;
        n
  in
  let visited = Hashtbl.create 64 in
  let rec emit s =
    if not (Hashtbl.mem visited s) then begin
      Hashtbl.add visited s ();
      List.iter emit (Network.fanins net s);
      match (Network.local_tt net s, Network.const_value net s) with
      | None, None -> () (* primary input *)
      | None, Some b ->
          add_names ".names" [ name_of s ];
          if b then Buffer.add_string buf "1\n"
      | Some tt, _ ->
          let fanins = Network.fanins net s in
          let arity = List.length fanins in
          let f = Bv.to_bdd man tt in
          let cubes = Minimize.cover_of_bdd man ~ninputs:arity ~on:f () in
          add_names ".names" (List.map name_of fanins @ [ name_of s ]);
          List.iter
            (fun c ->
              Buffer.add_string buf (Cover.string_of_cube c);
              Buffer.add_string buf " 1\n")
            cubes
    end
  in
  List.iter (fun (_, s) -> emit s) (Network.outputs net);
  (* Buffers for outputs whose driver is named differently (an input, or
     a signal already claimed by another output). *)
  List.iter
    (fun (oname, s) ->
      let n = name_of s in
      if n <> oname then begin
        add_names ".names" [ n; oname ];
        Buffer.add_string buf "1 1\n"
      end)
    (Network.outputs net);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let write_file ?model path net =
  let oc = open_out path in
  output_string oc (print ?model net);
  close_out oc
