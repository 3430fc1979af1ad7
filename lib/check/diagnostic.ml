type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type t = {
  code : string;
  severity : severity;
  loc : string option;
  message : string;
}

let catalogue =
  [
    ("NET001", Error, "LUT fanin references a signal outside the network");
    ("NET002", Error, "truth-table arity differs from the fanin count");
    ("NET003", Error, "fanin does not precede its LUT (cycle or order violation)");
    ("NET004", Error, "output is bound to a signal outside the network");
    ("NET005", Error, "LUT fanin count exceeds the configured LUT size");
    ("NET006", Warning, "dead LUT: not reachable from any output (sweep removes it)");
    ("NET007", Warning, "structurally duplicate LUTs (same fanins and table)");
    ("NET008", Info, "degenerate LUT: constant table or single-input buffer");
    ("NET009", Error, "duplicate primary-input name");
    ("NET010", Error, "duplicate primary-output name");
    ("DEC001", Error, "ill-formed ISF: on-set and don't-care set intersect");
    ("DEC002", Error, "don't-care phase result does not refine its input ISF");
    ("DEC003", Error, "committed symmetry group is not actually symmetric");
    ("DEC004", Error, "improper clique cover: incompatible classes merged");
    ("DEC005", Error, "class encoding is not injective on class representatives");
    ("DEC006", Error, "decomposition-function count differs from ceil(log2 ncc)");
    ("DEC007", Error, "committed step is not equivalent to its spec under the care set");
    ("DEC008", Error, "emitted LUT table does not realize its ISF");
    ("PLA001", Warning, "PLA cube asserts an output both on and off");
    ("PLA002", Error, "duplicate signal name in .ilb/.ob");
    ("SEM001", Warning, "unreachable LUT entry: no input vector exercises the table row (SDC)");
    ("SEM002", Warning, "functionally dead node: complementing it never changes a cared-for output (ODC)");
    ("SEM003", Warning, "node is functionally constant on the care set");
    ("SEM004", Warning, "functional duplicate of another LUT up to fanin permutation/complement");
    ("SEM005", Warning, "two primary outputs compute the same function on the care set");
    ("SEM006", Info, "unexploited don't care: free table bits fixed inconsistently with a mergeable twin");
    ("SEM007", Error, "networks differ inside the care set (care-set-aware inequivalence)");
    ("SEM008", Info, "semantic analysis truncated by the resource budget; findings are partial");
    ("SUP001", Warning, "LUT truth table provably ignores a fanin (redundant fanin)");
    ("SUP002", Info, "fanin support contained in the other fanins' (reconvergent; pruning candidate)");
  ]

(* Bump whenever the catalogue gains, loses or reclassifies a code, so
   machine consumers of the JSON report can detect a vocabulary skew.
   1 = the NET/DEC/PLA families, 2 = + the SEM semantic family,
   3 = + the SUP support/redundancy family (dataflow screening tier). *)
let catalogue_version = "3"

let family code =
  let n = String.length code in
  let i = ref 0 in
  while !i < n && not (code.[!i] >= '0' && code.[!i] <= '9') do incr i done;
  String.sub code 0 !i

(* Families in first-appearance catalogue order, codes in catalogue
   order within each — the [--codes] rendering backbone. *)
let families =
  List.rev
    (List.fold_left
       (fun acc ((code, _, _) as entry) ->
         let fam = family code in
         match acc with
         | (f, entries) :: rest when f = fam ->
             (f, entries @ [ entry ]) :: rest
         | _ -> (fam, [ entry ]) :: acc)
       [] catalogue)

let severity_of_code code =
  List.find_map
    (fun (c, s, _) -> if c = code then Some s else None)
    catalogue

let make ?loc code message =
  match severity_of_code code with
  | Some severity -> { code; severity; loc; message }
  | None -> invalid_arg (Printf.sprintf "Diagnostic.make: unknown code %s" code)

let count sev fs = List.length (List.filter (fun f -> f.severity = sev) fs)
let errors fs = List.filter (fun f -> f.severity = Error) fs

let max_severity fs =
  List.fold_left
    (fun acc f ->
      match (acc, f.severity) with
      | Some Error, _ | _, Error -> Some Error
      | Some Warning, _ | _, Warning -> Some Warning
      | _ -> Some Info)
    None fs

let exit_code fs =
  match max_severity fs with
  | Some Error -> 1
  | Some Warning -> 2
  | Some Info | None -> 0

(* Deterministic rendering order: stable sort by (location, code), so
   two runs over the same input byte-compare equal regardless of the
   order in which independent passes fired.  Stability keeps same-key
   findings (e.g. two NET001s on one LUT) in firing order. *)
let normalize fs =
  let key f = ((match f.loc with Some l -> l | None -> ""), f.code) in
  List.stable_sort (fun a b -> compare (key a) (key b)) fs

let pp fmt f =
  Format.fprintf fmt "%s[%s]%s: %s" (severity_name f.severity) f.code
    (match f.loc with Some l -> " " ^ l | None -> "")
    f.message

let pp_list fmt = function
  | [] -> Format.fprintf fmt "clean: no findings"
  | fs ->
      let fs = normalize fs in
      Format.fprintf fmt "@[<v>";
      List.iter (fun f -> Format.fprintf fmt "%a@," pp f) fs;
      Format.fprintf fmt "%d error(s), %d warning(s), %d info@]"
        (count Error fs) (count Warning fs) (count Info fs)

let finding_json f =
  Json.Obj
    [
      ("code", Json.Str f.code);
      ("severity", Json.Str (severity_name f.severity));
      ("loc", match f.loc with Some l -> Json.Str l | None -> Json.Null);
      ("message", Json.Str f.message);
    ]

let json ?(extra = []) fs =
  Json.Obj
    (("catalogue", Json.Str catalogue_version)
    :: ("findings", Json.Arr (List.map finding_json (normalize fs)))
    :: extra)

let to_json ?extra fs = Json.to_string (json ?extra fs)

type level = Off | Cheap | Full | Deep

let level_name = function
  | Off -> "off"
  | Cheap -> "cheap"
  | Full -> "full"
  | Deep -> "deep"

let level_of_string = function
  | "off" -> Ok Off
  | "cheap" -> Ok Cheap
  | "full" -> Ok Full
  | "deep" -> Ok Deep
  | s -> Error (Printf.sprintf "unknown check level %S (off|cheap|full|deep)" s)

let rank = function Off -> 0 | Cheap -> 1 | Full -> 2 | Deep -> 3
let at_least level threshold = rank level >= rank threshold
