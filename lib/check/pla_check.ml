let analyze m (pla : Pla.t) =
  let findings = ref [] in
  let add ?loc code msg = findings := Diagnostic.make ?loc code msg :: !findings in
  let report_duplicates kind names =
    let seen = Hashtbl.create 16 in
    List.iter
      (fun name ->
        if Hashtbl.mem seen name then
          add ~loc:name "PLA002" (Printf.sprintf "%s %s declared twice" kind name)
        else Hashtbl.add seen name ())
      names
  in
  report_duplicates ".ilb name" pla.Pla.input_names;
  report_duplicates ".ob name" pla.Pla.output_names;
  (match pla.Pla.kind with
  | `F | `Fd -> ()
  | `Fr | `Fdr ->
      List.iteri
        (fun k name ->
          let plane tag =
            pla.Pla.rows
            |> List.filter_map (fun (cube, out) ->
                   if out.(k) = tag then
                     Some (Cover.cube_to_bdd m (fun c -> c) cube)
                   else None)
            |> Bdd.or_list m
          in
          if not (Bdd.disjoint m (plane '1') (plane '0')) then
            add ~loc:name "PLA001"
              "on-rows and off-rows overlap (reader keeps the on-set)")
        pla.Pla.output_names);
  List.rev !findings
