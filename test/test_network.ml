(* Tests for the LUT-network substrate and the BLIF/PLA formats. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A one-bit full adder as a 2-input gate network. *)
let full_adder () =
  let net = Network.create () in
  let a = Network.add_input net "a" in
  let b = Network.add_input net "b" in
  let cin = Network.add_input net "cin" in
  let ab = Network.xor_gate net a b in
  let sum = Network.xor_gate net ab cin in
  let carry =
    Network.or_gate net (Network.and_gate net a b) (Network.and_gate net ab cin)
  in
  Network.set_output net "sum" sum;
  Network.set_output net "cout" carry;
  net

let network_tests =
  [
    Alcotest.test_case "full adder evaluates correctly" `Quick (fun () ->
        let net = full_adder () in
        for i = 0 to 7 do
          let assignment name =
            match name with
            | "a" -> i land 1 = 1
            | "b" -> i land 2 = 2
            | "cin" -> i land 4 = 4
            | _ -> assert false
          in
          let out = Network.eval net assignment in
          let total = (i land 1) + ((i lsr 1) land 1) + ((i lsr 2) land 1) in
          check_bool "sum" (total land 1 = 1) (List.assoc "sum" out);
          check_bool "cout" (total >= 2) (List.assoc "cout" out)
        done);
    Alcotest.test_case "stats of the full adder" `Quick (fun () ->
        let s = Network.stats (full_adder ()) in
        check_int "inputs" 3 s.input_count;
        check_int "outputs" 2 s.output_count;
        check_int "luts" 5 s.lut_count;
        check_int "2-input gates" 5 s.two_input_gates;
        check_int "depth" 3 s.depth);
    Alcotest.test_case "structural hashing shares gates" `Quick (fun () ->
        let net = Network.create () in
        let a = Network.add_input net "a" in
        let b = Network.add_input net "b" in
        let g1 = Network.and_gate net a b in
        let g2 = Network.and_gate net a b in
        check_bool "shared" true (Network.signal_equal g1 g2));
    Alcotest.test_case "add_lut simplifications" `Quick (fun () ->
        let net = Network.create () in
        let a = Network.add_input net "a" in
        let b = Network.add_input net "b" in
        (* table ignores b -> collapses to a buffer on a *)
        let tt = Bv.of_fun 2 (fun i -> i land 1 = 1) in
        let s = Network.add_lut net ~fanins:[ a; b ] ~tt in
        check_bool "projection collapses" true (Network.signal_equal s a);
        (* constant fanin folded *)
        let one = Network.const net true in
        let s2 =
          Network.add_lut net ~fanins:[ a; one ]
            ~tt:(Bv.of_fun 2 (fun i -> i = 3))
        in
        check_bool "and with 1 is identity" true (Network.signal_equal s2 a);
        (* constant table *)
        let s3 = Network.add_lut net ~fanins:[ a ] ~tt:(Bv.create 1 true) in
        check_bool "const table" true
          (Network.const_value net s3 = Some true));
    Alcotest.test_case "output_bdds match eval" `Quick (fun () ->
        let net = full_adder () in
        let m = Bdd.manager () in
        let var_of_input = function
          | "a" -> 0
          | "b" -> 1
          | "cin" -> 2
          | _ -> assert false
        in
        let bdds = Network.output_bdds net m ~var_of_input in
        for i = 0 to 7 do
          let assignment v = (i lsr v) land 1 = 1 in
          let by_name name =
            match name with
            | "a" -> assignment 0
            | "b" -> assignment 1
            | "cin" -> assignment 2
            | _ -> assert false
          in
          let out = Network.eval net by_name in
          List.iter
            (fun (name, f) ->
              check_bool name (List.assoc name out) (Bdd.eval f assignment))
            bdds
        done);
    Alcotest.test_case "equivalence of two adder implementations" `Quick
      (fun () ->
        let net2 = Network.create () in
        let a = Network.add_input net2 "a" in
        let b = Network.add_input net2 "b" in
        let cin = Network.add_input net2 "cin" in
        (* majority + parity via different structure *)
        let sum =
          Network.xor_gate net2 a (Network.xor_gate net2 b cin)
        in
        let maj =
          Network.or_gate net2
            (Network.and_gate net2 a (Network.or_gate net2 b cin))
            (Network.and_gate net2 b cin)
        in
        Network.set_output net2 "sum" sum;
        Network.set_output net2 "cout" maj;
        check_bool "equivalent" true (Network.equivalent (full_adder ()) net2));
    Alcotest.test_case "sweep drops dead logic" `Quick (fun () ->
        let net = Network.create () in
        let a = Network.add_input net "a" in
        let b = Network.add_input net "b" in
        let keep = Network.and_gate net a b in
        let _dead = Network.xor_gate net keep b in
        Network.set_output net "f" keep;
        let swept = Network.sweep net in
        check_int "one lut" 1 (Network.stats swept).Network.lut_count;
        check_bool "still equivalent" true (Network.equivalent net swept));
    Alcotest.test_case "mux_gate semantics" `Quick (fun () ->
        let net = Network.create () in
        let s = Network.add_input net "s" in
        let h = Network.add_input net "h" in
        let l = Network.add_input net "l" in
        Network.set_output net "f" (Network.mux_gate net ~sel:s ~hi:h ~lo:l);
        let out sel hi lo =
          List.assoc "f"
            (Network.eval net (function
              | "s" -> sel
              | "h" -> hi
              | "l" -> lo
              | _ -> assert false))
        in
        check_bool "sel=1 -> hi" true (out true true false);
        check_bool "sel=0 -> lo" false (out false true false);
        check_bool "sel=0 -> lo(1)" true (out false false true));
  ]

let blif_text =
  {|# a small circuit
.model test
.inputs a b c
.outputs f g
.names a b t
11 1
.names t c f
1- 1
-1 1
.names a g
0 1
.end
|}

let blif_tests =
  [
    Alcotest.test_case "parse a simple model" `Quick (fun () ->
        let net = Blif.parse blif_text in
        let s = Network.stats net in
        check_int "inputs" 3 s.input_count;
        check_int "outputs" 2 s.output_count;
        let out assignment = Network.eval net assignment in
        let v = out (function "a" -> true | "b" -> true | _ -> false) in
        check_bool "f = (a&b)|c" true (List.assoc "f" v);
        check_bool "g = !a" false (List.assoc "g" v));
    Alcotest.test_case "parse rejects latches" `Quick (fun () ->
        check_bool "raises" true
          (match Blif.parse ".model x\n.latch a b\n.end\n" with
          | exception Blif.Parse_error _ -> true
          | _ -> false));
    Alcotest.test_case "off-set phase (0 cubes)" `Quick (fun () ->
        let net =
          Blif.parse ".model x\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n"
        in
        let v b1 b2 =
          List.assoc "f"
            (Network.eval net (function "a" -> b1 | _ -> b2))
        in
        check_bool "nand 11" false (v true true);
        check_bool "nand 01" true (v false true));
    Alcotest.test_case "print/parse roundtrip preserves function" `Quick
      (fun () ->
        let net = full_adder () in
        let text = Blif.print net in
        let net2 = Blif.parse text in
        check_bool "equivalent" true (Network.equivalent net net2));
    Alcotest.test_case "roundtrip with constants and aliases" `Quick (fun () ->
        let net = Network.create () in
        let a = Network.add_input net "a" in
        Network.set_output net "f" (Network.const net true);
        Network.set_output net "g" a;
        Network.set_output net "h" a;
        let net2 = Blif.parse (Blif.print net) in
        check_bool "equivalent" true (Network.equivalent net net2));
  ]

(* A single-[.names] model: inputs [x0 .. x(arity-1)], output [y],
   one line per row. *)
let names_model arity rows =
  let ins = List.init arity (Printf.sprintf "x%d") in
  String.concat "\n"
    ([ ".model m"; ".inputs " ^ String.concat " " ins; ".outputs y";
       ".names " ^ String.concat " " (ins @ [ "y" ]) ]
    @ rows @ [ ".end"; "" ])

(* The table of [y] over [x0 .. x(arity-1)]. *)
let table_of net arity =
  let m = Bdd.manager () in
  let var_of_input name = int_of_string (String.sub name 1 (String.length name - 1)) in
  Bv.of_bdd arity (List.assoc "y" (Network.output_bdds net m ~var_of_input))

let wide_blif_tests =
  [
    Alcotest.test_case "a 14-input parity block parses to the parity table"
      `Quick (fun () ->
        let n = 14 in
        let parity i =
          let rec ones i = if i = 0 then 0 else (i land 1) + ones (i lsr 1) in
          ones i land 1 = 1
        in
        let rows =
          List.filter parity (List.init (1 lsl n) Fun.id)
          |> List.map (fun i ->
                 String.init n (fun k -> if (i lsr k) land 1 = 1 then '1' else '0')
                 ^ " 1")
        in
        check_int "rows" 8192 (List.length rows);
        let net = Blif.parse (names_model n rows) in
        check_bool "parity table" true
          (Bv.equal (Bv.of_fun n parity) (table_of net n)));
    QCheck_alcotest.to_alcotest ~long:false
      (QCheck2.Test.make ~name:".names rows with dashes read as their cubes"
         ~count:300
         QCheck2.Gen.(
           let* arity = int_range 0 10 in
           let* on_phase = bool in
           let+ planes =
             list_size (int_range 0 12)
               (string_size ~gen:(oneofl [ '0'; '1'; '-'; '-'; '2' ])
                  (return arity))
           in
           (arity, on_phase, planes))
         (fun (arity, on_phase, planes) ->
           let out = if on_phase then "1" else "0" in
           let rows =
             List.map (fun p -> if arity = 0 then out else p ^ " " ^ out) planes
           in
           let net = Blif.parse (names_model arity rows) in
           let expected =
             Bv.of_fun arity (fun i ->
                 let hit =
                   List.exists
                     (fun p ->
                       Cover.cube_eval (Cover.cube_of_string p) (fun k ->
                           (i lsr k) land 1 = 1))
                     planes
                 in
                 planes <> [] && hit = on_phase)
           in
           Bv.equal expected (table_of net arity)));
  ]

let pla_text =
  {|.i 3
.o 2
.ilb x0 x1 x2
.ob f0 f1
.type fd
11- 1-
--1 01
000 -0
.e
|}

let pla_tests =
  [
    Alcotest.test_case "parse pla with dc" `Quick (fun () ->
        let pla = Pla.parse pla_text in
        check_int "i" 3 pla.Pla.ninputs;
        check_int "o" 2 pla.Pla.noutputs;
        let m = Bdd.manager () in
        let isfs = Pla.to_isfs m ~var_of_column:(fun k -> k) pla in
        let f0 = List.assoc "f0" isfs in
        (* on(f0) = x0 & x1; dc(f0) = 000 *)
        check_bool "on f0" true
          (Bdd.equal (Isf.on f0)
             (Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1)));
        check_bool "dc f0 contains 000" true
          (Bdd.eval (Isf.dc f0) (fun _ -> false));
        let f1 = List.assoc "f1" isfs in
        check_bool "on f1 = x2" true (Bdd.equal (Isf.on f1) (Bdd.var m 2));
        (* row "11- 1-" makes minterm 110 a don't care of f1 *)
        check_bool "dc f1 at 110" true
          (Bdd.eval (Isf.dc f1) (fun v -> v <> 2));
        check_bool "f1 has dc" false (Isf.is_completely_specified f1));
    Alcotest.test_case "pla print parses back" `Quick (fun () ->
        let pla = Pla.parse pla_text in
        let pla2 = Pla.parse (Pla.print pla) in
        check_int "rows" (List.length pla.Pla.rows) (List.length pla2.Pla.rows));
    Alcotest.test_case "type f has no dc" `Quick (fun () ->
        let pla = Pla.parse ".i 1\n.o 1\n.type f\n1 1\n.e\n" in
        let m = Bdd.manager () in
        let isfs = Pla.to_isfs m ~var_of_column:(fun k -> k) pla in
        check_bool "csf" true (Isf.is_completely_specified (snd (List.hd isfs))));
  ]

let suite = network_tests @ blif_tests @ wide_blif_tests @ pla_tests
