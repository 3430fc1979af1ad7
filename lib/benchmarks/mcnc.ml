type entry = {
  name : string;
  ninputs : int;
  noutputs : int;
  exact : bool;
  note : string;
  build : Bdd.manager -> Driver.spec;
}

let standin name ~ninputs ~noutputs ?(window = 10) ?(gates_per_output = 8) ~seed note =
  {
    name;
    ninputs;
    noutputs;
    exact = false;
    note;
    build =
      (fun m ->
        let net =
          Randnet.cones ~ninputs ~noutputs ~window ~gates_per_output ~seed ()
        in
        Randnet.spec_of_network m net);
  }

let exact name ~ninputs ~noutputs note build =
  { name; ninputs; noutputs; exact = true; note; build }

(* Deterministic arithmetic stand-in: the real circuit's function is not
   public, but the substitute is a meaningful arithmetic function with
   the published input/output counts (better than random cones). *)
let arith_standin name ~ninputs ~noutputs note build =
  { name; ninputs; noutputs; exact = false; note; build }

let catalogue =
  [
    arith_standin "5xp1" ~ninputs:7 ~noutputs:10 "arithmetic stand-in: 5*v + v/8"
      Arith.x5p1;
    exact "9sym" ~ninputs:9 ~noutputs:1 "weight in [3,6] (exact)" Arith.sym9;
    arith_standin "alu2" ~ninputs:10 ~noutputs:6
      "ALU stand-in: add/sub/and/xor with flags" Arith.alu2;
    standin "apex7" ~ninputs:49 ~noutputs:37 ~seed:107 ~window:12
      ~gates_per_output:25 "seeded cones";
    standin "b9" ~ninputs:41 ~noutputs:21 ~seed:211 ~window:11
      ~gates_per_output:18 "seeded cones";
    arith_standin "C499" ~ninputs:41 ~noutputs:32
      "ECC stand-in: group-parity error handling" Arith.c499;
    standin "C880" ~ninputs:60 ~noutputs:26 ~seed:880 ~window:13
      ~gates_per_output:30 "seeded cones";
    arith_standin "clip" ~ninputs:9 ~noutputs:5 "signed saturation to 5 bits"
      Arith.clip;
    arith_standin "count" ~ninputs:35 ~noutputs:16
      "16-bit conditional increment/load/clear" Arith.count;
    standin "duke2" ~ninputs:22 ~noutputs:29 ~seed:229 ~window:12
      ~gates_per_output:30 "seeded cones";
    standin "e64" ~ninputs:65 ~noutputs:65 ~seed:640 ~window:8
      ~gates_per_output:10 "seeded cones";
    arith_standin "f51m" ~ninputs:8 ~noutputs:8 "arithmetic stand-in: a*b + a"
      Arith.f51m;
    standin "misex1" ~ninputs:8 ~noutputs:7 ~seed:81 ~window:8
      ~gates_per_output:12 "seeded cones";
    standin "misex2" ~ninputs:25 ~noutputs:18 ~seed:82 ~window:10
      ~gates_per_output:14 "seeded cones";
    exact "rd73" ~ninputs:7 ~noutputs:3 "weight bits (exact)"
      (fun m -> Arith.rd m ~inputs:7);
    exact "rd84" ~ninputs:8 ~noutputs:4 "weight bits (exact)"
      (fun m -> Arith.rd m ~inputs:8);
    standin "rot" ~ninputs:135 ~noutputs:107 ~seed:135 ~window:11
      ~gates_per_output:20 "seeded cones";
    standin "sao2" ~ninputs:10 ~noutputs:4 ~seed:104 ~window:10
      ~gates_per_output:20 "seeded cones";
    standin "vg2" ~ninputs:25 ~noutputs:8 ~seed:258 ~window:12
      ~gates_per_output:22 "seeded cones";
    exact "z4ml" ~ninputs:7 ~noutputs:4 "3+3+carry adder (exact)" Arith.z4ml;
  ]

let find name = List.find (fun e -> e.name = name) catalogue
