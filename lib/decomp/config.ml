type dc_steps = { symmetry : bool; sharing : bool; cms : bool }

type t = {
  lut_size : int;
  objective : Cost.objective;
  dc_steps : dc_steps;
  zero_dc_on_entry : bool;
  seeds : int;
  symmetry_budget : int;
  exact_coloring_limit : int;
}

let mulop_dc =
  {
    lut_size = 5;
    objective = Cost.Area;
    dc_steps = { symmetry = true; sharing = true; cms = true };
    zero_dc_on_entry = false;
    seeds = 4;
    symmetry_budget = 2000;
    exact_coloring_limit = 50_000;
  }

let default = mulop_dc

let mulop_ii =
  {
    mulop_dc with
    dc_steps = { symmetry = false; sharing = false; cms = false };
    zero_dc_on_entry = true;
  }

let with_lut_size lut_size t = { t with lut_size }
let with_objective objective t = { t with objective }
