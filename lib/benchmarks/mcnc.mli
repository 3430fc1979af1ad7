(** The benchmark suite of the paper's Tables 1 and 2: the 20 MCNC /
    ISCAS circuits, with exact functional definitions where public and
    documented stand-ins otherwise (DESIGN.md section 4). *)

type entry = {
  name : string;
  ninputs : int;
  noutputs : int;
  exact : bool;
      (** true = the real published function; false = a seeded stand-in
          with the published input/output counts *)
  note : string;
  build : Bdd.manager -> Driver.spec;
}

val catalogue : entry list
(** In the row order of Table 1. *)

val find : string -> entry
(** @raise Not_found for unknown names. *)
