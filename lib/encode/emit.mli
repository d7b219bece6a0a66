(** Clause sink abstraction: encodings can target either an incremental
    {!Sat.Solver.t} (the normal path) or a {!Sat.Cnf.t} (for DIMACS export
    and for oracle checks in tests). *)

type t = {
  fresh : unit -> int;             (** allocate a new variable *)
  clause : Sat.Lit.t list -> unit; (** add a clause *)
}

val of_solver : Sat.Solver.t -> t
val of_cnf : Sat.Cnf.t -> t

val tee : t -> Sat.Cnf.t -> t
(** Mirror every clause (and variable allocation) of a sink into a CNF —
    used to export an incremental instance as DIMACS. *)

val checked : Sat.Certify.t option -> t -> t
(** With a certifier, every clause reaches its checker
    ({!Sat.Certify.add_clause}) before the sink; without one, the sink
    itself. *)
