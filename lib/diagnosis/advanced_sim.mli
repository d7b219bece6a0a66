(** Advanced simulation-based diagnosis (§2.2, in the spirit of
    ErrorTracer / Veneris-Hajj / incremental fault diagnosis).

    A backtrack search over the PT-marked gates, ordered by mark count
    M(g), with *simulation-based effect analysis* at every node: a partial
    candidate set is extended only towards tests it cannot yet rectify,
    and a set is reported once per-test resimulation proves it a valid
    correction.  Reported solutions are therefore always valid; like the
    published advanced simulation approaches the search is restricted to
    marked gates, so some corrections BSAT finds may be missed
    (Theorem 2's direction). *)

type result = {
  bsim : Bsim.result;
  solutions : int list list;  (** valid corrections, sorted, essential *)
  sim_time : float;
  search_time : float;
  truncated : bool;
}

val diagnose :
  ?tie_break:Path_trace.tie_break ->
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  result
(** [budget] is checked between search nodes (the engine makes no
    solver call): once it is exhausted, or [max_solutions] solutions
    are recorded, the search stops with [truncated = true] and the
    solutions found so far, each still a valid essential correction. *)
