(** Advanced SAT-based diagnosis heuristics (§2.3, after Smith et al.).

    Three techniques on top of BSAT, none of which changes the reported
    solutions being valid corrections:

    - [force_zero] clauses (s=0 ⇒ c=0), available directly through
      {!Bsat.diagnose};
    - two-pass dominator diagnosis: multiplexers first only at the
      dominator skeleton (gates that dominate others, plus outputs), then
      refinement with multiplexers inside the implicated dominated
      regions;
    - test-set partitioning: enumerate on a slice of the tests, keep the
      candidates, refine with the next slice, and finally validate
      against the complete test set.

    The two-pass and partitioned variants are sound (every returned set
    is a valid correction, SAT-checked against all tests) but — as in the
    original tool — the refinement is heuristic, so rare corrections
    outside the implicated regions can be missed. *)

include module type of struct include Enumeration.Outcome end

type refinement = {
  pass1_solutions : int list list;  (** coarse (dominator / first-slice) *)
}

type result = refinement outcome
(** The passes combined: [solutions] and [stats] come from the final
    pass; [solver_calls], [cert_checks], [cert_failures] and [cnf_time]
    are summed over all passes; [truncated] is set when any pass hit its
    budget or cap (the reported solutions are still individually valid);
    [all_time] covers the whole run.  The refined solutions are settled
    only when the run ends, so [one_time] equals [all_time] when a
    solution was found and is [0.0] otherwise. *)

val diagnose_dominators :
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  ?obs:Obs.t ->
  ?certify:bool ->
  ?jobs:int ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  result
(** [budget] is shared across both passes: the refinement pass only gets
    whatever allowance the skeleton pass left over.  [obs] records the
    run under ["advsat/dominators/..."] and brackets the passes with
    ["advsat/pass1"]/["advsat/pass2"] [Begin]/[End] events ([End]
    payload = pass solution count).  [certify] verifies every underlying
    solver answer ({!Bsat.diagnose}).  [jobs] runs every underlying BSAT
    enumeration as a solver portfolio ({!Bsat.diagnose}). *)

val diagnose_partitioned :
  ?slice:int ->
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  ?obs:Obs.t ->
  ?certify:bool ->
  ?jobs:int ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  result
(** [slice] — number of tests per partition (default 8).  [budget] is
    shared across all slices; [obs] records the run under
    ["advsat/partitioned/..."] with one ["advsat/slice"] [Begin]/[End]
    event pair per solved slice. *)
