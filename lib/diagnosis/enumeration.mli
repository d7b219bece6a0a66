(** The enumeration kernel of paper Figure 3, and the outcome record
    every enumerating engine reports.

    BSAT's loop — raise the limit i from 1 to k, solve, record the
    solution, block it, stop on the cap or the budget — exists once,
    here, over any instance built on {!Encode.Select}.  {!Bsat}
    (sequentially and per portfolio cube), {!Cover}'s SAT engine (the
    covering instance of Fig. 4, likewise), {!Incremental.solutions},
    {!Seq_diag.diagnose_bsat} and each of {!Hitting}'s node checks run it
    over an instance they built themselves.  The kernel issues exactly
    the solve calls those engines issued when each carried its own copy
    of the loop: the same assumptions ([bound @ extra]), the same
    blocking clauses, in the same order.  {!portfolio} is the one
    run and merge of a cube-partitioned portfolio ({!Bsat}, {!Cover}). *)

module Outcome : sig
  type 'extra outcome = {
    solutions : int list list;
        (** essential valid corrections, each sorted, in canonical
            (cardinality, then lexicographic) order ({!Solutions}) *)
    cnf_time : float;  (** instance construction (paper "CNF"), wall s *)
    one_time : float;  (** time to the first solution (paper "One") *)
    all_time : float;  (** full enumeration time (paper "All") *)
    truncated : bool;
        (** hit [max_solutions] or the budget; the enumerated prefix is
            still sound (every solution valid) *)
    solver_calls : int;  (** SAT oracle invocations *)
    stats : Sat.Solver.stats;  (** solver counters *)
    cert_checks : int;
        (** with [certify]: solver answers independently verified (0
            otherwise) *)
    cert_failures : string list;
        (** with [certify]: verification failures — [[]] on a healthy
            build.  A non-empty list means a solver or checker bug; the
            diagnosis result itself is unchanged. *)
    extra : 'extra;  (** what only this engine reports *)
  }
  (** What one enumeration run reports.  Engines re-export this record
      with [include module type of struct include Outcome end], so its
      fields read as [r.Bsat.solutions], [r.Hitting.truncated], … *)
end

type strategy =
  | Incremental_k
      (** Figure 3 verbatim: limits 1..k, blocking at each level. *)
  | Minimize_single_pass
      (** One pass at limit k; each model's select set is shrunk to an
          essential subset inside the same instance before being blocked:
          candidates outside the set are pinned off and members dropped
          one at a time while the instance stays satisfiable.  The same
          solution set with fewer solver calls when solutions are
          sparse. *)

type run = {
  found : int list list;  (** discovery order *)
  calls : int;  (** solver calls, shrink steps included *)
  cut : bool;  (** stopped by the cap or the budget *)
  completed : int;
      (** deepest limit enumerated to [Unsat] in {e every} cube (0 when
          none was) — the portfolio's merge fence *)
  first_at : float option;
      (** {!Obs.Clock.wall} instant of the first recorded solution *)
}

val enumerate :
  ?strategy:strategy ->
  ?cubes:Sat.Lit.t list list ->
  ?guard:Sat.Lit.t ->
  ?found:int Atomic.t ->
  ?max_solutions:int ->
  budget:Sat.Budget.t ->
  k:int ->
  'a Encode.Select.t ->
  run
(** Enumerate the essential corrections of size [<= k] of a built
    instance, blocking each one.  Every cube of [cubes] (default [[[]]])
    is enumerated in turn with its literals as extra assumptions.
    [guard] is assumed on every call and carried by every blocking
    clause ({!Encode.Select.block}'s [unless]), so the caller can retire
    the enumeration later.  The run stops once [found] (default: a
    fresh counter, incremented per solution, shareable across portfolio
    workers) reaches [max_solutions], or once [budget] is exhausted.

    Under [Minimize_single_pass], a set whose shrink the budget cut
    short is discarded and ends the run: only essential sets are ever
    recorded.  A run that ends on the last limit's [Unsat]
    ([cut = false]) leaves that answer as the solver's last one, so its
    {!Sat.Solver.unsat_core} is available.

    {!Hitting}'s node checks are one-cube, single-pass runs. *)

val outcome :
  start:float ->
  cnf_time:float ->
  stats:Sat.Solver.stats ->
  extra:'extra ->
  'a Encode.Select.t ->
  run ->
  'extra Outcome.outcome
(** The outcome of a run that began at the {!Obs.Clock.wall} instant
    [start]: its solutions in canonical order, [one_time] and [all_time]
    measured from [start] ([one_time = 0.0] when nothing was found), and
    the instance's certification results. *)

val portfolio :
  strategy:strategy ->
  max_solutions:int ->
  k:int ->
  jobs:int ->
  (int -> unit Outcome.outcome * int) ->
  unit Outcome.outcome
(** [portfolio ~jobs worker] runs [worker w] for [w] in [0..jobs-1] on
    their own domains ({!Par.run}; at [jobs = 1] just [worker 0], whose
    outcome is returned as is) and merges the outcomes, each paired
    with its run's [completed] fence.  The workers must enumerate the
    cubes {!Sat.Lit.cubes} gives them over the same select lines, which
    are disjoint and exhaustive, so the union filtered to
    inclusion-minimal sets, in canonical order and cut to
    [max_solutions], equals the sequential solution list exactly
    whenever no worker was cut short.  Under truncation only solutions
    at most one above the lowest fence are kept (a dominator above it
    may have been lost to the budget in another cube), so the list is
    still a subset of the essential solutions; which subset depends on
    the schedule.  [Minimize_single_pass] needs no fence: every recorded
    set was shrunk to an essential one.  Times are the slowest worker's
    ([one_time] the earliest first solution); solver calls, counters and
    certification results are summed.  Irredundant covers are the
    inclusion-minimal covers, so the same merge is exact for COV. *)
