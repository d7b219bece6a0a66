(** BSAT — BasicSATDiagnose (paper Figure 3).

    The diagnosis instance of Figure 2 (one circuit copy per test,
    correction multiplexers, shared selects) is solved with the limit on
    selected gates raised incrementally from 1 to k; every solution is
    blocked before moving on, so the enumeration returns exactly the
    valid corrections containing only essential candidates up to size k
    (Lemmas 1 and 3). *)

include module type of struct include Enumeration.Outcome end

type result = unit outcome
(** BSAT reports the shared {!Enumeration.Outcome.outcome} record and
    nothing beside it.  In a portfolio, [cert_checks] and the solver
    counters are summed over the workers. *)

type hints = {
  priority : (int * float) list;
      (** gate id -> activity bump for its select line *)
  prefer_selected : int list;
      (** gates whose select line should first be tried as 1 *)
}

val no_hints : hints

type strategy = Enumeration.strategy =
  | Incremental_k  (** Figure 3 verbatim: limits 1..k *)
  | Minimize_single_pass  (** one pass at limit k, models shrunk *)

val diagnose :
  ?candidates:int list ->
  ?force_zero:bool ->
  ?hints:hints ->
  ?strategy:strategy ->
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  ?obs:Obs.t ->
  ?obs_prefix:string ->
  ?certify:bool ->
  ?jobs:int ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  result
(** [candidates] restricts the multiplexer sites (advanced approaches);
    [force_zero] adds the s=0 ⇒ c=0 pruning clauses; [hints] biases the
    solver's decision heuristic (the §6 hybrid).  The enumeration
    itself is {!Enumeration.enumerate}.

    [certify] (default false) independently verifies every solver answer
    behind the enumeration ({!Encode.Muxed.build}'s certification mode):
    [Sat] answers by model evaluation, [Unsat] answers — each
    cardinality-level step and the final enumeration-exhausted step — by
    DRUP-checking the solver's proof.  Results land in [cert_checks] /
    [cert_failures].  With [jobs > 1] each portfolio worker certifies
    its own instance; the per-cube certificates compose because the
    cubes partition the solution space.

    [jobs] (default 1) enumerates with a portfolio of that many
    independent solvers on their own domains: the solution space is
    split into disjoint cubes over the first ⌈log2 jobs⌉ candidate
    select lines, workers enumerate their cubes with the sequential
    algorithm, charge one shared (atomic) [budget], and the merged
    solution list — union, filtered to inclusion-minimal sets, in
    canonical order — equals the [jobs = 1] list exactly whenever the
    enumeration is not truncated.  Under truncation ([max_solutions] or
    budget exhaustion) the portfolio still returns a
    sound subset of the essential solutions — workers report the deepest
    cardinality level they enumerated to completion and the merge keeps
    only solutions one above the *minimum* such level, so a correction
    whose smaller dominator was lost to the budget in another worker's
    cube can never slip through — but which subset (possibly fewer
    solutions than the sequential run found, even none) depends on the
    parallel schedule.  [Minimize_single_pass] needs no fence: every
    recorded set was shrunk to an essential one, and a set whose shrink
    the budget cut short is discarded ({!Enumeration.enumerate}).
    Solver counters ([stats], the [obs] counters) are summed across
    workers and genuinely differ from the sequential run; worker event
    streams are merged into [obs] tagged with their domain id.

    [budget] caps total solver effort across the whole enumeration.  It
    is enforced {e inside} the CDCL loop, so a single hard call cannot
    overshoot it unboundedly; a [seconds] allowance reads the wall
    clock.  On exhaustion the result is flagged [truncated] and contains
    the solutions found so far (each one still a valid correction).
    Conflict/propagation budgets are deterministic under a fixed seed.

    [obs] records the run under ["<obs_prefix>/..."] counters and spans
    (default prefix ["bsat"]), brackets instance construction and the
    enumeration with ["<obs_prefix>/cnf"]/["<obs_prefix>/solve"]
    [Begin]/[End] events (the solve [End] payload is the solution
    count), fills a ["<obs_prefix>/solution_size"] histogram and
    attaches the solver's per-conflict histograms
    ({!Sat.Solver.attach_obs}); see {!Telemetry}. *)

val first_solution :
  ?candidates:int list ->
  ?force_zero:bool ->
  ?hints:hints ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  int list option
(** Just one valid correction of minimum size <= k, or [None]. *)
