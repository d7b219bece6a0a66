(** COV — SCDiagnose (paper Figure 4): diagnosis as set covering over the
    path-trace candidate sets.

    A solution C* contains at least one marked gate of every test's
    candidate set, has at most k elements and is irredundant (condition
    (b) of Fig. 4).  Following the paper's experimental setup, the
    covering problem is solved with the SAT solver, on the machinery of
    BSAT (Fig. 3): the instance is an {!Encode.Select} layer with one
    select line per marked gate (in gate order) and one clause per
    test's candidate set, and {!Enumeration.enumerate} raises the limit
    from 1 to k, blocking every solution.  Blocking also removes
    supersets, and a level is only entered once every smaller cover is
    blocked, so each model found is an irredundant cover: the
    enumeration yields exactly the irredundant covers.

    An independent branch-and-bound enumerator serves as an oracle in the
    test suite. *)

include module type of struct include Enumeration.Outcome end

type engine = Sat_engine | Backtrack_engine

val diagnose :
  ?engine:engine ->
  ?tie_break:Path_trace.tie_break ->
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  ?obs:Obs.t ->
  ?jobs:int ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  Bsim.result outcome
(** COV reports the shared {!Enumeration.Outcome.outcome}, with the
    underlying BSIM run in [extra]; [cnf_time] is BSIM plus instance
    construction (paper "CNF").  The backtrack engine makes no solver
    calls and reports zero solver counters.

    [budget] bounds the covering enumeration: the SAT engine charges
    its cover solver's effort to it and both engines check it between
    solutions.  On exhaustion the result is [truncated] and holds the
    covers found so far.  Times are wall-clock seconds.

    [obs] records the run: the underlying {!Bsim.diagnose}
    instrumentation, ["cov/enumerate"] [Begin]/[End] events ([End]
    payload = solution count), a ["cov/solution_size"] histogram and the
    ["cov/solutions"]/["cov/truncated"] counters.

    [jobs] (default 1) parallelizes both the path tracing and the SAT
    covering enumeration, a portfolio over cubes of the first select
    lines run and merged by {!Enumeration.portfolio} as in {!Bsat}: the
    solution list equals the [jobs = 1] list whenever the enumeration is
    not truncated, and a truncated portfolio returns a subset of the
    irredundant covers (possibly fewer than the sequential run): each
    worker keeps only the covers that are irredundant against all the
    sets, not just within its cube, so no level fence is needed.
    Because every [obs] datum of the covering stage is derived from the
    final canonical solution list, the whole stats block is
    bit-identical to [jobs = 1] whenever the enumeration is not
    truncated.  The backtrack oracle engine always runs sequentially. *)

val covers : int list -> int list array -> bool
(** [covers solution sets] — does the solution hit every set? *)

val enumerate :
  ?engine:engine ->
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  ?jobs:int ->
  k:int ->
  int list array ->
  int list list * bool
(** Enumerate the irredundant covers of arbitrary candidate sets (used
    directly by the sequential diagnosis); returns the solutions and a
    truncation flag.  [budget] bounds it as in {!diagnose}. *)
