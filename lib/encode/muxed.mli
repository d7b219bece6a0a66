(** The SAT-based diagnosis instance of the paper's Figure 2.

    One copy of the circuit per test (t, o, v); a correction multiplexer
    in front of every candidate gate.  The select line [s_g] is shared by
    all copies (the gate is changed for all tests or none); the injected
    correction value [c_g^i] is free per test, so a selected gate may be
    re-assigned any Boolean function.  Each copy pins its primary inputs
    to the test vector and its erroneous output to the correct value.

    The copy for a test on output o is its cone of influence: it encodes
    only the gates in the fan-in cone of o, since no other gate can
    change o.  Inside the cone, a gate outside the fan-out of every
    candidate computes its fault-free value whatever the corrections
    are; it gets no variable and no clause, but is folded to its value
    under one simulation of the test vector, a literal of a single
    constant-true variable shared by all copies (primary inputs are
    folded the same way).  A test whose cone holds no candidate is thus
    one constant output clause: true if the test passes, false (the
    instance is unsatisfiable) if it fails.  Select lines are unaffected: every
    candidate keeps its select line and counts towards the bound even
    where no copy constrains it.

    The select lines, the "at most k changed gates" counter (Fig. 3,
    line 2), solving, solutions, blocking and certification are the
    {!Select} layer this instance is built on; a [t] is used with
    {!Select}'s functions directly.  Candidates may be grouped, sharing
    one select line: every time-frame copy of a core gate in unrolled
    sequential diagnosis (Ali et al.). *)

type body
(** The circuit copies. *)

type t = body Select.t

val build :
  ?mirror:Sat.Cnf.t ->
  ?candidates:int list ->
  ?groups:int list list ->
  ?force_zero:bool ->
  ?certify:bool ->
  max_k:int ->
  Sat.Solver.t ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  t
(** [build ~max_k solver circuit tests] encodes the diagnosis instance
    into [solver].

    [candidates] become singleton groups; [groups] are explicit groups
    sharing a select line.  When neither is given, every logic gate is a
    singleton candidate.  A gate may appear in at most one group.

    [force_zero] adds the advanced-approach clauses [¬s_g ⇒ c_g^i = 0],
    removing up to |I| pointless decisions without changing the solution
    space projected on the select lines.

    [mirror] additionally copies every clause into the given CNF (see
    {!export_dimacs}).

    [certify] verifies every solve call's answer ({!Select.build}). *)

val export_dimacs :
  ?candidates:int list ->
  ?groups:int list list ->
  ?force_zero:bool ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  string
(** The complete diagnosis instance, with the at-most-k bound frozen in,
    as DIMACS CNF text — for use with external SAT solvers.  DIMACS
    variables [1..#groups] are the select lines, in group order (explicit
    groups first, then the remaining candidates in topological order);
    variable [#groups + 1] is the constant-true variable. *)

val add_test : t -> Sim.Testgen.test -> unit
(** Incrementally constrain the live instance with one more test: a new
    circuit copy is encoded into the same solver, sharing the select
    lines and everything the solver has learned so far — the incremental
    use the paper attributes to Zchaff/SATIRE.  The copy covers the
    test's output cone, as in {!build}; each output's cone is computed
    once per instance.  Solutions enumerated before the call may no
    longer be corrections for the extended set. *)

val circuit : t -> Netlist.Circuit.t
val num_tests : t -> int

val correction_value : t -> test:int -> gate:int -> bool
(** After [Sat]: the value injected at a candidate gate for a test — the
    witness from which a replacement function can be read off.
    @raise Not_found for non-candidates, and for a candidate outside
    the fan-in cone of the test's output: the test places no constraint
    on that gate, so its witness row is a don't-care. *)

val correction_var : t -> test:int -> gate:int -> int
(** The solver variable carrying that correction value (for phase hints
    and assumptions).  @raise Not_found as {!correction_value}. *)

val gate_value : t -> test:int -> gate:int -> bool
(** After [Sat]: the (post-mux) value of a gate in a test copy.  For a
    gate folded to a constant this is its simulated value under the
    test vector.  @raise Not_found for a gate outside the fan-in cone of
    the test's output, which the copy does not encode. *)
