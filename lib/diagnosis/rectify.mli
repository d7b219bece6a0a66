(** Automatic rectification: turn a BSAT correction into an actual
    repaired netlist.

    §4 of the paper observes that BSAT supplies "with respect to each
    test a new value for each gate in the correction", which "can be
    exploited to determine the correct function of the gate".  This
    module does exactly that: it reads the correction witness off the
    SAT model, interprets it as a partial truth table over the gate's
    fanins (a test whose output cone misses the gate constrains it
    nowhere, so it contributes no row), replaces the gate by a standard
    kind when one matches, or by the original function XOR a minterm
    patch otherwise, and verifies the repaired circuit against the
    tests.

    A valid correction guarantees rectifying *per-test values*, not a
    consistent local function (the values may encode a dependency on
    signals outside the gate's fanins).  When the witness conflicts, the
    extractor re-solves with assumptions forcing one polarity per
    conflicting input combination; if no consistent witness exists the
    solution is skipped and the next one is tried. *)

type witness = {
  gate : int;
  table : (bool array * bool) list;
      (** deduplicated fanin-values -> required-output pairs *)
}

val consistent_kinds : Netlist.Circuit.t -> witness -> Netlist.Gate.kind list
(** Standard kinds realizing the (partial) table. *)

val apply : Netlist.Circuit.t -> witness list -> Netlist.Circuit.t
(** The repaired netlist: kind replacement when possible, otherwise a
    minterm patch (original ⊕ correction term) appended to the circuit. *)

type result = {
  repaired : Netlist.Circuit.t;
  solution : int list;           (** the correction the repair realizes *)
  witnesses : witness list;
  kind_changes : (int * Netlist.Gate.kind) list;
      (** gates fixed by a plain kind replacement *)
}

val rectify :
  ?max_attempts:int ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  result option
(** Full flow: enumerate BSAT corrections (smallest first), extract a
    consistent witness, synthesize, and keep the first repair that makes
    every test pass.  [max_attempts] bounds the solutions tried
    (default 16). *)
