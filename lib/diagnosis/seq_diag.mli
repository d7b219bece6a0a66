(** Sequential diagnosis by time-frame expansion (§2.3's sequential
    application, after Ali/Veneris/Safarpour/Drechsler/Smith/Abadir,
    ICCAD'04).

    The faulty machine is unrolled over the length of the test sequences;
    each sequential test becomes an ordinary (t, o, v) triple of the
    unrolled combinational circuit.  All time-frame copies of a core gate
    share one correction select line (a design error is present in every
    frame), so the at-most-k bound counts *core* gates. *)

include module type of struct include Enumeration.Outcome end

type unrolling = { frames : int }  (** the test sequences' length *)

type result = unrolling outcome
(** [solutions] are core gate ids, essential and valid; no
    certification ([cert_checks = 0]). *)

val diagnose_bsat :
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  k:int ->
  Sim.Sequential.t ->
  Sim.Seq_testgen.test list ->
  result
(** BSAT on the unrolled machine ({!Enumeration.enumerate}), solutions
    in canonical order.  [budget] caps solver effort; on exhaustion (or
    at [max_solutions]) the result is [truncated] and holds the
    solutions found so far.  All tests must share one sequence length.
    @raise Invalid_argument otherwise or on an empty test list. *)

val bsim : Sim.Sequential.t -> Sim.Seq_testgen.test list -> int list array
(** Sequential BSIM: path tracing on the unrolled machine, candidate
    sets folded back to core gate ids. *)

val diagnose_cov :
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  k:int ->
  Sim.Sequential.t ->
  Sim.Seq_testgen.test list ->
  int list list
(** Sequential COV: set covering over the folded candidate sets
    ({!Cover.enumerate}, [budget] included). *)

val check :
  Sim.Sequential.t -> Sim.Seq_testgen.test list -> int list -> bool
(** Is a set of core gates a valid sequential correction (free per-frame,
    per-test values)?  SAT-based effect analysis on the unrolled model. *)

type distinguishing =
  | Separating of bool array array
      (** one primary-input row per frame: an input sequence on which
          the two candidates can produce different output streams *)
  | Inseparable
      (** no sequence of [frames] cycles separates the candidates *)
  | Unknown  (** budget exhausted *)

val distinguishing_test :
  ?budget:Sat.Budget.t ->
  frames:int ->
  Sim.Sequential.t ->
  a:int list ->
  b:int list ->
  distinguishing
(** The time-frame twin query (Pecheur–Cimatti SAT-BMC diagnosability,
    bounded at [frames] cycles): the machine is unrolled, every frame
    copy of a core candidate gate becomes a correction site of its side,
    and an {!Encode.Twin} instance asks for an input sequence on which
    the two corrected unrollings can differ on some output at some
    cycle.  [Inseparable] is sound for the given bound: no test sequence
    of [frames] cycles (from the reset state) distinguishes candidate
    [a] from candidate [b].  This is the sequential extension hook of
    {!Adaptive}'s combinational loop. *)
