(** The selection layer of a diagnosis instance: one select line per
    candidate group, a cardinality counter over the select lines, and an
    optional certifier.

    Two instances are built on it.  {!Muxed} adds the paper's Figure 2
    circuit copies (correction multiplexers behind the select lines);
    COV's covering instance ([Diagnosis.Cover], Fig. 4) adds one clause
    per path-trace candidate set.  Theorems 1–2 compare the solution
    spaces of the two, and this layer is all they share: the rising
    limit of Figure 3 is an assumption on the counter, a solution is the
    set of selected groups, and blocking a solution removes it and all
    its supersets.  [Diagnosis.Enumeration] runs Figure 3's loop over
    either.

    Candidates may be grouped: all gates of a group share one select line
    and count once towards the bound (one design error in several places,
    e.g. every time-frame copy of a core gate in sequential diagnosis). *)

type 'a t
(** A selection layer carrying the instance body ['a] built on it. *)

val build :
  ?mirror:Sat.Cnf.t ->
  ?certify:bool ->
  max_k:int ->
  Sat.Solver.t ->
  int array array ->
  (Emit.t -> (int -> Sat.Lit.t option) -> 'a) ->
  'a t
(** [build ~max_k solver groups encode] allocates one select variable per
    group (DIMACS variables [1..#groups] on a fresh solver, in group
    order), then calls [encode emit select] to add the instance's own
    variables and clauses — [select g] is the select literal of gate
    [g]'s group, [None] for a non-candidate — and finally encodes the
    "at most k selected groups" counter for bounds up to [max_k].
    A gate may appear in at most one group.

    [mirror] additionally copies every clause into the given CNF.
    [certify] attaches a {!Sat.Certify} certifier to [solver] and feeds
    it every emitted clause, so each solve call's answer is verified
    under that call's assumptions (the bound and any activation guards);
    outcomes accumulate in {!cert_checks} / {!cert_failures}.  [certify]
    requires a fresh [solver]. *)

val body : 'a t -> 'a
val solver : 'a t -> Sat.Solver.t

val num_groups : 'a t -> int

val candidate_gates : 'a t -> int array
(** All gates carrying a select line, over all groups, sorted. *)

val select_lit : 'a t -> int -> Sat.Lit.t
(** Select literal of a candidate gate's group.
    @raise Not_found for non-candidates. *)

val at_most : 'a t -> int -> Sat.Lit.t list
(** The assumptions enforcing "at most [k] selected groups" ([k] above
    the group count is vacuous).  [k] must not exceed [max_k]. *)

val solve_at_most : ?extra:Sat.Lit.t list -> 'a t -> int -> Sat.Solver.result
(** Solve under {!at_most}, plus extra assumptions. *)

val solve_at_most_limited :
  ?extra:Sat.Lit.t list ->
  budget:Sat.Budget.t ->
  'a t ->
  int ->
  Sat.Solver.limited_result
(** [solve_at_most] under a solver-effort budget ({!Sat.Solver.solve_limited});
    consumed effort is charged to [budget], so one budget can cap a whole
    enumeration.  The assumptions are [at_most t k @ extra]. *)

val solution : 'a t -> int list
(** After [Sat]: one representative (smallest gate id) per selected
    group, sorted.  For singleton groups this is the gate itself. *)

val solution_groups : 'a t -> int list list
(** After [Sat]: the selected groups in full. *)

val block : ?unless:Sat.Lit.t -> 'a t -> int list -> unit
(** Add the blocking clause [∨ ¬s] over the groups of the given gates,
    excluding that solution and all supersets from future solve calls.
    With [unless], the clause carries that activation guard: it only
    takes effect while the literal is assumed true, so a whole
    enumeration can be retired (incremental diagnosis). *)

val assert_clause : 'a t -> Sat.Lit.t list -> unit
(** Add an arbitrary clause through the instance's emit hook, so mirrors
    and the certification checker stay in sync with the solver.  Used to
    retire activation guards ([¬a] as a unit clause). *)

val fresh_activation : 'a t -> Sat.Lit.t
(** A fresh activation literal for guarded blocking clauses. *)

val cert_checks : 'a t -> int
(** Solver answers verified so far (both [Sat] and [Unsat]; [Unknown]
    results carry no claim and are not counted). *)

val cert_failures : 'a t -> string list
(** Verification failures so far, oldest first.  Always [[]] unless the
    solver or checker has a bug — this is the paper-level soundness net:
    every diagnosis step's SAT answer is independently replayed. *)
