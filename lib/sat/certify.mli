(** End-to-end certification of incremental solver answers.

    A certifier attaches an in-memory DRUP sink ({!Proof.in_memory}) to
    a fresh solver and keeps an independent {!Drup_check} checker that
    receives every input clause ({!add_clause}).  After each solve call
    it drains the proof steps recorded since the previous call through
    the checker (each [Add] must be RUP, each [Delete] must name a live
    clause) and then checks the answer itself:

    - [Sat]: the solver's model must satisfy every input clause and make
      every assumption true (model evaluation, {!Drup_check.model_ok});
    - [Unsat]: the checker must be refuted, or the fresh proof slice
      must contain an [Add] step all of whose literals negate
      assumptions of this call (the failed-assumption-core clause; with
      no assumptions only the empty clause qualifies);
    - [Unknown] (budget exhausted): no claim, the steps are only
      drained.

    Verification never changes answers; outcomes accumulate in
    {!checks} / {!failures}.  This is the discipline behind [~certify]
    in [Encode.Select] (hence [Encode.Muxed]) and [Encode.Twin]. *)

type t

val create : Solver.t -> t
(** Attach a fresh proof sink to [solver] and start an empty checker.
    [solver] must be fresh: clauses added before [create] would be
    invisible to the checker. *)

val add_clause : t -> Lit.t list -> unit
(** Mirror one input clause into the checker.  Call it before adding
    the clause to the solver, so proof steps that use the clause always
    find it installed. *)

val solve :
  ?cert:t ->
  ?assumptions:Lit.t list ->
  ?budget:Budget.t ->
  Solver.t ->
  Solver.limited_result
(** {!Solver.solve_limited} (no [budget] means {!Budget.unlimited}, as in
    {!Solver.solve}); with [cert], which must have been created on the
    same solver, the answer is then verified under [assumptions]. *)

val verify : t -> ?assumptions:Lit.t list -> Solver.limited_result -> unit
(** Verify [result] as the answer of the solver's last call under
    [assumptions] — the check {!solve} runs.  Exposed so a claim can be
    checked that the solver did not make. *)

val checks : t -> int
(** Answers verified so far ([Sat] and [Unsat]; [Unknown] carries no
    claim and is not counted). *)

val failures : t -> string list
(** Verification failures so far, oldest first.  Always [[]] unless the
    solver or the checker has a bug. *)
