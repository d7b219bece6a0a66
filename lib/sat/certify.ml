(* certification state: the solver's proof sink, an independent checker
   fed every input clause (via [add_clause]) and — batch-wise, after
   each solve — every proof step, plus pass/fail bookkeeping *)
type t = {
  solver : Solver.t;
  proof : Proof.t;
  checker : Drup_check.t;
  mutable drained : int;           (* proof steps already checked *)
  mutable checks : int;
  mutable failures : string list;  (* newest first *)
}

let create solver =
  let proof = Proof.in_memory () in
  Solver.set_proof solver (Some proof);
  {
    solver;
    proof;
    checker = Drup_check.create ();
    drained = 0;
    checks = 0;
    failures = [];
  }

let add_clause c lits = Drup_check.add_clause c.checker lits
let fail c msg = c.failures <- msg :: c.failures

(* feed the checker every proof step recorded since the last drain;
   returns the fresh slice so Unsat claims can look for their clause *)
let drain_steps c =
  let steps = Proof.steps c.proof in
  let fresh = Array.sub steps c.drained (Array.length steps - c.drained) in
  Array.iteri
    (fun i st ->
      match Drup_check.check_step c.checker st with
      | Ok () -> ()
      | Error msg ->
          fail c (Printf.sprintf "proof step %d: %s" (c.drained + i + 1) msg))
    fresh;
  c.drained <- Array.length steps;
  fresh

let verify c ?(assumptions = []) result =
  let fresh = drain_steps c in
  match result with
  | Solver.Unknown ->
      (* budget truncation: no claim to certify, but the drain keeps the
         checker in step so the next claim's clauses are all accounted
         for *)
      ()
  | Solver.Solved Solver.Sat ->
      c.checks <- c.checks + 1;
      if
        not
          (Drup_check.model_ok ~assumptions c.checker (Solver.value c.solver))
      then fail c "Sat answer: model violates the clause set"
  | Solver.Solved Solver.Unsat ->
      c.checks <- c.checks + 1;
      let neg = List.map Lit.negate assumptions in
      let establishes = function
        | Proof.Add lits -> List.for_all (fun l -> List.mem l neg) lits
        | Proof.Delete _ -> false
      in
      if not (Drup_check.refuted c.checker || Array.exists establishes fresh)
      then fail c "Unsat answer: no certifying clause in the proof"

let solve ?cert ?assumptions ?budget solver =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let r = Solver.solve_limited ?assumptions ~budget solver in
  Option.iter (fun c -> verify c ?assumptions r) cert;
  r

let checks c = c.checks
let failures c = List.rev c.failures
