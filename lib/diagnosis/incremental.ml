type t = {
  solver : Sat.Solver.t;
  inst : Encode.Muxed.t;
  k : int;
  mutable obs : Obs.t option;
  circuit : Netlist.Circuit.t;
  force_zero : bool option;
  certify : bool;
  mutable tests : Sim.Testgen.test list;  (* accumulated, in arrival order *)
  mutable last_truncated : bool;
  mutable retired : bool;
  (* portfolio runs bypass the live instance; their certification
     outcomes accumulate here instead *)
  mutable portfolio_checks : int;
  mutable portfolio_failures : string list;
}

let create ?force_zero ?obs ?(certify = false) ~k c tests =
  let solver = Sat.Solver.create () in
  Option.iter (Sat.Solver.attach_obs ~prefix:"incremental" solver) obs;
  let inst =
    Telemetry.phase obs "incremental/cnf" (fun () ->
        Encode.Muxed.build ?force_zero ~certify ~max_k:k solver c tests)
  in
  {
    solver;
    inst;
    k;
    obs;
    circuit = c;
    force_zero;
    certify;
    tests;
    last_truncated = false;
    retired = false;
    portfolio_checks = 0;
    portfolio_failures = [];
  }

let check_live t ~what =
  if t.retired then
    invalid_arg (Printf.sprintf "Incremental.%s: context is retired" what)

let attach t obs =
  check_live t ~what:"attach";
  t.obs <- obs;
  match obs with
  | Some o -> Sat.Solver.attach_obs ~prefix:"incremental" t.solver o
  | None -> Sat.Solver.detach_obs t.solver

let retire t =
  if not t.retired then begin
    t.retired <- true;
    t.obs <- None;
    Sat.Solver.detach_obs t.solver
  end

let retired t = t.retired

let add_tests t tests =
  check_live t ~what:"add_tests";
  Telemetry.instant t.obs ~payload:(List.length tests) "incremental/add_tests";
  t.tests <- t.tests @ tests;
  List.iter (Encode.Muxed.add_test t.inst) tests

let num_tests t = Encode.Muxed.num_tests t.inst

(* jobs > 1: the live solver cannot be shared across domains, so the
   portfolio solves the accumulated workload on fresh per-worker
   instances ({!Bsat.diagnose}) and leaves the live instance untouched —
   the enumerated set is the same, the learned-clause reuse is not. *)
let solutions_portfolio ~max_solutions ?budget ~jobs t =
  let r =
    Bsat.diagnose ?force_zero:t.force_zero ~max_solutions ?budget
      ~certify:t.certify ~jobs ~k:t.k t.circuit t.tests
  in
  t.last_truncated <- r.Bsat.truncated;
  t.portfolio_checks <- t.portfolio_checks + r.Bsat.cert_checks;
  t.portfolio_failures <- t.portfolio_failures @ r.Bsat.cert_failures;
  r.Bsat.solutions

let solutions ?(max_solutions = max_int) ?budget ?(jobs = 1) t =
  check_live t ~what:"solutions";
  let jobs = Par.clamp_jobs jobs in
  if jobs > 1 then solutions_portfolio ~max_solutions ?budget ~jobs t
  else
  Telemetry.phase t.obs "incremental/solve" ~payload:List.length @@ fun () ->
  let budget =
    match budget with Some b -> b | None -> Sat.Budget.unlimited ()
  in
  (* guard this enumeration's blocking clauses so the next call (after
     more tests arrived) starts from a clean solution space *)
  let active = Encode.Select.fresh_activation t.inst in
  let r =
    Enumeration.enumerate ~guard:active ~max_solutions ~budget ~k:t.k t.inst
  in
  (* retire the guard permanently — through the instance's emit hook so
     the certification checker sees the unit clause too *)
  Encode.Select.assert_clause t.inst [ Sat.Lit.negate active ];
  t.last_truncated <- r.Enumeration.cut;
  Solutions.canonical r.Enumeration.found

let last_truncated t = t.last_truncated

let stats t = Sat.Solver.stats t.solver

let cert_checks t = t.portfolio_checks + Encode.Select.cert_checks t.inst

let cert_failures t =
  t.portfolio_failures @ Encode.Select.cert_failures t.inst
