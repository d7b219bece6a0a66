type outcome = {
  solutions : int list list;
  truncated : bool;
  cert_checks : int;
  cert_failures : string list;
  conflicts : int;
  stats : Obs.Json.t option;
}

let run ?obs ?budget ?(jobs = 1) ~max_solutions inc =
  Diagnosis.Incremental.attach inc obs;
  let budget = Option.map Sat.Budget.renewed budget in
  let st0 = Diagnosis.Incremental.stats inc in
  let checks0 = Diagnosis.Incremental.cert_checks inc in
  let failures0 = List.length (Diagnosis.Incremental.cert_failures inc) in
  let solutions =
    Diagnosis.Incremental.solutions ~max_solutions ?budget ~jobs inc
  in
  let truncated = Diagnosis.Incremental.last_truncated inc in
  let cert_checks = Diagnosis.Incremental.cert_checks inc - checks0 in
  let cert_failures =
    List.filteri
      (fun i _ -> i >= failures0)
      (Diagnosis.Incremental.cert_failures inc)
  in
  let st_delta =
    Sat.Solver.diff_stats st0 (Diagnosis.Incremental.stats inc)
  in
  let stats =
    Option.map
      (fun o ->
        Diagnosis.Telemetry.record_solver_stats o ~prefix:"incremental"
          st_delta;
        Obs.add o "incremental/solutions" (List.length solutions);
        Obs.add o "incremental/tests" (Diagnosis.Incremental.num_tests inc);
        Obs.add o "incremental/truncated" (if truncated then 1 else 0);
        Obs.add o "incremental/cert_checks" cert_checks;
        Obs.to_json ~times:false o)
      obs
  in
  {
    solutions;
    truncated;
    cert_checks;
    cert_failures;
    conflicts = st_delta.Sat.Solver.conflicts;
    stats;
  }
