include Enumeration.Outcome

type result = unit outcome

type hints = {
  priority : (int * float) list;
  prefer_selected : int list;
}

let no_hints = { priority = []; prefer_selected = [] }

let apply_hints solver inst hints =
  List.iter
    (fun (g, w) ->
      match Encode.Muxed.select_lit inst g with
      | l -> Sat.Solver.bump_priority solver (Sat.Lit.var l) w
      | exception Not_found -> ())
    hints.priority;
  List.iter
    (fun g ->
      match Encode.Muxed.select_lit inst g with
      | l -> Sat.Solver.set_default_phase solver (Sat.Lit.var l) true
      | exception Not_found -> ())
    hints.prefer_selected

type strategy = Enumeration.strategy = Incremental_k | Minimize_single_pass

(* one worker's fields: the shared [reg] is [obs] itself on the
   sequential path *)
type worker = { outcome : result; fence : int; reg : Obs.t option }

(* Build the instance and enumerate worker [w]'s cubes of a [jobs]-wide
   portfolio.  At [jobs = 1] the single cube is empty and worker 0 gets
   no diversity tweak, so this is exactly the sequential run. *)
let run_worker ~candidates ~force_zero ~hints ~strategy ~max_solutions ~budget
    ~obs_prefix ~certify ~found ~jobs ~k ~reg c tests w =
  let solver = Sat.Solver.create () in
  Option.iter (Sat.Solver.attach_obs solver) reg;
  let t0 = Obs.Clock.wall () in
  let inst =
    Telemetry.phase reg (obs_prefix ^ "/cnf") (fun () ->
        Encode.Muxed.build ?candidates ?force_zero ~certify ~max_k:k solver c
          tests)
  in
  apply_hints solver inst hints;
  let cnf_time = Obs.Clock.wall () -. t0 in
  let cands = Encode.Muxed.candidate_gates inst in
  (* branching diversity between otherwise-identical workers: odd
     workers try selects on first, later workers bump select activity *)
  let select_var g = Sat.Lit.var (Encode.Muxed.select_lit inst g) in
  if w land 1 = 1 then
    Array.iter (fun g -> Sat.Solver.set_default_phase solver (select_var g) true) cands;
  if w >= 2 then
    Array.iteri
      (fun i g ->
        Sat.Solver.bump_priority solver (select_var g)
          (float_of_int ((i + w) land 7)))
      cands;
  let cubes =
    Sat.Lit.cubes ~jobs (Array.map (Encode.Muxed.select_lit inst) cands) w
  in
  Option.iter (fun o -> Obs.begin_event o (obs_prefix ^ "/solve")) reg;
  let start = Obs.Clock.wall () in
  let r =
    Enumeration.enumerate ~strategy ~cubes ~found ~max_solutions ~budget ~k
      inst
  in
  let outcome =
    Enumeration.outcome ~start ~cnf_time ~stats:(Sat.Solver.stats solver)
      ~extra:() inst r
  in
  Option.iter
    (fun o ->
      Obs.end_event ~payload:(List.length r.Enumeration.found) o
        (obs_prefix ^ "/solve"))
    reg;
  { outcome; fence = r.Enumeration.completed; reg }

(* Solver portfolio: the solution space is partitioned into cubes by
   fixing the first L = ⌈log2 jobs⌉ candidate select lines to each of
   the 2^L sign patterns; cube [j] goes to worker [j mod jobs].  Every
   worker enumerates its cubes with the sequential algorithm on its own
   instance (so learnt clauses and blocking clauses stay worker-local),
   charging the one shared atomic [budget].  A solution's cube is
   determined by its own first-L membership pattern, so the cubes are
   disjoint and exhaustive; a cube-minimal solution that is not globally
   minimal contains a smaller solution living in another cube, so
   filtering the merged union down to inclusion-minimal sets recovers
   exactly the sequential essential-solution set, and the canonical sort
   makes the list byte-identical to [jobs = 1]. *)
let merge_portfolio ~strategy ~max_solutions ~k workers =
  let outcomes = Array.map (fun w -> w.outcome) workers in
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let max_time f = Array.fold_left (fun acc o -> Float.max acc (f o)) 0.0 outcomes in
  (* a solution of size <= fence+1 that is not essential contains an
     essential one of size <= fence, which every worker's every cube
     enumerated to Unsat — so it is present in the union and the
     inclusion-minimal filter removes the superset.  Above the fence a
     dominator may have been lost to the budget; those solutions are
     dropped (the run is already marked truncated).  A single pass has
     no levels to fence. *)
  let fence =
    match strategy with
    | Incremental_k -> Array.fold_left (fun acc w -> min acc w.fence) k workers
    | Minimize_single_pass -> k
  in
  let merged =
    Array.to_list outcomes
    |> List.concat_map (fun o -> o.solutions)
    |> Solutions.canonical |> Solutions.minimal_only
    |> List.filter (fun s -> List.length s <= fence + 1)
  in
  let one_time =
    Array.fold_left
      (fun acc o -> if o.solutions = [] then acc else Float.min acc o.one_time)
      infinity outcomes
  in
  {
    solutions = List.filteri (fun i _ -> i < max_solutions) merged;
    cnf_time = max_time (fun o -> o.cnf_time);
    one_time = (if Float.is_finite one_time then one_time else 0.0);
    all_time = max_time (fun o -> o.all_time);
    truncated =
      Array.exists (fun o -> o.truncated) outcomes
      || List.length merged > max_solutions;
    solver_calls = sum (fun o -> o.solver_calls);
    stats =
      Array.fold_left
        (fun acc o -> Sat.Solver.sum_stats acc o.stats)
        Sat.Solver.zero_stats outcomes;
    (* per-worker certification composes: each worker certifies its own
       cubes' answers, and the cubes cover the solution space *)
    cert_checks = sum (fun o -> o.cert_checks);
    cert_failures =
      Array.to_list outcomes |> List.concat_map (fun o -> o.cert_failures);
    extra = ();
  }

let diagnose ?candidates ?force_zero ?(hints = no_hints)
    ?(strategy = Incremental_k) ?(max_solutions = max_int) ?budget ?obs
    ?(obs_prefix = "bsat") ?(certify = false) ?(jobs = 1) ~k c tests =
  let budget =
    match budget with Some b -> b | None -> Sat.Budget.unlimited ()
  in
  let jobs = Par.clamp_jobs jobs in
  let found = Atomic.make 0 in
  let run_worker ~reg =
    run_worker ~candidates ~force_zero ~hints ~strategy ~max_solutions ~budget
      ~obs_prefix ~certify ~found ~jobs ~k ~reg c tests
  in
  let r =
    if jobs = 1 then (run_worker ~reg:obs 0).outcome
    else begin
      let workers =
        Par.run ~jobs (fun w ->
            run_worker ~reg:(Option.map (fun _ -> Obs.create ()) obs) w)
      in
      Option.iter
        (fun into ->
          Obs.merge_children ~into
            (Array.of_list (List.filter_map (fun w -> w.reg) (Array.to_list workers))))
        obs;
      merge_portfolio ~strategy ~max_solutions ~k workers
    end
  in
  Option.iter
    (fun obs ->
      List.iter
        (fun sol ->
          Obs.observe obs (obs_prefix ^ "/solution_size") (List.length sol))
        r.solutions;
      Telemetry.record_run obs ~prefix:obs_prefix
        ~solutions:(List.length r.solutions) ~solver_calls:r.solver_calls
        ~truncated:r.truncated r.stats;
      Obs.record_span obs (obs_prefix ^ "/cnf") r.cnf_time;
      Obs.record_span obs (obs_prefix ^ "/solve") r.all_time)
    obs;
  r

let first_solution ?candidates ?force_zero ?hints ~k c tests =
  let r = diagnose ?candidates ?force_zero ?hints ~max_solutions:1 ~k c tests in
  match r.solutions with [] -> None | sol :: _ -> Some sol
