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
      match Encode.Select.select_lit inst g with
      | l -> Sat.Solver.bump_priority solver (Sat.Lit.var l) w
      | exception Not_found -> ())
    hints.priority;
  List.iter
    (fun g ->
      match Encode.Select.select_lit inst g with
      | l -> Sat.Solver.set_default_phase solver (Sat.Lit.var l) true
      | exception Not_found -> ())
    hints.prefer_selected

type strategy = Enumeration.strategy = Incremental_k | Minimize_single_pass

(* Build the instance and enumerate worker [w]'s cubes of a [jobs]-wide
   portfolio.  At [jobs = 1] the single cube is empty and worker 0 gets
   no diversity tweak, so this is exactly the sequential run.  Returns
   the worker's outcome and fence ({!Enumeration.portfolio}). *)
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
  let cands = Encode.Select.candidate_gates inst in
  (* branching diversity between otherwise-identical workers: odd
     workers try selects on first, later workers bump select activity *)
  let select_var g = Sat.Lit.var (Encode.Select.select_lit inst g) in
  if w land 1 = 1 then
    Array.iter (fun g -> Sat.Solver.set_default_phase solver (select_var g) true) cands;
  if w >= 2 then
    Array.iteri
      (fun i g ->
        Sat.Solver.bump_priority solver (select_var g)
          (float_of_int ((i + w) land 7)))
      cands;
  let cubes =
    Sat.Lit.cubes ~jobs (Array.map (Encode.Select.select_lit inst) cands) w
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
  (outcome, r.Enumeration.completed)

(* Solver portfolio: cube [j] of the sign patterns of the first
   L = ⌈log2 jobs⌉ candidate select lines goes to worker [j mod jobs].
   Every worker enumerates its cubes with the sequential algorithm on its
   own instance (so learnt clauses and blocking clauses stay
   worker-local), charging the one shared atomic [budget];
   {!Enumeration.portfolio} runs and merges them.  Worker [w] records
   into [regs.(w)]: [obs] itself on the sequential path, a fresh
   registry per worker otherwise, merged into [obs] afterwards. *)
let diagnose ?candidates ?force_zero ?(hints = no_hints)
    ?(strategy = Incremental_k) ?(max_solutions = max_int) ?budget ?obs
    ?(obs_prefix = "bsat") ?(certify = false) ?(jobs = 1) ~k c tests =
  let budget =
    match budget with Some b -> b | None -> Sat.Budget.unlimited ()
  in
  let jobs = Par.clamp_jobs jobs in
  let found = Atomic.make 0 in
  let regs =
    Array.init jobs (fun _ ->
        if jobs = 1 then obs else Option.map (fun _ -> Obs.create ()) obs)
  in
  let r =
    Enumeration.portfolio ~strategy ~max_solutions ~k ~jobs (fun w ->
        run_worker ~candidates ~force_zero ~hints ~strategy ~max_solutions
          ~budget ~obs_prefix ~certify ~found ~jobs ~k ~reg:regs.(w) c tests w)
  in
  if jobs > 1 then
    Option.iter
      (fun into ->
        Obs.merge_children ~into
          (Array.of_list (List.filter_map Fun.id (Array.to_list regs))))
      obs;
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
