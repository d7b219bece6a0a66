include Enumeration.Outcome

type engine = Sat_engine | Backtrack_engine

let covers solution sets =
  Array.for_all
    (fun ci -> List.exists (fun g -> List.mem g ci) solution)
    sets

let irredundant solution sets =
  List.for_all
    (fun g -> not (covers (List.filter (( <> ) g) solution) sets))
    solution

(* ---------- SAT engine (the paper's setup: covering solved by Zchaff) *)

(* One worker's covering instance: a select line per gate of the sorted
   union, one clause per candidate set.  Every worker of a portfolio
   builds an identical instance. *)
let build_instance ~k union sets =
  Encode.Select.build ~max_k:k (Sat.Solver.create ())
    (Array.map (fun g -> [| g |]) union)
    (fun e select ->
      Array.iter
        (fun ci ->
          e.Encode.Emit.clause (List.map (fun g -> Option.get (select g)) ci))
        sets)

(* Figure 3's loop over the covering instance.  With the limit raised one
   level at a time, a model at level i has no proper subset that covers:
   that subset would contain an irredundant cover of size < i, found and
   blocked at an earlier level.  So every recorded model is an
   irredundant cover (condition (b) of Fig. 4), and blocking it also
   blocks its supersets.  In a portfolio a model is only irredundant
   within its cube.  Unlike an essential correction, an irredundant
   cover is checkable against the sets alone, so each worker keeps just
   the irredundant covers it found and needs no level fence: a
   cap- or budget-truncated portfolio still returns every irredundant
   cover its workers reached.  Irredundant covers are the
   inclusion-minimal covers, so untruncated, {!Enumeration.portfolio}'s
   merge is the sequential set. *)
let enumerate_sat ~jobs ~max_solutions ~budget ~k sets =
  let union =
    Array.fold_left
      (fun acc ci -> List.fold_left (fun a g -> g :: a) acc ci)
      [] sets
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  let k = min k (Array.length union) in
  let found = Atomic.make 0 in
  let worker w =
    let t0 = Obs.Clock.wall () in
    let inst = build_instance ~k union sets in
    let cubes =
      Sat.Lit.cubes ~jobs (Array.map (Encode.Select.select_lit inst) union) w
    in
    let start = Obs.Clock.wall () in
    let r =
      Enumeration.enumerate ~cubes ~found ~max_solutions ~budget ~k inst
    in
    let o =
      Enumeration.outcome ~start ~cnf_time:(start -. t0)
        ~stats:(Sat.Solver.stats (Encode.Select.solver inst))
        ~extra:() inst r
    in
    let solutions = List.filter (fun s -> irredundant s sets) o.solutions in
    ({ o with solutions }, k)
  in
  Enumeration.portfolio ~strategy:Incremental_k ~max_solutions ~k ~jobs worker

(* ---------- branch-and-bound oracle ---------- *)

let enumerate_backtrack ~max_solutions ~budget ~k sets =
  let start = Obs.Clock.wall () in
  let found = Hashtbl.create 64 in
  let solutions = ref [] in
  let one_time = ref 0.0 in
  let truncated = ref false in
  let record sol =
    let key = List.sort Int.compare sol in
    if (not (Hashtbl.mem found key)) && irredundant key sets then begin
      if Hashtbl.length found = 0 then one_time := Obs.Clock.wall () -. start;
      Hashtbl.add found key ();
      solutions := key :: !solutions
    end
  in
  let exception Budget in
  let rec go chosen =
    if Hashtbl.length found >= max_solutions || Sat.Budget.exhausted budget
    then begin
      truncated := true;
      raise Budget
    end;
    let uncovered =
      Array.to_list sets
      |> List.filter (fun ci ->
             not (List.exists (fun g -> List.mem g chosen) ci))
    in
    match uncovered with
    | [] -> record chosen
    | _ when List.length chosen >= k -> ()
    | _ ->
        (* branch on the smallest uncovered set *)
        let smallest =
          List.fold_left
            (fun best ci ->
              if List.length ci < List.length best then ci else best)
            (List.hd uncovered) (List.tl uncovered)
        in
        List.iter
          (fun g -> if not (List.mem g chosen) then go (g :: chosen))
          smallest
  in
  (try go [] with Budget -> ());
  {
    solutions = Solutions.canonical !solutions;
    cnf_time = 0.0;
    one_time = !one_time;
    all_time = Obs.Clock.wall () -. start;
    truncated = !truncated;
    solver_calls = 0;
    stats = Sat.Solver.zero_stats;
    cert_checks = 0;
    cert_failures = [];
    extra = ();
  }

let run_engine ~engine ~max_solutions ~budget ~jobs ~k sets =
  let budget =
    match budget with Some b -> b | None -> Sat.Budget.unlimited ()
  in
  match engine with
  | Backtrack_engine -> enumerate_backtrack ~max_solutions ~budget ~k sets
  | Sat_engine when covers [] sets ->
      (* no sets to hit (m = 0): the empty cover is the unique
         irredundant solution, exactly as the backtrack engine reports *)
      enumerate_backtrack ~max_solutions ~budget ~k sets
  | Sat_engine -> enumerate_sat ~jobs ~max_solutions ~budget ~k sets

let enumerate ?(engine = Sat_engine) ?(max_solutions = max_int) ?budget
    ?(jobs = 1) ~k sets =
  let jobs = Par.clamp_jobs jobs in
  let r = run_engine ~engine ~max_solutions ~budget ~jobs ~k sets in
  (r.solutions, r.truncated)

let diagnose ?(engine = Sat_engine) ?tie_break ?(max_solutions = max_int)
    ?budget ?obs ?(jobs = 1) ~k c tests =
  let jobs = Par.clamp_jobs jobs in
  let t0 = Obs.Clock.wall () in
  let bsim = Bsim.diagnose ?tie_break ?obs ~jobs c tests in
  let bsim_time = Obs.Clock.wall () -. t0 in
  let r =
    Telemetry.phase obs "cov/enumerate"
      ~payload:(fun r -> List.length r.solutions)
      (fun () ->
        run_engine ~engine ~max_solutions ~budget ~jobs ~k
          bsim.Bsim.candidate_sets)
  in
  (match obs with
  | None -> ()
  | Some o ->
      List.iter
        (fun sol -> Obs.observe o "cov/solution_size" (List.length sol))
        r.solutions;
      Obs.add o "cov/solutions" (List.length r.solutions);
      Obs.add o "cov/truncated" (if r.truncated then 1 else 0));
  { r with cnf_time = bsim_time +. r.cnf_time; extra = bsim }
