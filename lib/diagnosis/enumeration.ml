module Outcome = struct
  type 'extra outcome = {
    solutions : int list list;
    cnf_time : float;
    one_time : float;
    all_time : float;
    truncated : bool;
    solver_calls : int;
    stats : Sat.Solver.stats;
    cert_checks : int;
    cert_failures : string list;
    extra : 'extra;
  }
end

type strategy = Incremental_k | Minimize_single_pass

type run = {
  found : int list list;
  calls : int;
  cut : bool;
  completed : int;
  first_at : float option;
}

let shrink ~budget ~on_call inst sol =
  let all_candidates = Array.to_list (Encode.Select.candidate_gates inst) in
  let keep_off in_candidate =
    List.filter_map
      (fun g ->
        if Hashtbl.mem in_candidate g then None
        else Some (Sat.Lit.negate (Encode.Select.select_lit inst g)))
      all_candidates
  in
  let rec drop kept_rev = function
    | [] -> Some (List.sort Int.compare kept_rev)
    | g :: rest -> (
        (* same membership order as the quadratic kept @ rest original:
           tie-break order must not change *)
        let candidate = List.rev_append kept_rev rest in
        let in_candidate = Hashtbl.create 16 in
        List.iter (fun h -> Hashtbl.replace in_candidate h ()) candidate;
        let extra =
          List.map (Encode.Select.select_lit inst) candidate
          @ keep_off in_candidate
        in
        on_call ();
        match
          Encode.Select.solve_at_most_limited ~extra ~budget inst
            (List.length candidate)
        with
        | Sat.Solver.Solved Sat.Solver.Sat -> drop kept_rev rest
        | Sat.Solver.Solved Sat.Solver.Unsat -> drop (g :: kept_rev) rest
        | Sat.Solver.Unknown -> None)
  in
  drop [] sol

let enumerate ?(strategy = Incremental_k) ?(cubes = [ [] ]) ?guard ?found
    ?(max_solutions = max_int) ~budget ~k inst =
  let found = match found with Some n -> n | None -> Atomic.make 0 in
  let sols = ref [] in
  let calls = ref 0 in
  let cut = ref false in
  let first_at = ref None in
  let on_call () = incr calls in
  let record sol =
    if !first_at = None then first_at := Some (Obs.Clock.wall ());
    sols := sol :: !sols;
    Atomic.incr found;
    Encode.Select.block ?unless:guard inst sol
  in
  (* solve at one limit until Unsat (true) or until cut short (false) *)
  let rec level ~extra i =
    if Atomic.get found >= max_solutions || Sat.Budget.exhausted budget then
      false
    else begin
      on_call ();
      match Encode.Select.solve_at_most_limited ~extra ~budget inst i with
      | Sat.Solver.Solved Sat.Solver.Unsat -> true
      | Sat.Solver.Solved Sat.Solver.Sat -> (
          let sol = Encode.Select.solution inst in
          match strategy with
          | Incremental_k ->
              record sol;
              level ~extra i
          | Minimize_single_pass -> (
              match shrink ~budget ~on_call inst sol with
              | Some s ->
                  record s;
                  level ~extra i
              | None ->
                  (* the budget died mid-shrink: the set may not be
                     essential, so it is discarded *)
                  false))
      | Sat.Solver.Unknown -> false
    end
  in
  let limits =
    match strategy with
    | Incremental_k -> List.init k (fun i -> i + 1)
    | Minimize_single_pass -> [ k ]
  in
  (* the deepest limit of a cube enumerated to Unsat; a cut stops the
     cube, not the remaining cubes (each re-checks the cap and budget) *)
  let rec limits_done ~extra deepest = function
    | [] -> deepest
    | i :: rest ->
        if level ~extra i then limits_done ~extra i rest
        else begin
          cut := true;
          deepest
        end
  in
  let completed =
    List.fold_left
      (fun acc cube ->
        let extra = match guard with None -> cube | Some g -> cube @ [ g ] in
        min acc (limits_done ~extra 0 limits))
      k cubes
  in
  {
    found = List.rev !sols;
    calls = !calls;
    cut = !cut;
    completed;
    first_at = !first_at;
  }

let outcome ~start ~cnf_time ~stats ~extra inst r =
  {
    Outcome.solutions = Solutions.canonical r.found;
    cnf_time;
    one_time = Option.fold ~none:0.0 ~some:(fun t -> t -. start) r.first_at;
    all_time = Obs.Clock.wall () -. start;
    truncated = r.cut;
    solver_calls = r.calls;
    stats;
    cert_checks = Encode.Select.cert_checks inst;
    cert_failures = Encode.Select.cert_failures inst;
    extra;
  }

(* A portfolio's solution space is partitioned into disjoint cubes over
   the first select lines; each worker enumerates its cubes to its own
   outcome and reports its fence (the [completed] of its run).  A
   cube-minimal solution that is not globally minimal contains a smaller
   solution living in another cube, so filtering the merged union down
   to inclusion-minimal sets recovers exactly the sequential
   essential-solution set, and the canonical sort makes the list
   byte-identical to [jobs = 1]. *)
let merge_portfolio ~strategy ~max_solutions ~k workers =
  let outcomes = Array.map fst workers in
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let max_time f =
    Array.fold_left (fun acc o -> Float.max acc (f o)) 0.0 outcomes
  in
  (* a solution of size <= fence+1 that is not essential contains an
     essential one of size <= fence, which every worker's every cube
     enumerated to Unsat — so it is present in the union and the
     inclusion-minimal filter removes the superset.  Above the fence a
     dominator may have been lost to the budget; those solutions are
     dropped (the run is already marked truncated).  A single pass has
     no levels to fence. *)
  let fence =
    match strategy with
    | Incremental_k -> Array.fold_left (fun acc (_, f) -> min acc f) k workers
    | Minimize_single_pass -> k
  in
  let merged =
    Array.to_list outcomes
    |> List.concat_map (fun o -> o.Outcome.solutions)
    |> Solutions.canonical |> Solutions.minimal_only
    |> List.filter (fun s -> List.length s <= fence + 1)
  in
  let one_time =
    Array.fold_left
      (fun acc o ->
        if o.Outcome.solutions = [] then acc else Float.min acc o.one_time)
      infinity outcomes
  in
  {
    Outcome.solutions = List.filteri (fun i _ -> i < max_solutions) merged;
    cnf_time = max_time (fun o -> o.cnf_time);
    one_time = (if Float.is_finite one_time then one_time else 0.0);
    all_time = max_time (fun o -> o.all_time);
    truncated =
      Array.exists (fun o -> o.Outcome.truncated) outcomes
      || List.length merged > max_solutions;
    solver_calls = sum (fun o -> o.solver_calls);
    stats =
      Array.fold_left
        (fun acc o -> Sat.Solver.sum_stats acc o.Outcome.stats)
        Sat.Solver.zero_stats outcomes;
    (* per-worker certification composes: each worker certifies its own
       cubes' answers, and the cubes cover the solution space *)
    cert_checks = sum (fun o -> o.cert_checks);
    cert_failures =
      Array.to_list outcomes
      |> List.concat_map (fun o -> o.Outcome.cert_failures);
    extra = ();
  }

let portfolio ~strategy ~max_solutions ~k ~jobs worker =
  if jobs = 1 then fst (worker 0)
  else merge_portfolio ~strategy ~max_solutions ~k (Par.run ~jobs worker)
