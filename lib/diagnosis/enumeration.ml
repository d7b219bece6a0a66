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
  let all_candidates = Array.to_list (Encode.Muxed.candidate_gates inst) in
  let keep_off in_candidate =
    List.filter_map
      (fun g ->
        if Hashtbl.mem in_candidate g then None
        else Some (Sat.Lit.negate (Encode.Muxed.select_lit inst g)))
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
          List.map (Encode.Muxed.select_lit inst) candidate
          @ keep_off in_candidate
        in
        on_call ();
        match
          Encode.Muxed.solve_at_most_limited ~extra ~budget inst
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
    Encode.Muxed.block ?unless:guard inst sol
  in
  (* solve at one limit until Unsat (true) or until cut short (false) *)
  let rec level ~extra i =
    if Atomic.get found >= max_solutions || Sat.Budget.exhausted budget then
      false
    else begin
      on_call ();
      match Encode.Muxed.solve_at_most_limited ~extra ~budget inst i with
      | Sat.Solver.Solved Sat.Solver.Unsat -> true
      | Sat.Solver.Solved Sat.Solver.Sat -> (
          let sol = Encode.Muxed.solution inst in
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
    cert_checks = Encode.Muxed.cert_checks inst;
    cert_failures = Encode.Muxed.cert_failures inst;
    extra;
  }
