module Dominators = Netlist.Dominators

include Enumeration.Outcome

type refinement = { pass1_solutions : int list list }

type result = refinement outcome

(* [then_] ran after [first] and narrowed it: its solutions, counters
   and extra stand, the passes' calls, certifications and times add up *)
let followed_by (first : Bsat.result) (then_ : Bsat.result) =
  {
    then_ with
    cnf_time = first.cnf_time +. then_.cnf_time;
    all_time = first.all_time +. then_.all_time;
    truncated = first.truncated || then_.truncated;
    solver_calls = first.solver_calls + then_.solver_calls;
    cert_checks = first.cert_checks + then_.cert_checks;
    cert_failures = first.cert_failures @ then_.cert_failures;
  }

(* Inner Bsat runs are deliberately not handed [obs]: their per-call
   counters would double-count against the final-pass snapshot recorded
   here.  Phase events around each pass carry the trajectory instead.
   [t0] restates [all_time] as the whole run, preprocessing included;
   the refined solutions are settled only when the run ends, so that is
   also the time to the first one. *)
let finish obs prefix ~t0 ~pass1 (r : Bsat.result) =
  let all_time = Obs.Clock.wall () -. t0 in
  let r =
    {
      r with
      one_time = (if r.solutions = [] then 0.0 else all_time);
      all_time;
      extra = { pass1_solutions = pass1.Bsat.solutions };
    }
  in
  Option.iter
    (fun obs ->
      Telemetry.record_run obs ~prefix
        ~solutions:(List.length r.solutions)
        ~solver_calls:r.solver_calls ~truncated:r.truncated r.stats;
      Obs.record_span obs (prefix ^ "/total") r.all_time)
    obs;
  r

let diagnose_dominators ?max_solutions ?budget ?obs ?certify ?jobs ~k c tests =
  let t0 = Obs.Clock.wall () in
  let dom = Dominators.compute c in
  let skeleton = Dominators.nontrivial dom in
  (* one budget spans both passes: the refinement pass only gets what the
     skeleton pass left over *)
  let pass1 =
    Telemetry.phase obs "advsat/pass1"
      ~payload:(fun r -> List.length r.Bsat.solutions)
      (fun () ->
        Bsat.diagnose ~candidates:skeleton ~force_zero:true ?max_solutions
          ?budget ?certify ?jobs ~k c tests)
  in
  (* refine: multiplexers at every implicated dominator and everything it
     dominates *)
  let implicated =
    List.concat_map
      (fun sol ->
        List.concat_map (fun d -> d :: Dominators.region dom d) sol)
      pass1.Bsat.solutions
    |> List.sort_uniq Int.compare
    |> List.filter (fun g -> not (Netlist.Circuit.is_input c g))
  in
  let r =
    match implicated with
    | [] -> pass1
    | _ ->
        followed_by pass1
          (Telemetry.phase obs "advsat/pass2"
             ~payload:(fun r -> List.length r.Bsat.solutions)
             (fun () ->
               Bsat.diagnose ~candidates:implicated ~force_zero:true
                 ?max_solutions ?budget ?certify ?jobs ~k c tests))
  in
  finish obs "advsat/dominators" ~t0 ~pass1 r

let chunks n xs =
  let rec go acc cur count = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if count = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (count + 1) rest
  in
  go [] [] 0 xs

let diagnose_partitioned ?(slice = 8) ?max_solutions ?budget ?obs ?certify
    ?jobs ~k c tests =
  let t0 = Obs.Clock.wall () in
  match chunks slice tests with
  | [] ->
      {
        solutions = [];
        cnf_time = 0.0;
        one_time = 0.0;
        all_time = 0.0;
        truncated = false;
        solver_calls = 0;
        stats = Sat.Solver.zero_stats;
        cert_checks = 0;
        cert_failures = [];
        extra = { pass1_solutions = [] };
      }
  | first :: rest ->
      let solve_slice ?candidates slice_tests =
        Telemetry.phase obs "advsat/slice"
          ~payload:(fun r -> List.length r.Bsat.solutions)
          (fun () ->
            Bsat.diagnose ?candidates ~force_zero:true ?max_solutions ?budget
              ?certify ?jobs ~k c slice_tests)
      in
      let r0 = solve_slice first in
      (* each slice shrinks the candidate pool; solve the next slice over
         the survivors only *)
      let narrow acc next_tests =
        match List.concat acc.solutions |> List.sort_uniq Int.compare with
        | [] -> acc
        | cands ->
            followed_by acc
              (solve_slice ~candidates:cands next_tests)
      in
      let final = List.fold_left narrow r0 rest in
      (* validate survivors against the complete test set *)
      let solutions =
        List.filter (fun sol -> Validity.check_sat c tests sol)
          final.solutions
      in
      finish obs "advsat/partitioned" ~t0 ~pass1:r0 { final with solutions }
