(* Tests for equivalence checking (miter) and automatic rectification. *)

module C = Netlist.Circuit
module G = Netlist.Gate

(* ---------- miter ---------- *)

let test_miter_equivalent_self () =
  let c = Netlist.Generators.alu 3 in
  Alcotest.(check bool) "self-equivalent" true
    (Encode.Miter.check ~spec:c ~impl:c = Encode.Miter.Equivalent)

let test_miter_equivalent_different_structure () =
  (* ripple-carry and carry-lookahead adders implement the same function *)
  let rca = Netlist.Generators.ripple_carry_adder 4 in
  let cla = Netlist.Generators.carry_lookahead_adder 4 in
  Alcotest.(check bool) "rca = cla" true
    (Encode.Miter.check ~spec:rca ~impl:cla = Encode.Miter.Equivalent)

let test_miter_counterexample_is_real () =
  let spec = Netlist.Generators.ripple_carry_adder 4 in
  let impl, _ = Sim.Injector.inject ~seed:3 ~num_errors:1 spec in
  match Encode.Miter.check ~spec ~impl with
  | Encode.Miter.Equivalent -> Alcotest.fail "injected error must show"
  | Encode.Miter.Counterexample t ->
      Alcotest.(check bool) "impl fails the triple" true
        (Sim.Testgen.fails impl t);
      Alcotest.(check bool) "spec satisfies the triple" true
        (not (Sim.Testgen.fails spec t))

let test_miter_counterexamples_distinct () =
  let spec = Netlist.Generators.parity_tree 5 in
  let impl = C.with_kinds spec [ (spec.C.outputs.(0), G.Xnor) ] in
  let tests = Encode.Miter.counterexamples ~limit:6 ~spec ~impl () in
  Alcotest.(check int) "six found (all vectors fail)" 6 (List.length tests);
  let vectors = List.map (fun t -> t.Sim.Testgen.vector) tests in
  Alcotest.(check int) "vectors distinct" 6
    (List.length (List.sort_uniq compare vectors));
  List.iter
    (fun t ->
      Alcotest.(check bool) "real failure" true (Sim.Testgen.fails impl t))
    tests

let test_miter_interface_mismatch () =
  let a = Netlist.Generators.parity_tree 3 in
  let b = Netlist.Generators.parity_tree 4 in
  Alcotest.(check bool) "rejected" true
    (match Encode.Miter.check ~spec:a ~impl:b with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- rectify ---------- *)

let workload seed p =
  let golden =
    Netlist.Generators.random_dag ~seed ~num_inputs:8 ~num_gates:60
      ~num_outputs:4 ()
  in
  let faulty, errors = Sim.Injector.inject ~seed:(seed + 1) ~num_errors:p golden in
  let tests =
    Sim.Testgen.generate ~seed:(seed + 2) ~max_vectors:4096 ~wanted:10
      ~golden ~faulty
  in
  (golden, faulty, errors, tests)

let test_rectify_single_error () =
  let repaired_count = ref 0 in
  for seed = 1 to 10 do
    let _, faulty, _, tests = workload seed 1 in
    if tests <> [] then begin
      match Diagnosis.Rectify.rectify ~k:1 faulty tests with
      | None -> Alcotest.failf "seed %d: rectification failed" seed
      | Some r ->
          incr repaired_count;
          List.iter
            (fun t ->
              Alcotest.(check bool) "repaired passes" true
                (not (Sim.Testgen.fails r.Diagnosis.Rectify.repaired t)))
            tests
    end
  done;
  Alcotest.(check bool) "exercised" true (!repaired_count > 0)

let test_rectify_restores_golden_kind () =
  (* flip one gate kind; the rectifier applied at the real site should
     propose a kind with the same behaviour on the witness table *)
  let golden = Netlist.Generators.ripple_carry_adder 4 in
  let g =
    match
      Array.find_opt
        (fun g -> golden.C.kinds.(g) = G.Xor)
        (C.gate_ids golden)
    with
    | Some g -> g
    | None -> Alcotest.fail "no XOR gate in the adder"
  in
  let faulty = C.with_kinds golden [ (g, G.And) ] in
  Alcotest.(check bool) "setup" true (golden.C.kinds.(g) = G.Xor);
  let tests =
    Sim.Testgen.generate ~seed:9 ~max_vectors:4096 ~wanted:12 ~golden ~faulty
  in
  match Diagnosis.Rectify.rectify ~k:1 faulty tests with
  | None -> Alcotest.fail "must rectify"
  | Some r ->
      List.iter
        (fun t ->
          Alcotest.(check bool) "passes" true
            (not (Sim.Testgen.fails r.Diagnosis.Rectify.repaired t)))
        tests

let test_rectify_multi_error () =
  let fixed = ref 0 in
  for seed = 20 to 26 do
    let _, faulty, _, tests = workload seed 2 in
    if tests <> [] then
      match Diagnosis.Rectify.rectify ~k:2 faulty tests with
      | None -> ()
      | Some r ->
          incr fixed;
          List.iter
            (fun t ->
              Alcotest.(check bool) "passes" true
                (not (Sim.Testgen.fails r.Diagnosis.Rectify.repaired t)))
            tests
  done;
  Alcotest.(check bool) "rectified most double errors" true (!fixed >= 4)

let test_rectify_disjoint_cones () =
  (* one error in each of two disjoint output cones: each solution gate
     lies outside the cone of the other output's tests, which place no
     constraint on it, and the repair must still pass every test *)
  let module B = Netlist.Builder in
  let b = B.create ~name:"two_cones" in
  let x0 = B.input b and x1 = B.input b and x2 = B.input b in
  let a1 = B.and_ b x0 x1 in
  B.output b (B.or_ b a1 x2);
  let y0 = B.input b and y1 = B.input b and y2 = B.input b in
  let b1 = B.xor_ b y0 y1 in
  B.output b (B.and_ b b1 y2);
  let golden = B.build b in
  let faulty = C.with_kinds golden [ (a1, G.Or); (b1, G.Or) ] in
  let tests = Sim.Testgen.exhaustive ~golden ~faulty in
  let on_output o = List.exists (fun t -> t.Sim.Testgen.po_index = o) tests in
  Alcotest.(check bool) "both outputs fail" true (on_output 0 && on_output 1);
  match Diagnosis.Rectify.rectify ~k:2 faulty tests with
  | None -> Alcotest.fail "must rectify"
  | Some r ->
      Alcotest.(check (list int)) "one gate per cone" [ a1; b1 ]
        r.Diagnosis.Rectify.solution;
      List.iter
        (fun t ->
          Alcotest.(check bool) "repaired passes" true
            (not (Sim.Testgen.fails r.Diagnosis.Rectify.repaired t)))
        tests

let test_rectify_full_equivalence_loop () =
  (* counterexample-guided repair: accumulate miter counterexamples and
     rectify the original implementation against all of them, until the
     miter proves the repair equivalent to the spec *)
  let spec = Netlist.Generators.comparator 3 in
  let impl, _ = Sim.Injector.inject ~seed:31 ~num_errors:1 spec in
  let rec loop current tests round =
    if round > 8 then Alcotest.fail "loop did not converge"
    else
      match Encode.Miter.check ~spec ~impl:current with
      | Encode.Miter.Equivalent -> round
      | Encode.Miter.Counterexample _ -> (
          let fresh =
            Encode.Miter.counterexamples ~limit:12 ~spec ~impl:current ()
          in
          (* counterexamples of the candidate repair, replayed against the
             original implementation's diagnosis instance *)
          let tests = tests @ fresh in
          match Diagnosis.Rectify.rectify ~k:1 impl tests with
          | None -> Alcotest.fail "no repair for the counterexamples"
          | Some r -> loop r.Diagnosis.Rectify.repaired tests (round + 1))
  in
  let rounds = loop impl [] 0 in
  Alcotest.(check bool) "converged" true (rounds >= 1)

let test_apply_kind_change_only () =
  (* a witness matching a standard kind must not grow the circuit *)
  let golden = Netlist.Generators.parity_tree 3 in
  let out = golden.C.outputs.(0) in
  let w =
    { Diagnosis.Rectify.gate = out;
      table = [ ([| false; false |], true); ([| true; false |], false) ] }
  in
  (* this table is XNOR-compatible *)
  Alcotest.(check bool) "xnor consistent" true
    (List.mem G.Xnor (Diagnosis.Rectify.consistent_kinds golden w));
  let repaired = Diagnosis.Rectify.apply golden [ w ] in
  Alcotest.(check int) "no new gates" (C.size golden) (C.size repaired)

let test_apply_minterm_patch () =
  (* an inconsistent-with-standard-kinds table forces a patch *)
  let b = Netlist.Builder.create ~name:"p" in
  let x = Netlist.Builder.input ~name:"x" b in
  let y = Netlist.Builder.input ~name:"y" b in
  let z = Netlist.Builder.input ~name:"z" b in
  let g = Netlist.Builder.gate ~name:"g" b G.And [ x; y; z ] in
  Netlist.Builder.output b g;
  let c = Netlist.Builder.build b in
  let gid = C.id_of_name c "g" in
  (* required: 110 -> 1 (AND gives 0), 111 -> 0 (AND gives 1): matches no
     standard kind together with 000 -> 0 *)
  let w =
    { Diagnosis.Rectify.gate = gid;
      table =
        [ ([| true; true; false |], true); ([| true; true; true |], false);
          ([| false; false; false |], false) ] }
  in
  Alcotest.(check (list string)) "no standard kind" []
    (List.map G.to_string (Diagnosis.Rectify.consistent_kinds c w));
  let repaired = Diagnosis.Rectify.apply c [ w ] in
  Alcotest.(check bool) "grew" true (C.size repaired > C.size c);
  List.iter
    (fun (vals, req) ->
      let out = (Sim.Simulator.outputs repaired vals).(0) in
      Alcotest.(check bool) "table realized" req out)
    w.Diagnosis.Rectify.table;
  (* unconstrained combinations keep the original behaviour *)
  let out = (Sim.Simulator.outputs repaired [| false; true; true |]).(0) in
  Alcotest.(check bool) "unconstrained preserved" false out

let () =
  Alcotest.run "rectify"
    [
      ( "miter",
        [
          Alcotest.test_case "self equivalence" `Quick test_miter_equivalent_self;
          Alcotest.test_case "rca = cla" `Quick
            test_miter_equivalent_different_structure;
          Alcotest.test_case "counterexample real" `Quick
            test_miter_counterexample_is_real;
          Alcotest.test_case "distinct counterexamples" `Quick
            test_miter_counterexamples_distinct;
          Alcotest.test_case "interface mismatch" `Quick
            test_miter_interface_mismatch;
        ] );
      ( "rectify",
        [
          Alcotest.test_case "single error" `Quick test_rectify_single_error;
          Alcotest.test_case "kind restored" `Quick
            test_rectify_restores_golden_kind;
          Alcotest.test_case "multi error" `Quick test_rectify_multi_error;
          Alcotest.test_case "disjoint output cones" `Quick
            test_rectify_disjoint_cones;
          Alcotest.test_case "equivalence loop" `Quick
            test_rectify_full_equivalence_loop;
          Alcotest.test_case "kind change only" `Quick
            test_apply_kind_change_only;
          Alcotest.test_case "minterm patch" `Quick test_apply_minterm_patch;
        ] );
    ]
