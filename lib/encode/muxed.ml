module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Lit = Sat.Lit

(* What every test copy of one instance shares. *)
type shared = {
  emit : Emit.t;
  circ : Circuit.t;
  force_zero : bool;
  group_of : (int, int) Hashtbl.t;   (* gate id -> group index *)
  selects : int array;               (* group index -> select var *)
  truth : int;                       (* the constant-true var *)
  live : bool array;                 (* gate id -> in a candidate's fan-out *)
  cones : bool array Lazy.t array;   (* output index -> its fan-in cone *)
}

type t = {
  solver : Sat.Solver.t;
  sh : shared;
  groups : int array array;          (* group index -> member gate ids *)
  counter : Cardinality.t;
  mutable tests : Sim.Testgen.test array;
  mutable copies : int array array;
      (* test index -> gate id -> literal code, -1 outside the cone *)
  mutable corrections : int array array; (* test index -> gate id -> c var *)
  cert : Sat.Certify.t option;
}

(* One circuit copy constrained by one test, over the fan-in cone of the
   test's output only.  A cone gate outside every candidate's fan-out
   keeps its fault-free value whatever the corrections are, so it is
   folded to its simulated value, a literal of [truth]. *)
let encode_copy sh (test : Sim.Testgen.test) =
  let e = sh.emit and circ = sh.circ in
  let cone = Lazy.force sh.cones.(test.Sim.Testgen.po_index) in
  let sim = Sim.Simulator.eval circ test.Sim.Testgen.vector in
  let n = Circuit.size circ in
  let y = Array.make n (-1) in
  let corr = Array.make n (-1) in
  let set g l = y.(g) <- Lit.code l in
  Array.iter
    (fun g ->
      if cone.(g) then
        if not sh.live.(g) then set g (Lit.make sh.truth sim.(g))
        else
          let kind = circ.Circuit.kinds.(g) in
          let fanin_lits =
            Array.map (fun h -> Lit.of_code y.(h)) circ.Circuit.fanins.(g)
          in
          match Hashtbl.find_opt sh.group_of g with
          | None ->
              let v = e.Emit.fresh () in
              set g (Lit.pos v);
              Tseitin.gate_clauses e ~out:(Lit.pos v) kind fanin_lits
          | Some gi ->
              let f = e.Emit.fresh () in
              Tseitin.gate_clauses e ~out:(Lit.pos f) kind fanin_lits;
              let c = e.Emit.fresh () in
              corr.(g) <- c;
              let out = e.Emit.fresh () in
              set g (Lit.pos out);
              let s = Lit.pos sh.selects.(gi) in
              let cl = Lit.pos c and fl = Lit.pos f and ol = Lit.pos out in
              (* out = s ? c : f *)
              e.Emit.clause [ Lit.negate s; Lit.negate cl; ol ];
              e.Emit.clause [ Lit.negate s; cl; Lit.negate ol ];
              e.Emit.clause [ s; Lit.negate fl; ol ];
              e.Emit.clause [ s; fl; Lit.negate ol ];
              if sh.force_zero then e.Emit.clause [ s; Lit.negate cl ])
    circ.Circuit.topo;
  let out = Lit.of_code y.(circ.Circuit.outputs.(test.Sim.Testgen.po_index)) in
  e.Emit.clause [ (if test.Sim.Testgen.expected then out else Lit.negate out) ];
  (y, corr)

let build ?mirror ?candidates ?(groups = []) ?(force_zero = false)
    ?(certify = false) ~max_k solver circ tests =
  let cert = if certify then Some (Sat.Certify.create solver) else None in
  let e =
    match mirror with
    | None -> Emit.of_solver solver
    | Some cnf -> Emit.tee (Emit.of_solver solver) cnf
  in
  (* the checker must see every input clause the solver sees *)
  let e = Emit.checked cert e in
  let tests = Array.of_list tests in
  let groups =
    let explicit =
      List.map (fun g -> Array.of_list (List.sort_uniq Int.compare g)) groups
    in
    let singles =
      match (candidates, explicit) with
      | Some gs, _ -> List.map (fun g -> [| g |]) (List.sort_uniq Int.compare gs)
      | None, [] ->
          Array.to_list (Array.map (fun g -> [| g |]) (Circuit.gate_ids circ))
      | None, _ :: _ -> []
    in
    Array.of_list (explicit @ singles)
  in
  let group_of = Hashtbl.create 64 in
  Array.iteri
    (fun i members ->
      Array.iter
        (fun g ->
          if Circuit.is_input circ g then
            invalid_arg "Muxed.build: primary inputs cannot be candidates";
          if Hashtbl.mem group_of g then
            invalid_arg "Muxed.build: gate in two groups";
          Hashtbl.add group_of g i)
        members)
    groups;
  let selects = Array.map (fun _ -> e.Emit.fresh ()) groups in
  let truth = e.Emit.fresh () in
  e.Emit.clause [ Lit.pos truth ];
  let sh =
    {
      emit = e;
      circ;
      force_zero;
      group_of;
      selects;
      truth;
      live =
        Netlist.Structural.fanout_cone circ
          (List.concat_map Array.to_list (Array.to_list groups));
      cones =
        Array.map
          (fun o -> lazy (Netlist.Structural.fanin_cone circ [ o ]))
          circ.Circuit.outputs;
    }
  in
  let pairs = Array.map (encode_copy sh) tests in
  let counter =
    Cardinality.encode_at_most e
      ~lits:(Array.to_list (Array.map Lit.pos selects))
      ~max_bound:(min max_k (Array.length selects))
  in
  {
    solver;
    sh;
    groups;
    counter;
    tests;
    copies = Array.map fst pairs;
    corrections = Array.map snd pairs;
    cert;
  }

let cert_checks t = Option.fold ~none:0 ~some:Sat.Certify.checks t.cert
let cert_failures t = Option.fold ~none:[] ~some:Sat.Certify.failures t.cert

let add_test t test =
  let y, corr = encode_copy t.sh test in
  t.tests <- Array.append t.tests [| test |];
  t.copies <- Array.append t.copies [| y |];
  t.corrections <- Array.append t.corrections [| corr |]

let circuit t = t.sh.circ

let candidate_gates t =
  Array.concat (Array.to_list t.groups)
  |> Array.to_list |> List.sort_uniq Int.compare |> Array.of_list

let num_tests t = Array.length t.tests

let select_lit t g =
  match Hashtbl.find_opt t.sh.group_of g with
  | Some i -> Lit.pos t.sh.selects.(i)
  | None -> raise Not_found

let num_groups t = Array.length t.sh.selects

let solve_at_most_limited ?(extra = []) ~budget t k =
  let bound = Cardinality.bound_assumption t.counter (min k (num_groups t)) in
  Sat.Certify.solve ?cert:t.cert ~assumptions:(bound @ extra) ~budget t.solver

let solve_at_most ?extra t k =
  match solve_at_most_limited ?extra ~budget:(Sat.Budget.unlimited ()) t k with
  | Sat.Solver.Solved r -> r
  | Sat.Solver.Unknown -> assert false (* an unlimited budget never runs out *)

let selected_group_indices t =
  List.filter
    (fun i -> Sat.Solver.value t.solver t.sh.selects.(i))
    (List.init (num_groups t) Fun.id)

let solution t =
  selected_group_indices t
  |> List.map (fun i -> Array.fold_left min max_int t.groups.(i))
  |> List.sort Int.compare

let solution_groups t =
  selected_group_indices t
  |> List.map (fun i -> Array.to_list t.groups.(i))

let correction_var t ~test ~gate =
  let v = t.corrections.(test).(gate) in
  if v < 0 then raise Not_found;
  v

let correction_value t ~test ~gate =
  Sat.Solver.value t.solver (correction_var t ~test ~gate)

let block ?unless t gates =
  let group_index g =
    match Hashtbl.find_opt t.sh.group_of g with
    | Some i -> i
    | None -> invalid_arg "Muxed.block: non-candidate gate in solution"
  in
  let group_indices = List.map group_index gates |> List.sort_uniq Int.compare in
  let clause =
    List.map (fun i -> Lit.negate (Lit.pos t.sh.selects.(i))) group_indices
  in
  let clause =
    match unless with None -> clause | Some a -> Lit.negate a :: clause
  in
  (* through the emit hook, not the raw solver: the certification
     checker (and any mirror) must see blocking clauses too *)
  t.sh.emit.Emit.clause clause

let assert_clause t lits = t.sh.emit.Emit.clause lits
let fresh_activation t = Lit.pos (t.sh.emit.Emit.fresh ())

let gate_value t ~test ~gate =
  let code = t.copies.(test).(gate) in
  if code < 0 then raise Not_found;
  let l = Lit.of_code code in
  Sat.Solver.value t.solver (Lit.var l) = Lit.sign l

let export_dimacs ?candidates ?groups ?force_zero ~k circ tests =
  let cnf = Sat.Cnf.create () in
  let solver = Sat.Solver.create () in
  let t =
    build ~mirror:cnf ?candidates ?groups ?force_zero ~max_k:k solver circ
      tests
  in
  (* freeze the bound: the assumption literals become unit clauses *)
  List.iter
    (fun l -> Sat.Cnf.add_clause cnf [ l ])
    (Cardinality.bound_assumption t.counter (min k (num_groups t)));
  Sat.Cnf.to_dimacs cnf
