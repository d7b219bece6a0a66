module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Lit = Sat.Lit

(* What every test copy of one instance shares. *)
type shared = {
  emit : Emit.t;
  circ : Circuit.t;
  force_zero : bool;
  select : int -> Lit.t option;      (* gate id -> its group's select *)
  truth : int;                       (* the constant-true var *)
  live : bool array;                 (* gate id -> in a candidate's fan-out *)
  cones : bool array Lazy.t array;   (* output index -> its fan-in cone *)
}

type body = {
  sh : shared;
  mutable tests : Sim.Testgen.test array;
  mutable copies : int array array;
      (* test index -> gate id -> literal code, -1 outside the cone *)
  mutable corrections : int array array; (* test index -> gate id -> c var *)
}

type t = body Select.t

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
          match sh.select g with
          | None ->
              let v = e.Emit.fresh () in
              set g (Lit.pos v);
              Tseitin.gate_clauses e ~out:(Lit.pos v) kind fanin_lits
          | Some s ->
              let f = e.Emit.fresh () in
              Tseitin.gate_clauses e ~out:(Lit.pos f) kind fanin_lits;
              let c = e.Emit.fresh () in
              corr.(g) <- c;
              let out = e.Emit.fresh () in
              set g (Lit.pos out);
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

let build ?mirror ?candidates ?(groups = []) ?(force_zero = false) ?certify
    ~max_k solver circ tests =
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
  Array.iter
    (Array.iter (fun g ->
         if Circuit.is_input circ g then
           invalid_arg "Muxed.build: primary inputs cannot be candidates"))
    groups;
  Select.build ?mirror ?certify ~max_k solver groups (fun e select ->
      let truth = e.Emit.fresh () in
      e.Emit.clause [ Lit.pos truth ];
      let sh =
        {
          emit = e;
          circ;
          force_zero;
          select;
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
      {
        sh;
        tests;
        copies = Array.map fst pairs;
        corrections = Array.map snd pairs;
      })

let add_test t test =
  let b = Select.body t in
  let y, corr = encode_copy b.sh test in
  b.tests <- Array.append b.tests [| test |];
  b.copies <- Array.append b.copies [| y |];
  b.corrections <- Array.append b.corrections [| corr |]

let circuit t = (Select.body t).sh.circ
let num_tests t = Array.length (Select.body t).tests

let correction_var t ~test ~gate =
  let v = (Select.body t).corrections.(test).(gate) in
  if v < 0 then raise Not_found;
  v

let correction_value t ~test ~gate =
  Sat.Solver.value (Select.solver t) (correction_var t ~test ~gate)

let gate_value t ~test ~gate =
  let code = (Select.body t).copies.(test).(gate) in
  if code < 0 then raise Not_found;
  let l = Lit.of_code code in
  Sat.Solver.value (Select.solver t) (Lit.var l) = Lit.sign l

let export_dimacs ?candidates ?groups ?force_zero ~k circ tests =
  let cnf = Sat.Cnf.create () in
  let solver = Sat.Solver.create () in
  let t =
    build ~mirror:cnf ?candidates ?groups ?force_zero ~max_k:k solver circ
      tests
  in
  (* freeze the bound: the assumption literals become unit clauses *)
  List.iter (fun l -> Sat.Cnf.add_clause cnf [ l ]) (Select.at_most t k);
  Sat.Cnf.to_dimacs cnf
