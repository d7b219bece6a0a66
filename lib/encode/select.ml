module Lit = Sat.Lit

type 'a t = {
  solver : Sat.Solver.t;
  emit : Emit.t;
  groups : int array array;           (* group index -> member gate ids *)
  group_of : (int, int) Hashtbl.t;    (* gate id -> group index *)
  selects : int array;                (* group index -> select var *)
  counter : Cardinality.t;
  cert : Sat.Certify.t option;
  body : 'a;
}

let build ?mirror ?(certify = false) ~max_k solver groups encode =
  let cert = if certify then Some (Sat.Certify.create solver) else None in
  let e =
    match mirror with
    | None -> Emit.of_solver solver
    | Some cnf -> Emit.tee (Emit.of_solver solver) cnf
  in
  (* the checker must see every input clause the solver sees *)
  let e = Emit.checked cert e in
  let group_of = Hashtbl.create 64 in
  Array.iteri
    (fun i members ->
      Array.iter
        (fun g ->
          if Hashtbl.mem group_of g then
            invalid_arg "Select.build: gate in two groups";
          Hashtbl.add group_of g i)
        members)
    groups;
  let selects = Array.map (fun _ -> e.Emit.fresh ()) groups in
  let select g =
    Option.map (fun i -> Lit.pos selects.(i)) (Hashtbl.find_opt group_of g)
  in
  let body = encode e select in
  let counter =
    Cardinality.encode_at_most e
      ~lits:(Array.to_list (Array.map Lit.pos selects))
      ~max_bound:(min max_k (Array.length selects))
  in
  { solver; emit = e; groups; group_of; selects; counter; cert; body }

let body t = t.body
let solver t = t.solver
let num_groups t = Array.length t.selects

let candidate_gates t =
  Array.concat (Array.to_list t.groups)
  |> Array.to_list |> List.sort_uniq Int.compare |> Array.of_list

let select_lit t g =
  match Hashtbl.find_opt t.group_of g with
  | Some i -> Lit.pos t.selects.(i)
  | None -> raise Not_found

let at_most t k = Cardinality.bound_assumption t.counter (min k (num_groups t))

let solve_at_most_limited ?(extra = []) ~budget t k =
  Sat.Certify.solve ?cert:t.cert ~assumptions:(at_most t k @ extra) ~budget
    t.solver

let solve_at_most ?extra t k =
  match solve_at_most_limited ?extra ~budget:(Sat.Budget.unlimited ()) t k with
  | Sat.Solver.Solved r -> r
  | Sat.Solver.Unknown -> assert false (* an unlimited budget never runs out *)

let selected_group_indices t =
  List.filter
    (fun i -> Sat.Solver.value t.solver t.selects.(i))
    (List.init (num_groups t) Fun.id)

let solution t =
  selected_group_indices t
  |> List.map (fun i -> Array.fold_left min max_int t.groups.(i))
  |> List.sort Int.compare

let solution_groups t =
  selected_group_indices t |> List.map (fun i -> Array.to_list t.groups.(i))

let block ?unless t gates =
  let group_index g =
    match Hashtbl.find_opt t.group_of g with
    | Some i -> i
    | None -> invalid_arg "Select.block: non-candidate gate in solution"
  in
  let group_indices =
    List.map group_index gates |> List.sort_uniq Int.compare
  in
  let clause =
    List.map (fun i -> Lit.negate (Lit.pos t.selects.(i))) group_indices
  in
  let clause =
    match unless with None -> clause | Some a -> Lit.negate a :: clause
  in
  (* through the emit hook, not the raw solver: the certification
     checker (and any mirror) must see blocking clauses too *)
  t.emit.Emit.clause clause

let assert_clause t lits = t.emit.Emit.clause lits
let fresh_activation t = Lit.pos (t.emit.Emit.fresh ())
let cert_checks t = Option.fold ~none:0 ~some:Sat.Certify.checks t.cert
let cert_failures t = Option.fold ~none:[] ~some:Sat.Certify.failures t.cert
