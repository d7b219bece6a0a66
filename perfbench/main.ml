(* The repository's benchmark: three workloads over the diagnosis stack,
   timed from outside the library on a monotonic clock.

     main.exe --workload table2|faultsim|serve --seed N
              --seconds S --trace 0|1

   Every input is generated from the seed.  After set-up, rounds of the
   workload's fixed work repeat until the next one would overrun
   [--seconds]; every answer is checked, and the last line of standard
   output is one JSON object with [correct], [attempted], [failed] and
   [metrics].  With [--trace 0] the metrics are the end-to-end ones; with
   [--trace 1] rounds alternate between untraced and traced, and the
   metrics are the per-layer ones of the traced rounds.  See README.md. *)

module J = Obs.Json
module C = Netlist.Circuit

let scale = 0.12

(* widest fault-simulation run: the machine's cores, at most 4 *)
let jobs_par = max 1 (min 4 (Domain.recommended_domain_count ()))

(* ---------- run state ---------- *)

type ctx = {
  seconds : float;
  trace : bool;
  tr : Meter.tracer;
  mutable attempted : int;
  mutable failed : int;
  items : (string, float list) Hashtbl.t;  (* untraced rounds only *)
  counts : (string, int) Hashtbl.t;        (* this round's work counters *)
  mutable reference_counts : (string * int) list option;
  digests : (string, string) Hashtbl.t;    (* first round's answers *)
  mutable walls : float list;              (* untraced round walls *)
  mutable traced_walls : float list;       (* traced walls minus probes *)
  mutable layer_rounds : (string * float) list list;
  mutable setups : float list;
  mutable setup_parse : float list;        (* parse time of each set-up *)
  mutable parsing : float;                 (* ... of the current one *)
}

let derive seed tag i = Hashtbl.hash (seed, tag, i) land 0x3fff_ffff

let check ctx ok what =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then begin
    ctx.failed <- ctx.failed + 1;
    if ctx.failed <= 10 then prerr_endline ("check failed: " ^ what)
  end

let count ctx name n =
  Hashtbl.replace ctx.counts name
    (n + Option.value (Hashtbl.find_opt ctx.counts name) ~default:0)

let counted ctx name = Option.value (Hashtbl.find_opt ctx.counts name) ~default:0

(* Time one item of the fixed work; untraced samples feed the end-to-end
   metrics. *)
let item ctx key f =
  let r, d = Meter.time f in
  if not ctx.tr.Meter.on then
    Hashtbl.replace ctx.items key
      (d :: Option.value (Hashtbl.find_opt ctx.items key) ~default:[]);
  r

let item_median ctx key =
  match Hashtbl.find_opt ctx.items key with
  | Some (_ :: _ as xs) -> Meter.median xs
  | _ -> 0.0

(* Σ over items of their median time, for the keys with this prefix. *)
let sum_medians ctx prefix =
  Hashtbl.fold
    (fun k xs acc ->
      if String.starts_with ~prefix k && xs <> [] then acc +. Meter.median xs
      else acc)
    ctx.items 0.0

let digest (answer : int list list) = Digest.string (Marshal.to_string answer [])

(* An answer must match the one the first round gave for the same
   input. *)
let same_as_first ctx key answer =
  let d = digest answer in
  match Hashtbl.find_opt ctx.digests key with
  | None -> Hashtbl.replace ctx.digests key d
  | Some d0 -> check ctx (d = d0) (key ^ ": answer differs from first round")

(* Set up at least five times and for at least a second (at most three
   hundred times), keeping the last; the median is [setup_s].  A set-up
   of a few milliseconds is thus the median of a hundred or more, taken
   over a second of the machine's changing speed.  A set-up ends with
   [warm], one small piece of the workload's own work, so that lazy
   initialisation and heap growth are paid before the rounds. *)
let setup ctx ~warm f =
  let t0 = Meter.now_ns () in
  let rec go n =
    Gc.full_major ();
    ctx.parsing <- 0.0;
    let r, d =
      Meter.time (fun () ->
          let r = f () in
          warm r;
          r)
    in
    ctx.setups <- d :: ctx.setups;
    ctx.setup_parse <- ctx.parsing :: ctx.setup_parse;
    if n >= 300 || (n >= 5 && Meter.since t0 >= 1.0) then r else go (n + 1)
  in
  go 1

(* Circuit generation, .bench text and the parse back, as a user loading
   a netlist file does.  The parsed circuit must render to the same text. *)
let load ctx golden =
  let text = Netlist.Bench_format.to_string golden in
  let parsed, d =
    Meter.time (fun () ->
        (Netlist.Bench_format.parse_string ~name:golden.C.name text)
          .Netlist.Bench_format.circuit)
  in
  ctx.parsing <- ctx.parsing +. d;
  check ctx
    (String.equal (Netlist.Bench_format.to_string parsed) text)
    (golden.C.name ^ ": .bench round trip");
  (parsed, text)

(* Rounds of fixed work until the next would overrun [seconds] (at least
   one).  With tracing, round 0 is untraced and only warms up; then
   traced and untraced rounds alternate (at least one of each), so the
   tracing overhead compares rounds that ran under the same conditions.
   [layers] reads a traced round's per-layer figures. *)
let rounds ctx ~round ~layers =
  let t0 = Meter.now_ns () in
  let min_rounds = if ctx.trace then 3 else 1 in
  let rec go i last =
    if i < min_rounds || Meter.since t0 +. last <= ctx.seconds then begin
      let traced = ctx.trace && i mod 2 = 1 in
      ctx.tr.Meter.on <- traced;
      Meter.reset ctx.tr;
      Hashtbl.reset ctx.counts;
      Gc.full_major ();
      let (), d = Meter.time round in
      ctx.tr.Meter.on <- false;
      let counts =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) ctx.counts []
        |> List.sort compare
      in
      (match ctx.reference_counts with
      | None -> ctx.reference_counts <- Some counts
      | Some c0 -> check ctx (c0 = counts) "work counters differ between rounds");
      if traced then begin
        let wall = d -. ctx.tr.Meter.probe in
        ctx.traced_walls <- wall :: ctx.traced_walls;
        let unattributed = (wall -. ctx.tr.Meter.covered) /. wall in
        ctx.layer_rounds <-
          (("unattributed_frac", unattributed) :: layers ()) :: ctx.layer_rounds
      end
      else if not (ctx.trace && i = 0) then ctx.walls <- d :: ctx.walls;
      go (i + 1) d
    end
  in
  go 0 0.0

(* ---------- metric catalogue ---------- *)

let per_layer =
  [
    ("netlist.parse_s", "s"); ("sim.inject_s", "s"); ("sim.testgen_s", "s");
    ("sim.tests", "count"); ("fault_sim.run_s", "s");
    ("fault_sim.faults_per_s", "1/s"); ("fault_sim.detected", "count");
    ("par.speedup", "x"); ("bsim.trace_s", "s"); ("bsim.union", "count");
    ("cover.enumerate_s", "s"); ("cover.solutions", "count");
    ("cover.valid_ratio", "ratio"); ("encode.build_s", "s");
    ("encode.vars", "count"); ("encode.clauses", "count");
    ("sat.search_s", "s"); ("sat.solver_calls", "count");
    ("sat.conflicts", "count"); ("sat.decisions", "count");
    ("sat.propagations", "count"); ("sat.props_per_s", "1/s");
    ("sat.props_per_solution", "count"); ("validity.check_s", "s");
    ("validity.checks", "count"); ("drup.check_s", "s");
    ("drup.checks", "count"); ("drup.failures", "count");
    ("serve.self_s", "s"); ("serve.parse_us", "us"); ("serve.cold_ms", "ms");
    ("serve.warm_ms", "ms"); ("serve.grow_ms", "ms");
    ("serve.queue_wait_ms", "ms"); ("serve.context_hit_ratio", "ratio");
    ("serve.evictions", "count"); ("unattributed_frac", "frac");
    ("trace.overhead_frac", "frac");
  ]

(* layer spans -> the per-layer self-time metric they feed *)
let span_metrics =
  [
    ("netlist", "netlist.parse_s"); ("sim.inject", "sim.inject_s");
    ("sim.testgen", "sim.testgen_s"); ("fault_sim", "fault_sim.run_s");
    ("bsim", "bsim.trace_s"); ("cover", "cover.enumerate_s");
    ("encode", "encode.build_s"); ("sat", "sat.search_s");
    ("validity", "validity.check_s"); ("drup", "drup.check_s");
    ("serve", "serve.self_s");
  ]

let self_times ctx =
  List.map (fun (layer, name) -> (name, Meter.self ctx.tr layer)) span_metrics

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* solver counters and rates shared by the BSAT-based workloads *)
let sat_layers ctx =
  let props = counted ctx "sat.propagations" in
  let search = Meter.self ctx.tr "sat" in
  [
    ("sat.props_per_s", if search > 0.0 then float_of_int props /. search else 0.0);
    ("sat.props_per_solution", ratio props (counted ctx "bsat.solutions"));
  ]

let add_sat_stats ctx (r : Diagnosis.Bsat.result) =
  let s = r.Diagnosis.Bsat.stats in
  count ctx "sat.solver_calls" r.Diagnosis.Bsat.solver_calls;
  count ctx "sat.conflicts" s.Sat.Solver.conflicts;
  count ctx "sat.decisions" s.Sat.Solver.decisions;
  count ctx "sat.propagations" s.Sat.Solver.propagations;
  count ctx "bsat.solutions" (List.length r.Diagnosis.Bsat.solutions)

(* ---------- Table 2 cells ---------- *)

type cell = {
  label : string;
  golden : C.t;
  p : int;            (* injected errors, also the bound k *)
  m : int;            (* failing tests wanted *)
  seed : int;
  cap : int;          (* solution cap of the "All" enumeration *)
}

(* circuit, p, injections, m values, solution cap.  Many small cells
   rather than a few large ones: per-seed cost varies by a factor of two
   or more between cells, and only a sum over many of them is steady. *)
let table2_shape =
  [ ("g1423", 4, 32, [ 8; 16 ], 10); ("g6669", 3, 24, [ 6 ], 4) ]

let cells ~seed ~circuits =
  List.concat_map
    (fun (label, p, injections, ms, cap) ->
      let golden = List.assoc label circuits in
      List.concat_map
        (fun j ->
          let seed = derive seed label j in
          List.map (fun m -> { label; golden; p; m; seed; cap }) ms)
        (List.init injections Fun.id))
    table2_shape

(* The faulty circuit and failing tests of a cell, as [diagnose run]
   makes them. *)
let prepare ?(tr = Meter.tracer ()) cell =
  let faulty, _ =
    Meter.span tr "sim.inject" (fun () ->
        Sim.Injector.inject ~seed:cell.seed ~num_errors:cell.p cell.golden)
  in
  let tests =
    Meter.span tr "sim.testgen" (fun () ->
        Sim.Testgen.generate ~seed:(cell.seed + 1) ~max_vectors:(1 lsl 16)
          ~wanted:cell.m ~golden:cell.golden ~faulty)
  in
  (faulty, tests)

let inject_and_generate ctx cell =
  let faulty, tests = prepare ~tr:ctx.tr cell in
  count ctx "sim.tests" (List.length tests);
  (faulty, tests)

let validate ctx faulty tests sols =
  List.map
    (fun s ->
      count ctx "validity.checks" 1;
      Meter.span ctx.tr "validity" (fun () ->
          Diagnosis.Validity.check_sat faulty tests s))
    sols

(* Trace-only: the encoding a BSAT call builds first, timed as its own
   call on a fresh solver. *)
let encode_probe ctx cell faulty tests =
  if not ctx.tr.Meter.on then 0.0
  else
    snd
      (Meter.probe ctx.tr (fun () ->
           ignore
             (Encode.Muxed.build ~max_k:cell.p (Sat.Solver.create ()) faulty
                tests)))

(* One BSAT call and its duration, its encoding share moved to the encode
   layer. *)
let bsat ctx ?(certify = false) ~enc ~cap cell faulty tests =
  let r, d =
    Meter.time (fun () ->
        Meter.span ctx.tr "sat" (fun () ->
            Diagnosis.Bsat.diagnose ~certify
              ~max_solutions:cap ~k:cell.p faulty tests))
  in
  Meter.move ctx.tr ~src:"sat" ~dst:"encode" enc;
  add_sat_stats ctx r;
  (r, d)

let key cell i what = Printf.sprintf "%s/%s/%d" what cell.label i

(* Encoding size of every cell, from a mirrored build outside the timed
   rounds (the counters are printed on every run). *)
let encode_sizes cells =
  let vars = ref 0 and clauses = ref 0 in
  List.iter
    (fun cell ->
      let faulty, tests = prepare cell in
      if tests <> [] then begin
        let solver = Sat.Solver.create () and cnf = Sat.Cnf.create () in
        ignore (Encode.Muxed.build ~mirror:cnf ~max_k:cell.p solver faulty tests);
        vars := !vars + Sat.Solver.num_vars solver;
        clauses := !clauses + Sat.Cnf.clause_count cnf
      end)
    cells;
  [ ("encode.vars", float_of_int !vars); ("encode.clauses", float_of_int !clauses) ]

let circuit name = Bench_suite.Embedded.by_name name ~scale

let load_all ctx names = List.map (fun n -> (n, fst (load ctx (circuit n)))) names

(* ---------- workload results ---------- *)

type result = {
  e2e : (string * float * string * string) list;
      (* name, value, unit, how it was sampled *)
  layers : (string * float) list;  (* median over traced rounds *)
  counters : (string * float) list;
}

let items_note ctx prefix =
  let n =
    Hashtbl.fold
      (fun k _ acc -> if String.starts_with ~prefix k then acc + 1 else acc)
      ctx.items 0
  in
  Printf.sprintf "sum over %d items of each item's median over rounds" n

let summed ctx name prefix = (name, sum_medians ctx prefix, "s", items_note ctx prefix)

(* One round of the fixed work: Σ over its items of each item's median
   over rounds, which a burst of machine noise in one round does not
   move.  The round walls themselves are printed beside it. *)
let wall_metric ctx =
  let walls =
    String.concat " " (List.rev_map (Printf.sprintf "%.3f") ctx.walls)
  in
  ( "wall_s", sum_medians ctx "", "s",
    items_note ctx "" ^ Printf.sprintf "; round walls %s s" walls )

let layer_medians ctx =
  let names = List.map fst per_layer in
  List.filter_map
    (fun name ->
      let xs = List.filter_map (List.assoc_opt name) ctx.layer_rounds in
      if xs = [] then None else Some (name, Meter.median xs))
    names

(* ---------- workload: table2 ---------- *)

(* warm-up: the first correction and cover of one cell, plain and
   certified.  The cell's seed is fixed, so the warm-up costs the same
   whatever the run's seed. *)
let warm_cell cell =
  let faulty, tests = prepare { cell with seed = derive 0 "warm" 0 } in
  if tests <> [] then begin
    let b = Diagnosis.Bsim.diagnose faulty tests in
    ignore
      (Diagnosis.Cover.enumerate ~max_solutions:1 ~k:cell.p
         b.Diagnosis.Bsim.candidate_sets);
    List.iter
      (fun certify ->
        let r =
          Diagnosis.Bsat.diagnose ~certify ~max_solutions:1 ~k:cell.p faulty
            tests
        in
        List.iter
          (fun s -> ignore (Diagnosis.Validity.check_sat faulty tests s))
          r.Diagnosis.Bsat.solutions)
      [ false; true ]
  end

(* Certified "All" on every other cell: the same enumeration with every
   answer DRUP-checked.  Its time over the plain call [plain] on the same
   cell is the checker's share, moved to the drup layer.  Certification
   never changes answers, so the solutions must equal the plain ones. *)
let certified ctx ~enc ~plain cell i faulty tests sols =
  let (r, d), valid =
    item ctx (key cell i "certified") (fun () ->
        let r, d = bsat ctx ~certify:true ~enc ~cap:cell.cap cell faulty tests in
        ((r, d), validate ctx faulty tests r.Diagnosis.Bsat.solutions))
  in
  Meter.move ctx.tr ~src:"sat" ~dst:"drup" (d -. plain);
  count ctx "drup.checks" r.Diagnosis.Bsat.cert_checks;
  count ctx "drup.failures" (List.length r.Diagnosis.Bsat.cert_failures);
  check ctx (r.Diagnosis.Bsat.cert_failures = [])
    (key cell i "certified" ^ ": "
    ^ String.concat "; " r.Diagnosis.Bsat.cert_failures);
  List.iter
    (fun v -> check ctx v (key cell i "certified" ^ ": invalid correction"))
    valid;
  check ctx
    (r.Diagnosis.Bsat.solutions = sols)
    (key cell i "certified" ^ ": differs from the plain enumeration")

let table2 ctx ~seed =
  let cells =
    setup ctx ~warm:(fun cells -> warm_cell (List.hd cells)) (fun () ->
        cells ~seed ~circuits:(load_all ctx [ "g1423"; "g6669" ]))
  in
  let round () =
    List.iteri
      (fun i cell ->
        let faulty, tests =
          item ctx (key cell i "sim") (fun () -> inject_and_generate ctx cell)
        in
        if tests <> [] then begin
          (* BSIM, then COV over its candidate sets *)
          let b =
            item ctx (key cell i "bsim") (fun () ->
                Meter.span ctx.tr "bsim" (fun () ->
                    Diagnosis.Bsim.diagnose faulty tests))
          in
          count ctx "bsim.union" (List.length b.Diagnosis.Bsim.union);
          let sets = b.Diagnosis.Bsim.candidate_sets in
          let covers, cover_valid =
            item ctx (key cell i "cov") (fun () ->
                let covers, _ =
                  Meter.span ctx.tr "cover" (fun () ->
                      Diagnosis.Cover.enumerate ~max_solutions:cell.cap
                        ~k:cell.p sets)
                in
                (covers, validate ctx faulty tests covers))
          in
          count ctx "cover.solutions" (List.length covers);
          count ctx "cover.valid"
            (List.length (List.filter Fun.id cover_valid));
          List.iter
            (fun c ->
              check ctx (Diagnosis.Cover.covers c sets)
                (key cell i "cov" ^ ": a cover misses a candidate set"))
            covers;
          same_as_first ctx (key cell i "cov") covers;
          (* BSAT "All": enumeration to the cap, every solution validated *)
          let enc = encode_probe ctx cell faulty tests in
          let (all, plain), all_valid =
            item ctx (key cell i "bsat_all") (fun () ->
                let r, d = bsat ctx ~enc ~cap:cell.cap cell faulty tests in
                ((r, d), validate ctx faulty tests r.Diagnosis.Bsat.solutions))
          in
          let sols = all.Diagnosis.Bsat.solutions in
          List.iter
            (fun v -> check ctx v (key cell i "bsat_all" ^ ": invalid correction"))
            all_valid;
          same_as_first ctx (key cell i "bsat_all") sols;
          if i mod 2 = 0 then certified ctx ~enc ~plain cell i faulty tests sols;
          (* BSAT "One": cap-1 call and the check of its correction *)
          let (one, _), one_valid =
            item ctx (key cell i "bsat_one") (fun () ->
                let r, d = bsat ctx ~enc ~cap:1 cell faulty tests in
                ((r, d), validate ctx faulty tests r.Diagnosis.Bsat.solutions))
          in
          List.iter
            (fun v -> check ctx v (key cell i "bsat_one" ^ ": invalid correction"))
            one_valid;
          match one.Diagnosis.Bsat.solutions with
          | [ s ] ->
              check ctx (List.mem s sols)
                (key cell i "bsat_one" ^ ": first correction not in All")
          | _ -> ()
        end)
      cells
  in
  let layers () =
    self_times ctx @ sat_layers ctx
    @ [
        ("cover.valid_ratio",
          ratio (counted ctx "cover.valid") (counted ctx "cover.solutions"));
      ]
  in
  rounds ctx ~round ~layers;
  let bsim = sum_medians ctx "bsim/" in
  {
    e2e =
      [
        wall_metric ctx;
        summed ctx "bsat_all_s" "bsat_all/";
        summed ctx "bsat_one_s" "bsat_one/";
        ( "cov_all_s", bsim +. sum_medians ctx "cov/", "s",
          items_note ctx "cov/" ^ ", BSIM included" );
        summed ctx "certified_all_s" "certified/";
      ]
      @ List.concat_map
          (fun (label, _, _, _, _) ->
            List.map
              (fun what ->
                ( Printf.sprintf "  %s %s" label what,
                  sum_medians ctx (Printf.sprintf "%s/%s/" what label),
                  "s", "" ))
              [ "sim"; "bsim"; "cov"; "bsat_all"; "certified"; "bsat_one" ])
          table2_shape;
    layers = layer_medians ctx;
    counters =
      encode_sizes cells
      @ [ ("cover.valid_ratio",
            ratio (counted ctx "cover.valid") (counted ctx "cover.solutions")) ];
  }

(* ---------- workload: faultsim ---------- *)

let faultsim_vectors = 2048
let bsim_sets = 4
let bsim_tests = 256

let same_run (a : Sim.Fault_sim.run) (b : Sim.Fault_sim.run) =
  List.length a.Sim.Fault_sim.detected = List.length b.Sim.Fault_sim.detected
  && List.for_all2
       (fun (f, i) (g, j) -> Sim.Stuck_at.equal f g && i = j)
       a.Sim.Fault_sim.detected b.Sim.Fault_sim.detected
  && List.equal Sim.Stuck_at.equal a.Sim.Fault_sim.undetected
       b.Sim.Fault_sim.undetected
  && Float.equal a.Sim.Fault_sim.coverage b.Sim.Fault_sim.coverage

let faultsim ctx ~seed =
  let warm (golden, faults, vectors, test_sets) =
    let vectors = List.filteri (fun i _ -> i < 64) vectors in
    List.iter
      (fun jobs -> ignore (Sim.Fault_sim.run ~drop:true ~jobs golden ~vectors ~faults))
      [ 1; jobs_par ];
    let faulty, tests = List.hd test_sets in
    ignore (Diagnosis.Bsim.diagnose faulty (List.filteri (fun i _ -> i < 16) tests))
  in
  let golden, faults, vectors, test_sets =
    setup ctx ~warm (fun () ->
        let golden = snd (List.hd (load_all ctx [ "g38417" ])) in
        let faults = Sim.Stuck_at.all_faults golden in
        let rng = Random.State.make [| seed; 1 |] in
        let n = C.num_inputs golden in
        let vectors =
          List.init faultsim_vectors (fun _ ->
              Array.init n (fun _ -> Random.State.bool rng))
        in
        let test_sets =
          List.init bsim_sets (fun j ->
              let s = derive seed "faultsim" j in
              let faulty, _ = Sim.Injector.inject ~seed:s ~num_errors:2 golden in
              let tests =
                Sim.Testgen.generate ~seed:(s + 1) ~max_vectors:(1 lsl 16)
                  ~wanted:bsim_tests ~golden ~faulty
              in
              (faulty, tests))
        in
        (golden, faults, vectors, test_sets))
  in
  let t1 = ref 0.0 and tn = ref 0.0 in
  let round () =
    let fs jobs =
      Meter.time (fun () ->
          Meter.span ctx.tr "fault_sim" (fun () ->
              Sim.Fault_sim.run ~drop:true ~jobs golden ~vectors ~faults))
    in
    let seq, d1 = item ctx "faultsim_1" (fun () -> fs 1) in
    let par, dn = item ctx "faultsim_n" (fun () -> fs jobs_par) in
    t1 := d1;
    tn := dn;
    count ctx "fault_sim.detected" (List.length seq.Sim.Fault_sim.detected);
    check ctx (same_run seq par) "fault simulation differs between widths";
    same_as_first ctx "faultsim" [ List.map snd seq.Sim.Fault_sim.detected ];
    List.iteri
      (fun j (faulty, tests) ->
        count ctx "sim.tests" (List.length tests);
        let b =
          item ctx (Printf.sprintf "bsim/%d" j) (fun () ->
              Meter.span ctx.tr "bsim" (fun () ->
                  Diagnosis.Bsim.diagnose faulty tests))
        in
        count ctx "bsim.union" (List.length b.Diagnosis.Bsim.union);
        same_as_first ctx (Printf.sprintf "bsim/%d" j)
          (Array.to_list b.Diagnosis.Bsim.candidate_sets))
      test_sets
  in
  let layers () =
    self_times ctx
    @ [
        ("fault_sim.faults_per_s", float_of_int (List.length faults) /. !t1);
        ("par.speedup", !t1 /. !tn);
      ]
  in
  rounds ctx ~round ~layers;
  let fs1 = item_median ctx "faultsim_1" and fsn = item_median ctx "faultsim_n" in
  {
    e2e =
      [
        wall_metric ctx;
        ("faultsim_s", fs1, "s", items_note ctx "faultsim_1");
        ( "faultsim_par_s", fsn, "s",
          items_note ctx "faultsim_n" ^ Printf.sprintf ", jobs %d" jobs_par );
        summed ctx "bsim_s" "bsim/";
      ];
    layers = layer_medians ctx;
    counters =
      [
        ("fault_sim.faults", float_of_int (List.length faults));
        ("fault_sim.vectors", float_of_int faultsim_vectors);
        ("par.jobs", float_of_int jobs_par);
      ];
  }

(* ---------- workload: serve ---------- *)

type kind = Cold | Warm | Grow | Shrink

let kind_name = function
  | Cold -> "cold" | Warm -> "warm" | Grow -> "grow" | Shrink -> "shrink"

type request = {
  text : string;        (* the frame payload *)
  kind : kind;
  circuit : string;
  rseed : int;
  tests : int;
}

let serve_requests = 800
let serve_contexts = 6
let serve_cap = 1000
let serve_errors = 1

let make_request kind circuit (rseed, tests) =
  let text =
    Printf.sprintf
      {|{"op":"diagnose","circuit":"%s","errors":%d,"seed":%d,"tests":%d,"max_solutions":%d}|}
      circuit serve_errors rseed tests serve_cap
  in
  { text; kind; circuit; rseed; tests }

(* A seeded closed-loop stream in blocks of twenty requests: eighteen on
   g1423 (six cold on a new seed, six warm exact repeats, four grow by 4
   tests up to 16, two shrink by 3 tests) and two on g6669 (one cold and
   its immediate repeat), in a seeded order; every request injects one
   error.  A g1423 repeat, growth or shrinkage returns to the context
   0..7 places back among the recent ones; each block uses every distance
   equally often, as it does every cold test count 4..8, so the share of
   cache hits and the size of the work stay steady from seed to seed while
   the contexts vary.  A g6669 request costs about ten times a g1423 one,
   so they are kept few. *)
let request_stream seed =
  let rng = Random.State.make [| seed; 2 |] in
  let live = Hashtbl.create 2 in  (* circuit -> (rseed, tests so far) list *)
  let fresh = ref 0 in
  let contexts c = Option.value (Hashtbl.find_opt live c) ~default:[] in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  (* (circuit, kind, cold test count or distance back) *)
  let block () =
    let kinds n k = List.init n (fun _ -> k) in
    let g1423 = kinds 6 Cold @ kinds 6 Warm @ kinds 4 Grow @ kinds 2 Shrink in
    let sizes = ref (shuffle [ 4; 5; 6; 7; 8; 6 ])
    and distances = ref (shuffle [ 0; 1; 2; 3; 4; 5; 6; 7; 0; 1; 2; 3 ]) in
    let next r = match !r with x :: rest -> r := rest; x | [] -> 0 in
    shuffle (("g6669", Cold) :: List.map (fun k -> ("g1423", k)) g1423)
    |> List.concat_map (function
         | "g6669", Cold -> [ ("g6669", Cold); ("g6669", Warm) ]
         | r -> [ r ])
    |> List.map (fun (circuit, kind) ->
           let aux =
             match (circuit, kind) with
             | "g6669", Cold -> 6
             | "g6669", _ -> 0
             | _, Cold -> next sizes
             | _ -> next distances
           in
           (circuit, kind, aux))
  in
  let back candidates d = List.nth candidates (min d (List.length candidates - 1)) in
  List.concat (List.init (serve_requests / 20) (fun _ -> block ()))
  |> List.map (fun (circuit, kind, aux) ->
         let all = contexts circuit in
         let growable = List.filter (fun (_, t) -> t <= 12) all in
         let cold tests =
           incr fresh;
           let ctx = (derive seed "serve" !fresh, tests) in
           Hashtbl.replace live circuit (ctx :: all);
           make_request Cold circuit ctx
         in
         match kind with
         | Cold -> cold aux
         | _ when all = [] -> cold 6
         | Grow when growable <> [] ->
             let ((rseed, tests) as old) = back growable aux in
             let grown = (rseed, tests + 4) in
             Hashtbl.replace live circuit (grown :: List.filter (( != ) old) all);
             make_request Grow circuit grown
         | Warm | Grow -> make_request Warm circuit (back all aux)
         | Shrink ->
             let rseed, tests = back all aux in
             make_request Shrink circuit (rseed, max 1 (tests - 3)))

let names_json (c : C.t) sols =
  J.Arr (List.map (fun s -> J.Arr (List.map (fun g -> J.String c.C.names.(g)) s)) sols)

(* The direct library answer to a request: a fresh incremental context
   on the same injected circuit and test set. *)
let direct_answer goldens r =
  let golden = List.assoc r.circuit goldens in
  let faulty, _ = Sim.Injector.inject ~seed:r.rseed ~num_errors:serve_errors golden in
  let tests =
    Sim.Testgen.generate ~seed:(r.rseed + 1) ~max_vectors:(1 lsl 16)
      ~wanted:r.tests ~golden ~faulty
  in
  if tests = [] then J.Arr []
  else
    let inc = Diagnosis.Incremental.create ~k:serve_errors faulty tests in
    names_json faulty (Diagnosis.Incremental.solutions ~max_solutions:serve_cap inc)

let json_int j name = match J.member name j with Some (J.Int n) -> n | _ -> 0

let serve ctx ~seed =
  (* warm-up: a throwaway server answers one cold g1423 request on a
     fixed seed, so the warm-up costs the same whatever the run's seed *)
  let warm (texts, _) =
    let resolve spec =
      (Netlist.Bench_format.parse_string ~name:spec (List.assoc spec texts))
        .Netlist.Bench_format.circuit
    in
    let server = Serve.Server.create ~jobs:1 resolve in
    let r = make_request Cold "g1423" (derive 0 "warm" 0, 6) in
    match Serve.Protocol.parse r.text with
    | Ok req -> ignore (Serve.Server.handle server req)
    | Error msg -> failwith msg
  in
  let texts, stream =
    setup ctx ~warm (fun () ->
        let texts =
          List.map
            (fun n -> (n, Netlist.Bench_format.to_string (circuit n)))
            [ "g1423"; "g6669" ]
        in
        (texts, request_stream seed))
  in
  let resolve spec =
    Meter.span ctx.tr "netlist" (fun () ->
        match List.assoc_opt spec texts with
        | Some text ->
            (Netlist.Bench_format.parse_string ~name:spec text)
              .Netlist.Bench_format.circuit
        | None -> failwith ("unknown circuit " ^ spec))
  in
  let responses = Hashtbl.create 256 in
  let parse_us = ref [] and by_kind = ref [] in
  let stats = ref (J.Obj []) and queue_ms = ref 0.0 in
  let round () =
    parse_us := [];
    by_kind := [];
    let server =
      Serve.Server.create ~context_capacity:serve_contexts ~jobs:1 resolve
    in
    List.iteri
      (fun i r ->
        let resp, parse_s =
          item ctx (Printf.sprintf "req/%d" i) (fun () ->
              let req, parse_s =
                Meter.time (fun () ->
                    Meter.span ctx.tr "serve" (fun () ->
                        Serve.Protocol.parse r.text))
              in
              let handle req =
                fst
                  (Meter.span ctx.tr "serve" (fun () ->
                       Serve.Server.handle server req))
              in
              (Result.map handle req, parse_s))
        in
        parse_us := (parse_s *. 1e6) :: !parse_us;
        match resp with
        | Error msg -> check ctx false ("request " ^ string_of_int i ^ ": " ^ msg)
        | Ok resp ->
            let ok = J.member "ok" resp = Some (J.Bool true) in
            check ctx ok ("request " ^ string_of_int i ^ ": not ok");
            let warm = J.member "warm" resp = Some (J.Bool true) in
            by_kind := (i, r.kind, warm) :: !by_kind;
            count ctx ("serve." ^ kind_name r.kind) 1;
            if warm then count ctx "serve.warm_served" 1;
            Hashtbl.replace responses i
              (Option.value (J.member "solutions" resp) ~default:J.Null))
      stream;
    let st, _ = Serve.Server.handle server (Serve.Protocol.Stats { id = None }) in
    stats := st;
    count ctx "serve.evictions" (json_int st "evictions");
    count ctx "serve.context_hits" (json_int st "context_hits");
    let sk = Serve.Server.sketches server in
    let q = Obs.Sketch.merge (List.assoc "queue_wait_cold_us" sk)
        (List.assoc "queue_wait_warm_us" sk) in
    queue_ms := Obs.Sketch.quantile q 0.5 /. 1000.0
  in
  let latency_ms pred =
    let xs =
      List.filter_map
        (fun (i, k, w) ->
          if pred k w then
            Option.map (fun xs -> Meter.median xs *. 1000.0)
              (Hashtbl.find_opt ctx.items (Printf.sprintf "req/%d" i))
          else None)
        !by_kind
    in
    if xs = [] then 0.0 else Meter.median xs
  in
  let hit_ratio () =
    ratio (json_int !stats "context_hits")
      (json_int !stats "context_hits" + json_int !stats "context_misses")
  in
  let layers () =
    (* a traced round's own request latencies *)
    self_times ctx
    @ [
        ("serve.parse_us", Meter.median !parse_us);
        ("serve.queue_wait_ms", !queue_ms);
        ("serve.context_hit_ratio", hit_ratio ());
        ("serve.evictions", float_of_int (counted ctx "serve.evictions"));
      ]
  in
  rounds ctx ~round ~layers;
  (* per-kind latency from the untraced rounds' per-request medians *)
  let kinds =
    [
      ("serve.cold_ms", latency_ms (fun _ w -> not w));
      ("serve.warm_ms", latency_ms (fun k w -> w && k <> Grow));
      ("serve.grow_ms", latency_ms (fun k w -> w && k = Grow));
    ]
  in
  (* every served answer must equal the direct library answer *)
  let goldens =
    List.map
      (fun (n, text) ->
        (n, (Netlist.Bench_format.parse_string ~name:n text).Netlist.Bench_format.circuit))
      texts
  in
  let direct = Hashtbl.create 64 in
  List.iteri
    (fun i r ->
      let k = (r.circuit, r.rseed, r.tests) in
      let want =
        match Hashtbl.find_opt direct k with
        | Some a -> a
        | None ->
            let a = direct_answer goldens r in
            Hashtbl.replace direct k a;
            a
      in
      match Hashtbl.find_opt responses i with
      | Some got ->
          check ctx (J.to_string got = J.to_string want)
            (Printf.sprintf "request %d (%s): differs from the direct answer" i
               (kind_name r.kind))
      | None -> ())
    stream;
  let per_request =
    Hashtbl.fold
      (fun k xs acc ->
        if String.starts_with ~prefix:"req/" k then Meter.median xs :: acc else acc)
      ctx.items []
  in
  let n = List.length per_request in
  let lat q = if n = 0 then 0.0 else Meter.quantile q per_request *. 1000.0 in
  let note = Printf.sprintf "over %d requests, each the median of its rounds" n in
  let tail_note =
    match Meter.tail per_request with
    | Some (p, v) -> Printf.sprintf "; highest with 10 beyond: p%g %.4f ms" p (v *. 1000.0)
    | None -> ""
  in
  let wall = sum_medians ctx "" in
  {
    e2e =
      [
        wall_metric ctx;
        ("latency_p50_ms", lat 0.5, "ms", note);
        ( "latency_p90_ms", lat 0.9, "ms",
          note ^ tail_note );
        ( "req_per_s",
          (if wall > 0.0 then float_of_int n /. wall else 0.0),
          "1/s", "requests per wall_s" );
      ];
    layers = layer_medians ctx @ (if ctx.trace then kinds else []);
    counters =
      ("serve.requests", float_of_int n)
      :: ("serve.context_capacity", float_of_int serve_contexts)
      :: kinds;
  }

(* ---------- command line ---------- *)

let workloads =
  [ ("table2", table2); ("faultsim", faultsim); ("serve", serve) ]

let end_to_end = [ ("setup_s", "s"); ("wall_s", "s") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload table2|faultsim|serve --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | flag :: v :: rest when String.starts_with ~prefix:"--" flag ->
        go ((flag, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get f = match List.assoc_opt f kv with Some v -> v | None -> usage () in
  let int f = match int_of_string_opt (get f) with Some n -> n | None -> usage () in
  let workload = get "--workload" in
  let seed = int "--seed" and seconds = int "--seconds" and trace = int "--trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  match List.assoc_opt workload workloads with
  | Some run -> (workload, run, seed, float_of_int seconds, trace = 1)
  | None -> usage ()

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let name, run, seed, seconds, trace = parse_args () in
  let ctx =
    {
      seconds; trace; tr = Meter.tracer (); attempted = 0; failed = 0;
      items = Hashtbl.create 256; counts = Hashtbl.create 32;
      reference_counts = None; digests = Hashtbl.create 256; walls = [];
      traced_walls = []; layer_rounds = []; setups = []; setup_parse = [];
      parsing = 0.0;
    }
  in
  Printf.printf "perfbench %s: seed %d, %g s, trace %d, scale %g, jobs %d\n%!"
    name seed seconds (if trace then 1 else 0) scale jobs_par;
  let r = run ctx ~seed in
  let setup_s = Meter.median ctx.setups in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let failed_frac = ratio ctx.failed (max 1 ctx.attempted) in
  let e2e =
    (("setup_s", setup_s, "s",
      Printf.sprintf "median of %d set-ups" (List.length ctx.setups))
     :: r.e2e)
    @ [
        ("failed_frac", failed_frac, "frac",
          Printf.sprintf "%d failed of %d checked" ctx.failed ctx.attempted);
        ("heap_peak_mb", heap_mb, "MB", "Gc top heap of the process");
      ]
  in
  print_endline "end-to-end:";
  List.iter
    (fun (n, v, u, note) -> Printf.printf "  %-16s %12.6g %-5s %s\n" n v u note)
    e2e;
  let round_counts = Option.value ctx.reference_counts ~default:[] in
  let counters =
    r.counters @ List.map (fun (k, v) -> (k, float_of_int v)) round_counts
  in
  print_endline "work counters (per round):";
  List.iter (fun (n, v) -> Printf.printf "  %-26s %.10g\n" n v) counters;
  let overhead =
    match (ctx.traced_walls, ctx.walls) with
    | (_ :: _ as t), (_ :: _ as u) -> (Meter.median t /. Meter.median u) -. 1.0
    | _ -> 0.0
  in
  let setup_parse =
    if ctx.setup_parse = [] then 0.0 else Meter.median ctx.setup_parse
  in
  let layer name =
    match (name, List.assoc_opt name r.layers) with
    (* netlist parsing happens in set-up (and, for serve, in rounds) *)
    | "netlist.parse_s", v -> Option.value v ~default:0.0 +. setup_parse
    | "trace.overhead_frac", _ -> overhead
    | _, Some v -> v
    | _, None -> Option.value (List.assoc_opt name counters) ~default:0.0
  in
  if trace then begin
    Printf.printf "per layer (median of %d traced rounds):\n"
      (List.length ctx.traced_walls);
    List.iter
      (fun (n, u) -> Printf.printf "  %-26s %14.6g %s\n" n (layer n) u)
      per_layer;
  end;
  let metrics =
    if trace then List.map (fun (n, u) -> (n, layer n, u)) per_layer
    else
      List.map
        (fun (n, u) ->
          let v = List.find_map (fun (n', v, _, _) -> if n = n' then Some v else None) e2e in
          (n, Option.value v ~default:0.0, u))
        end_to_end
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (ctx.failed = 0) ctx.attempted ctx.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (json_number v) u)
          metrics))
