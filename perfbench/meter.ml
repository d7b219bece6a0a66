(* Timing for the benchmark: one monotonic wall clock, layer spans
   recorded from outside the library, and the order statistics the
   report prints.

   Every duration comes from [Monotonic_clock] (CLOCK_MONOTONIC, in
   nanoseconds), never from [Sys.time], which is process CPU time summed
   over every domain. *)

let now_ns () = Monotonic_clock.now ()

let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* [time f] is [f ()] and its wall duration in seconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* ---------- order statistics ---------- *)

let sorted xs = List.sort Float.compare xs

(* Linear-interpolated quantile of a non-empty sample, [q] in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Meter.quantile: empty sample";
  let pos = q *. float_of_int (n - 1) in
  let i = truncate pos in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* The highest of the usual percentiles with at least ten samples beyond
   it, as (percentile, value); [None] when even the median has fewer. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  List.find_map
    (fun p ->
      if n *. (1.0 -. (p /. 100.0)) >= 10.0 then Some (p, quantile (p /. 100.0) xs)
      else None)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* ---------- layer spans ---------- *)

(* A span covers one call into a layer's public function.  Its self time
   is its duration minus the part covered by spans opened inside it
   (e.g. the netlist parse the serve layer triggers through the
   benchmark's resolver).  Self times accumulate per layer; the sum of
   top-level durations is the covered share of a round, and the rest of
   the round's wall time is reported as unattributed. *)
type tracer = {
  mutable on : bool;
  self : (string, float) Hashtbl.t;
  mutable children : float ref list;  (* innermost open span first *)
  mutable covered : float;            (* top-level span time *)
  mutable probe : float;              (* trace-only work, see [probe] *)
}

let tracer () =
  { on = false; self = Hashtbl.create 16; children = []; covered = 0.0;
    probe = 0.0 }

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)

let span tr layer f =
  if not tr.on then f ()
  else begin
    let inner = ref 0.0 in
    tr.children <- inner :: tr.children;
    let t0 = now_ns () in
    let finish () =
      let d = since t0 in
      tr.children <- List.tl tr.children;
      add tr.self layer (d -. !inner);
      match tr.children with
      | parent :: _ -> parent := !parent +. d
      | [] -> tr.covered <- tr.covered +. d
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* Work done only to split a layer the benchmark cannot open from
   outside (a separate [Muxed.build] to size the encoding inside a BSAT
   call).  It is timed into the layer table by the caller, and its wall
   time is taken out of the traced round so the tracing overhead compares
   like with like. *)
let probe tr f =
  let r, d = time f in
  tr.probe <- tr.probe +. d;
  (r, d)

(* Move [d] seconds of self time from layer [src] to layer [dst]: the
   part of a call that belongs to a layer nested inside it. *)
let move tr ~src ~dst d =
  if tr.on then begin
    add tr.self src (-.d);
    add tr.self dst d
  end

let reset tr =
  Hashtbl.reset tr.self;
  tr.children <- [];
  tr.covered <- 0.0;
  tr.probe <- 0.0

let self tr layer = Option.value (Hashtbl.find_opt tr.self layer) ~default:0.0
