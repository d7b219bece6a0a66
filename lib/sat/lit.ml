type t = int

let make v sign =
  if v < 0 then invalid_arg "Lit.make: negative variable";
  (2 * v) + if sign then 0 else 1

let pos v = make v true
let neg_of v = make v false
let negate l = l lxor 1
let var l = l lsr 1
let sign l = l land 1 = 0
let code l = l
let of_code c = c
let to_dimacs l = if sign l then var l + 1 else -(var l + 1)

let of_dimacs i =
  if i = 0 then invalid_arg "Lit.of_dimacs: zero";
  if i > 0 then pos (i - 1) else neg_of (-i - 1)

let cubes ~jobs lits w =
  let rec fit l = if 1 lsl l >= jobs then l else fit (l + 1) in
  let l = min (fit 0) (Array.length lits) in
  List.init (1 lsl l) Fun.id
  |> List.filter (fun j -> j mod jobs = w)
  |> List.map (fun j ->
         List.init l (fun i ->
             if j land (1 lsl i) <> 0 then lits.(i) else negate lits.(i)))

let compare = Int.compare
let equal = Int.equal
let pp ppf l = Format.fprintf ppf "%d" (to_dimacs l)
