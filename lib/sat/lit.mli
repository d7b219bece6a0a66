(** Propositional literals.

    A literal packs a non-negative variable index and a sign into one
    integer: [2 * var] for the positive literal, [2 * var + 1] for the
    negative one. *)

type t = private int

val make : int -> bool -> t
(** [make v sign] — [sign = true] gives the positive literal of [v]. *)

val pos : int -> t
val neg_of : int -> t
val negate : t -> t
val var : t -> int
val sign : t -> bool
(** [true] for positive literals. *)

val code : t -> int
(** The raw encoding, usable as an array index in [0, 2*nvars). *)

val of_code : int -> t

val to_dimacs : t -> int
(** DIMACS convention: [var + 1] signed. *)

val of_dimacs : int -> t
(** @raise Invalid_argument on 0. *)

val cubes : jobs:int -> t array -> int -> t list list
(** [cubes ~jobs lits w]: worker [w]'s share of a [jobs]-wide cube
    partition.  The cubes are the sign patterns over the first
    min(⌈log2 jobs⌉, |lits|) literals — cube [j] sets literal [i]
    positive iff bit [i] of [j] is set — and cube [j] goes to worker
    [j mod jobs], in increasing [j].  Over all workers the cubes are
    disjoint and cover every pattern; at [jobs = 1] the only cube is
    [[]]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
