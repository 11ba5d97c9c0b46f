(** Runtime values stored in tuples.  The tuple-level executor operates on
    these; the statistics module summarizes them through [to_float]. *)

type t = Int of int | Flt of float | Str of string

val compare : t -> t -> int
(** Total order: numeric values compare numerically across [Int]/[Flt],
    by their float images under [Float.compare] (so NaN equals NaN, -0
    equals 0, and ints beyond 2^53 equal their rounded images); strings
    compare lexicographically and sort after numbers.  Allocates
    nothing. *)

val equal : t -> t -> bool

val compare_at : int array -> t array -> t array -> int
(** [compare_at positions a b] compares rows [a] and [b]
    lexicographically on their values at [positions], each pair under
    {!compare}: the one order of index keys and sort keys.  Allocates
    nothing. *)

val to_float : t -> float
(** Numeric image used for statistics; strings hash to a stable float. *)

val hash : t -> int
(** Agrees with [compare]: [compare a b = 0] implies [hash a = hash b],
    so [Int 1] and [Flt 1.0] hash alike. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
