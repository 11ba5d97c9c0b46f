(** Dense float vectors with coordinate-wise arithmetic.

    Resource vectors in the cost model (per-resource work, §5.2 of the
    paper) are [Vecf.t] values whose dimension equals the number of modeled
    resources of the machine. *)

type t
(** An immutable vector of floats. *)

val make : int -> float -> t
(** [make dim x] is the [dim]-vector with every coordinate [x]. *)

val zero : int -> t

val of_array : float array -> t
(** Copies the array. *)

val to_array : t -> float array
(** Fresh copy. *)

val init : int -> (int -> float) -> t

val dim : t -> int

val get : t -> int -> float

val set : t -> int -> float -> t
(** Functional update. *)

val add : t -> t -> t
(** Coordinate-wise sum. Raises [Invalid_argument] on dimension mismatch. *)

val sub : t -> t -> t
(** Coordinate-wise difference. *)

val scale : float -> t -> t

val pointwise_max : t -> t -> t

val fmax : float -> float -> float
(** [if a >= b then a else b] — bit-identical to [Float.max] when
    neither argument is NaN and [-0.] cannot reach the left slot of a
    [(-0., +0.)] tie (the costing path only ever produces [+0.]), but
    small enough to inline without flambda where [Float.max] stays an
    allocating call.  Inlining across modules needs a build that is not
    opaque: under dune's dev profile a caller outside this module makes
    a real, boxing call, so a per-candidate loop elsewhere restates it
    locally. *)

val fmin : float -> float -> float
(** [if a <= b then a else b]; the [Float.min] counterpart of {!fmax}. *)

val max_coord : t -> float
(** Largest coordinate; [neg_infinity] for the 0-dimensional vector. *)

val sum : t -> float

val equal : ?eps:float -> t -> t -> bool

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t

val clamp_non_negative : t -> t
(** Replaces negative coordinates by [0.]; used when subtracting a
    materialized front introduces small negative residuals. *)

(** {2 Scratch-buffer interface}

    The costing hot path combines vectors once per candidate operator;
    these entry points let it run on caller-owned [float array] scratch
    buffers with no allocation, then adopt the final buffer as a vector
    without a copy.  Ownership rule: an adopted array must never be
    written again, and a raw view must never outlive the vector's
    immutability assumption — callers are the cost calculus internals
    ({!Parqo_cost.Descriptor}, {!Parqo_cost.Opcost}), not general code. *)

val unsafe_adopt : float array -> t
(** Wraps the array as a vector {e without copying}.  The caller gives up
    ownership: mutating the array afterwards breaks immutability. *)

val unsafe_raw : t -> float array
(** The vector's backing array {e without copying} — read-only view. *)

val pp : Format.formatter -> t -> unit
