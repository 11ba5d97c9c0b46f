(** Sets of small integers (0 .. 61) represented as bits of an [int].

    Used throughout the optimizer to represent sets of base relations: a
    query over [n] relations identifies each relation with an index in
    [0 .. n-1], and a subquery with the set of indices it covers.  All
    operations are O(1) or O(cardinality). *)

type t = private int
(** A set of integers in [0 .. max_element]. The representation is the
    canonical bit mask, so structural equality and [compare] coincide with
    set equality and an (arbitrary) total order. *)

val max_element : int
(** Largest storable element, [61] on 64-bit platforms. *)

val empty : t

val full : int -> t
(** [full n] is the set [{0, ..., n-1}]. Raises [Invalid_argument] unless
    [0 <= n <= max_element + 1]. *)

val singleton : int -> t

val of_list : int list -> t

val to_list : t -> int list
(** Elements in increasing order. *)

val mem : int -> t -> bool

val add : int -> t -> t

val remove : int -> t -> t

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val is_empty : t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int

val subset : t -> t -> bool
(** [subset a b] is true iff every element of [a] is in [b]. *)

val disjoint : t -> t -> bool

val cardinal : t -> int

val choose : t -> int
(** Smallest element. Raises [Not_found] on the empty set. *)

val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val for_all : (int -> bool) -> t -> bool

val exists : (int -> bool) -> t -> bool

val subsets_of_size : int -> size:int -> t list
(** [subsets_of_size n ~size] lists all subsets of [full n] with exactly
    [size] elements, in increasing mask order.  Enumerated with Gosper's
    hack in O(C(n,size)) — no scan of the full 2^n mask space. *)

val iter_subsets_of_size : (t -> unit) -> int -> size:int -> unit
(** [iter_subsets_of_size f n ~size] applies [f] to each subset of
    {!subsets_of_size}, in its order, without building the list. *)

val proper_nonempty_subsets : t -> t list
(** All subsets of [s] that are neither empty nor [s] itself, in increasing
    mask order.  Used to enumerate bushy-tree splits. *)

val iter_proper_nonempty_subsets : (t -> unit) -> t -> unit
(** [f] applied to each subset of {!proper_nonempty_subsets}, in its
    order, without building the list. *)

val to_int : t -> int
(** The underlying mask, usable as an array index (dense DP tables). *)

val of_int_unsafe : int -> t
(** Inverse of [to_int]; the caller must supply a valid mask. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{0,2,3}]. *)
