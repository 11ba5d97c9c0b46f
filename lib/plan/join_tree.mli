(** Annotated join trees — the syntactic representation of executions
    (§3), extended with the parallel annotations of §4: cloning degree and
    output composition.

    A tree is legal for a query when its leaves are exactly the query's
    relations, each occurring once (the paper's "each tuple computed
    exactly once" constraint rules out the redundant bushy shapes). *)

type access = private {
  rel : int;  (** relation id in the query *)
  path : Access_path.t;
  clone : int;  (** degree of intra-operator parallelism, >= 1 *)
  akey : string;  (** precomputed canonical key; use {!key} *)
}

type join = private {
  method_ : Join_method.t;
  outer : t;
  inner : t;
  clone : int;
  materialize : bool;
      (** force the join's output to be materialized instead of pipelined
          into its parent — trades pipeline parallelism for freedom from
          the synchronization penalty delta(k) *)
  mutable jkey : string;
      (** canonical key, built on the first {!key} (empty until then);
          use {!key} *)
  jrels : Parqo_util.Bitset.t;  (** precomputed leaf set; use {!relations} *)
}

and t = Access of access | Join of join
(** The key and relation-set fields are hash-consed (a join derives them
    from its children in O(1) extra work, the key when it is first
    read), which is what makes {!key}, {!relations} and plan-cache
    lookups cheap in the search hot path.  The records are private:
    trees are built through {!access} and {!join} only. *)

val access : ?path:Access_path.t -> ?clone:int -> int -> t
(** [path] defaults to [Seq_scan], [clone] to 1. *)

val join :
  ?clone:int -> ?materialize:bool -> Join_method.t -> outer:t -> inner:t -> t

val relations : t -> Parqo_util.Bitset.t
(** Set of relation ids at the leaves — O(1), precomputed. *)

val key : t -> string
(** The canonical rendering (same string as {!to_string}) — built and
    kept by a join's first read, O(1) after.  Injective for trees over
    one catalog, so it is a sound cache key and deterministic
    tie-breaker. *)

val n_leaves : t -> int

val n_joins : t -> int

val is_left_deep : t -> bool
(** Every join's inner operand is a base-relation access. *)

val leaves : t -> access list
(** Left-to-right order. *)

val joins : t -> join list
(** Post-order. *)

val fold : access:(access -> 'a) -> join:(join -> 'a -> 'a -> 'a) -> t -> 'a

val equal : t -> t -> bool

val well_formed : n_relations:int -> t -> (unit, string) result
(** Each relation id in range and used exactly once; clone degrees >= 1. *)

val to_string : t -> string
(** Compact functional rendering, e.g.
    [HJ(SM(scan(t0), idx(t1)/2), scan(t2))]. *)

val pp : Format.formatter -> t -> unit
