(** Select-Project-Join queries — the query class of the paper.

    A query binds aliases to catalog tables, conjoins equi-join predicates
    and single-column selections, and optionally projects.  Relations are
    identified by their dense index in [relations] ("relation ids"), which
    is what plans, bitsets and the estimator speak. *)

type column_ref = { rel : int; column : string }
(** [rel] is a relation id. *)

type join_pred = { left : column_ref; right : column_ref }
(** Equality predicate [left = right] with [left.rel <> right.rel]. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type selection = { on : column_ref; cmp : cmp; value : Parqo_catalog.Value.t }

type t = private {
  relations : (string * string) array;  (** (alias, table name) *)
  joins : join_pred list;
  selections : selection list;
  projection : column_ref list;  (** empty means "all columns" *)
  order_by : column_ref list;
      (** requested output ordering, most significant first; plans whose
          interesting order already satisfies it avoid a final sort *)
  alias_ids : (string, int) Hashtbl.t;
      (** precomputed alias → relation-id table; use {!relation_id} *)
  neighbor_masks : Parqo_util.Bitset.t array;
      (** precomputed per-relation join-graph adjacency; use {!neighbors} *)
  interesting : string list array;
      (** precomputed per-relation interesting columns; use
          {!interesting} *)
  fingerprint : string;
      (** precomputed canonical query key; use {!fingerprint} *)
}

val create :
  relations:(string * string) list ->
  joins:join_pred list ->
  ?selections:selection list ->
  ?projection:column_ref list ->
  ?order_by:column_ref list ->
  unit ->
  t
(** Raises [Invalid_argument] on duplicate aliases, out-of-range relation
    ids, or a join predicate relating a relation to itself. *)

val n_relations : t -> int

val alias : t -> int -> string

val table_name : t -> int -> string

val relation_id : t -> string -> int
(** Id of an alias — O(1) hashtable lookup. Raises [Not_found]. *)

val fingerprint : t -> string
(** The canonical whole-query key, precomputed at construction — the
    cross-query extension of {!Parqo_plan.Join_tree.key} interning, and
    what the serving layer's plan cache is keyed by.  Two queries share a
    fingerprint iff they denote the same optimization problem against
    the same catalog: table names by relation id (aliases are ignored —
    plans reference relation ids), join predicates and selections as
    normalized sorted sets, projection and ORDER BY verbatim (both are
    position-significant).  Queries whose relations are permuted get
    different fingerprints: relation ids are load-bearing in plans, so a
    permutation is a different (if equivalent) problem. *)

val connected_between : t -> Parqo_util.Bitset.t -> Parqo_util.Bitset.t -> bool
(** Some join predicate crosses the two (disjoint) sets — O(|s1|) on the
    precomputed adjacency bitsets, no scan of the predicate list. *)

val joins_between : t -> Parqo_util.Bitset.t -> Parqo_util.Bitset.t -> join_pred list
(** Join predicates with one side in each (disjoint) set. *)

val joins_within : t -> Parqo_util.Bitset.t -> join_pred list
(** Join predicates with both sides inside the set. *)

val selections_on : t -> int -> selection list

val neighbors : t -> int -> Parqo_util.Bitset.t
(** Relations connected to the given relation by some join predicate. *)

val interesting : t -> int -> string -> bool
(** [interesting q rel column]: a join predicate or the ORDER BY names
    the column of the relation — System R's interesting orders.  A sort
    key, the outer order a join preserves, and the order the ORDER BY
    asks for are all made of such columns, so an order on any other
    column is of no use to any plan. *)

val connected : t -> Parqo_util.Bitset.t -> bool
(** Whether the join graph restricted to the set is connected (true for
    empty and singleton sets). *)

val validate : Parqo_catalog.Catalog.t -> t -> (unit, string) result
(** Every alias resolves to a catalog table and every referenced column
    exists. *)

val contract :
  t ->
  groups:(int list * string * string) list ->
  rename:(int -> string -> string) ->
  t * (int -> int)
(** [contract q ~groups ~rename] replaces each group [(rels, alias,
    table)] of relation ids by a single relation [alias] bound to
    [table] — the residual-query construction of adaptive re-planning,
    where an already-materialized intermediate stands in for the
    relations it joined.  Column references into a group are renamed
    with [rename orig_rel column] (the caller names the corresponding
    column of the stand-in table); join predicates internal to a group
    and selections on group members are dropped (already applied inside
    the intermediate), predicates crossing a group boundary are
    remapped.  Kept relations come first (in original id order), then
    one relation per group, in the given order; the returned function
    maps original relation ids to contracted ones.  Raises
    [Invalid_argument] on empty, overlapping or out-of-range groups (and
    on duplicate aliases, via {!create}). *)

val pp : Format.formatter -> t -> unit

val to_sql : t -> string
(** A parseable SQL-ish rendering (inverse of {!Parser.parse}). *)

val pp_column_ref : t -> Format.formatter -> column_ref -> unit

val cmp_to_string : cmp -> string
