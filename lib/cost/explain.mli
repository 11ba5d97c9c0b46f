(** Plan explanation: the paper's Example-1-style annotation table plus
    per-node cost descriptors — an EXPLAIN ANALYZE for operator trees.

    Each row describes one operator: its annotations (cloning degree,
    composition method, whether an exchange redistributes its input — the
    three annotations of §4.2), the estimated cardinality, its own base
    descriptor cost and the cumulative descriptor of its subtree. *)

type row = {
  depth : int;  (** nesting level, for indented rendering *)
  operator : string;
  cloning : int;
  composition : string;  (** "pipelined" or "materialized" *)
  redistributes : bool;  (** the node is an exchange *)
  cardinality : float;
  own_work : float;  (** work of this operator's base descriptor *)
  subtree_rt : float;  (** response time of the subtree rooted here *)
  subtree_first : float;  (** first-tuple time of the subtree *)
}

val rows : Env.t -> Parqo_optree.Op.node -> row list
(** Preorder. *)

val table : Env.t -> Parqo_optree.Op.node -> Parqo_util.Tableau.t
(** The rows as a printable table. *)

val render : Env.t -> Parqo_optree.Op.node -> string

val explain_plan : Env.t -> Parqo_plan.Join_tree.t -> string
(** Expand and render, with a cost summary line: response time, work
    and the plan's output order ({!Parqo_plan.Props.ordering}), [-] when
    it has none.  The order is the interesting one: an index scan's
    order shows only up to its longest prefix of columns that a join
    predicate or the ORDER BY names, so a scan through an index on a
    column nothing names prints [-]. *)
