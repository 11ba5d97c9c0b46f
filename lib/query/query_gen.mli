(** Synthetic catalogs and query shapes for experiments.

    Shapes follow the standard join-graph taxonomy: chains (pipelines of
    joins), stars (fact table with dimensions — the decision-support shape
    the paper's introduction motivates), cycles, and cliques (every pair
    joinable, the worst case for the search algorithms and the shape under
    which the DP counters match Table 1 exactly). *)

type shape = Chain | Star | Cycle | Clique

val shape_to_string : shape -> string

type spec = {
  shape : shape;
  n : int;  (** number of relations, >= 1 *)
  base_card : float;  (** cardinality of the smallest relation *)
  card_skew : float;
      (** relation i has cardinality [base_card * (1 + card_skew)^i] *)
  distinct_fraction : float;  (** distinct values per join column, as a
      fraction of the relation cardinality (controls join selectivity) *)
  n_disks : int;  (** tables are placed round-robin on this many disks *)
  with_indexes : bool;  (** clustered index on each join column *)
}

val default_spec : shape -> int -> spec
(** [base_card = 1000.], [card_skew = 0.5], [distinct_fraction = 0.1],
    [n_disks = 4], [with_indexes = true]. *)

val generate : spec -> Parqo_catalog.Catalog.t * Query.t
(** A deterministic catalog ["t0" .. "t(n-1)"] and the query joining them
    in the requested shape. Join columns are named after the edge, e.g.
    ["j0_1"] joining t0 and t1. *)

val random :
  Parqo_util.Rng.t ->
  n:int ->
  ?n_disks:int ->
  ?with_indexes:bool ->
  unit ->
  Parqo_catalog.Catalog.t * Query.t
(** A random connected join graph over [n] relations (spanning tree plus
    random extra edges) with randomized cardinalities (100 .. 100_000) and
    selectivities; placements round-robin over [n_disks] (default 4). *)

val random_disconnected :
  Parqo_util.Rng.t -> n:int -> Parqo_catalog.Catalog.t * Query.t
(** Like {!random} with its defaults, but the join graph over [n >= 2]
    relations has between 2 and [n] connected components, each a random
    spanning tree plus random extra edges: a query whose plans need a
    cartesian product. *)
