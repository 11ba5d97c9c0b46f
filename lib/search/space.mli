(** Search-space generation: the candidate annotated join trees the
    algorithms enumerate.

    [join_candidates] plays the role of the paper's [joinPlan(p', R)] —
    except that, because annotations (join method, access path, cloning
    degree, output materialization) are independent optimization choices,
    it returns every candidate extension and lets the caller keep the best
    one (Figure 1) or the cover set (Figure 2). *)

type tree_shape = Left_deep | Bushy
(** The join trees a search builds: left-deep, where every join's inner
    side is one base relation (Figures 1 and 2), or bushy, where both
    sides may be composite (§6.4). *)

type config = {
  methods : Parqo_plan.Join_method.t list;
  clone_degrees : int list;  (** candidate cloning degrees; must include 1 *)
  use_indexes : bool;  (** consider index scans as access paths *)
  materialize_choices : bool;
      (** also generate join variants whose output is materialized *)
}

val default_config : config
(** All three methods, degrees [[1]], indexes on, no materialize
    variants — the sequential System R space. *)

val sequential_config : config
(** Nested loops + sort-merge only, no indexes, degree 1: the minimal
    space whose plan counts equal the join-order counts of Table 1 is
    obtained with {!minimal_config}. *)

val minimal_config : config
(** Exactly one method (nested loops), seq scans only, degree 1: one plan
    per join order, for verifying Table 1 space sizes. *)

val parallel_config : Parqo_machine.Machine.t -> config
(** Degrees 1, 2, 4, ... up to the machine's CPU count, materialize
    variants on. *)

val access_plans : Parqo_cost.Env.t -> config -> int -> Parqo_plan.Join_tree.t list
(** All access paths × cloning degrees for a relation. Never empty. *)

val connects : Parqo_cost.Env.t -> Parqo_util.Bitset.t -> Parqo_util.Bitset.t -> bool
(** Some join predicate crosses the two sets. *)

val joinable : Parqo_cost.Env.t -> Parqo_util.Bitset.t -> bool
(** The search space's rule (MODEL.md §8).  [joinable env] examines the
    query's join graph once; [joinable env s] holds when the searches
    build plans of the relation set [s] and join them: when [s] is
    connected ({!Parqo_query.Query.connected}, a walk over the query's
    neighbour masks), or when the query's join graph is not, and then
    for every set.  So a connected query's plans join only connected
    sides, never a cartesian product; a disconnected one keeps every
    subset and the cartesian fallback.  A join of two joinable sides of
    a connected query is always {!connects}-joined. *)

val join_methods : config -> joined:bool -> Parqo_plan.Join_method.t list
(** The configured methods that apply between two sides: all of them
    when a join predicate connects the sides ([joined]), else nested
    loops only (the cartesian fallback). *)

val combine_candidates :
  Parqo_cost.Env.t ->
  config ->
  outer:Parqo_plan.Join_tree.t ->
  inner:Parqo_plan.Join_tree.t ->
  Parqo_plan.Join_tree.t list
(** All annotated joins of two subplans: for each of {!join_methods},
    each clone degree, the pipelined join followed — when
    [materialize_choices] is set — by its materialized twin. *)

val join_candidates :
  Parqo_cost.Env.t ->
  config ->
  outer:Parqo_plan.Join_tree.t ->
  rel:int ->
  Parqo_plan.Join_tree.t list
(** [combine_candidates] against every access plan of [rel]. *)
