(** A single-threaded, materializing reference executor.

    It executes annotated join trees over materialized synthetic data
    using the join method each node is annotated with (nested loops,
    sort-merge or hash).  Its purpose is semantic ground truth: every
    legal plan for a query must return the same bag of tuples, so any
    plan the optimizer emits can be checked end-to-end.  Parallel
    annotations (cloning, composition) do not affect results and are
    ignored here; timing is the {!Parqo_sim} simulator's job. *)

val scan :
  Parqo_catalog.Datagen.database -> Parqo_query.Query.t -> rel:int -> Batch.t
(** Base rows of a relation with the query's selections applied. *)

val index_scan :
  Parqo_catalog.Datagen.database ->
  Parqo_query.Query.t ->
  rel:int ->
  Parqo_catalog.Index.t ->
  Batch.t
(** {!scan} in the index's key order: the database's precomputed order
    of the index ({!Parqo_catalog.Datagen.index_rows}), filtered — the
    same rows as a stable sort of {!scan}'s on the index columns.
    Raises [Not_found] for an index the database was not built with. *)

val join :
  Parqo_catalog.Datagen.database ->
  Parqo_query.Query.t ->
  method_:Parqo_plan.Join_method.t ->
  outer:Batch.t ->
  inner:Batch.t ->
  Batch.t
(** Joins two batches on every query predicate that crosses them
    (cartesian product when none does).  Every method is one keyed probe
    of an {!index} over the inner: the result lists each outer row in
    order, each followed by its matches in inner order.  Nested loops
    and hash join probe with the outer as given; sort-merge probes with
    the outer stably sorted on its key ({!sort_on}), which is the
    merge's output order.  Keys are equal when {!Parqo_catalog.Value.compare}
    says so, so all three methods return the same bag.  Apart from
    sort-merge's sort, the work is proportional to input plus output. *)

(** {1 Join keys}

    Shared by every executor.  A row's key is the tuple of its values at
    the join columns, in predicate order. *)

val column_pos :
  Parqo_catalog.Datagen.database ->
  Parqo_query.Query.t ->
  Batch.layout ->
  Parqo_query.Query.column_ref ->
  int
(** Position of a query column in rows of the given layout. *)

val key_positions :
  Parqo_catalog.Datagen.database ->
  Parqo_query.Query.t ->
  outer:Batch.layout ->
  inner:Batch.layout ->
  int array * int array
(** The key columns of every predicate crossing the two layouts: their
    positions in outer rows and in inner rows (empty for a cartesian
    product). *)

val sort_on :
  int array -> Parqo_catalog.Value.t array list -> Parqo_catalog.Value.t array list
(** Stable sort on the values at the given positions, compared with
    {!Parqo_catalog.Value.compare_at}. *)

type index
(** An inner side's rows grouped by key, in a table hashed with
    {!Parqo_catalog.Value.hash}. *)

val index : int array -> Parqo_catalog.Value.t array list -> index
(** [index positions rows] groups [rows] by their key at [positions],
    each group in input order.  Extracts each row's key once. *)

val matches :
  index -> int array -> Parqo_catalog.Value.t array -> Parqo_catalog.Value.t array list
(** [matches index positions row]: the indexed rows whose key equals
    [row]'s key at [positions], in input order. *)

val run :
  Parqo_catalog.Datagen.database ->
  Parqo_query.Query.t ->
  Parqo_plan.Join_tree.t ->
  Batch.t
(** Executes a join tree bottom-up. Raises [Invalid_argument] on a tree
    that is not well-formed for the query. *)

val project :
  Parqo_catalog.Datagen.database -> Parqo_query.Query.t -> Batch.t -> Batch.t
(** Applies the query's projection list (identity when empty). *)

val finalize :
  Parqo_catalog.Datagen.database -> Parqo_query.Query.t -> Batch.t -> Batch.t
(** ORDER BY (stable sort on the requested columns) followed by the
    projection — the query's output contract, shared by every executor. *)

val run_query :
  Parqo_catalog.Datagen.database ->
  Parqo_query.Query.t ->
  Parqo_plan.Join_tree.t ->
  Batch.t
(** [run] followed by [finalize]. *)

val reference :
  Parqo_catalog.Datagen.database -> Parqo_query.Query.t -> Batch.t
(** Ground truth computed by a fixed canonical plan (left-deep in
    relation order, nested loops), with projection. *)
