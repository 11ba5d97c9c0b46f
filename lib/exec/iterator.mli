(** A pull-based (Volcano-style) iterator executor.

    Where {!Executor} materializes every intermediate result, this
    executor streams: each operator produces tuples on demand through
    [next], so pipelined composition (§4.2) is real at the data level —
    a probe emits its first joined row after only the build side has been
    consumed, exactly the first-tuple/last-tuple distinction the cost
    model's descriptors track.  Blocking operators (sort, index build)
    consume their whole input on the first [next].

    The three executors (materializing, parallel-partitioned, streaming)
    share one join kernel and are mutually cross-checked by the test
    suite on random plans. *)

type t
(** An open iterator: a stream of rows over a fixed layout. *)

val layout : t -> Batch.layout

val next : t -> Parqo_catalog.Value.t array option
(** The next row, or [None] when exhausted (idempotent thereafter). *)

val close : t -> unit
(** Releases state; [next] after [close] raises [Invalid_argument]. *)

val of_plan :
  Parqo_catalog.Datagen.database ->
  Parqo_query.Query.t ->
  Parqo_plan.Join_tree.t ->
  t
(** Compiles an annotated join tree to an iterator pipeline: accesses
    stream base rows (index scans in key order), and every join probes an
    {!Executor.index} over its inner, built from the drained inner when
    the first outer row is wanted.  Nested loops and hash join stream the
    outer, each outer row followed by its matches in inner order;
    sort-merge drains the outer, sorts it stably on its key ({!Executor.sort_on})
    and streams the same probe, so it blocks on both inputs.  Keys are
    equal when {!Parqo_catalog.Value.compare} says so.  The joined rows
    come in {!Executor.join}'s order for the same inputs.  Selections
    are applied in the scans. *)

val to_batch : t -> Batch.t
(** Drains the iterator (and closes it). *)

val run_query :
  Parqo_catalog.Datagen.database ->
  Parqo_query.Query.t ->
  Parqo_plan.Join_tree.t ->
  Batch.t
(** [of_plan] + drain + ORDER BY + projection — same contract as
    {!Executor.run_query}. *)

val rows_until_first : t -> int ref
(** Instrumentation used by tests: a counter incremented per base-table
    row fetched; reading it right after the first [next] shows how much
    input a pipelined plan needed to emit its first tuple (small for
    streaming plans, everything for blocking ones). *)
