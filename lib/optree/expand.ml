module P = Parqo_plan
module Q = Parqo_query.Query
module C = Parqo_catalog

type config = { create_index_for_nl : bool }

let default_config = { create_index_for_nl = false }

let node ?(composition = Op.Pipelined) ?partition ~clone ~out_card ~out_width kind
    children =
  {
    Op.id = 0;
    kind;
    children;
    composition;
    clone;
    partition;
    out_card;
    out_width;
  }

(* Insert an exchange unless the producer already satisfies the consumer's
   partitioning requirement.  [attr = None] accepts any partitioning
   attribute of the right degree. *)
let ensure_partition (n : Op.node) ~degree ~attr =
  let compatible =
    n.Op.clone = degree
    && (degree = 1
       || match attr with
          | None -> true
          | Some a -> (
            match n.Op.partition with
            | Some b -> a = b
            | None -> false))
  in
  if compatible then n
  else
    let mode = if degree = 1 then Op.Merge_streams else Op.Repartition in
    node
      (Op.Exchange { mode })
      [ n ] ~clone:degree ?partition:attr ~out_card:n.Op.out_card
      ~out_width:n.Op.out_width

let broadcast (n : Op.node) ~degree =
  if degree = 1 then ensure_partition n ~degree:1 ~attr:None
  else
    node
      (Op.Exchange { mode = Op.Broadcast })
      [ n ] ~clone:degree
      ~out_card:(n.Op.out_card *. float_of_int degree)
      ~out_width:n.Op.out_width

let expand_access est (a : P.Join_tree.access) =
  let out_card = P.Estimator.base_card est a.rel in
  let out_width =
    float_of_int (C.Table.arity (P.Estimator.table_of est a.rel))
  in
  let kind =
    match a.path with
    | P.Access_path.Seq_scan -> Op.Seq_scan { rel = a.rel }
    | P.Access_path.Index_scan index -> Op.Index_scan { rel = a.rel; index }
  in
  node kind [] ~clone:a.clone ~out_card ~out_width

type context = {
  outer_rels : Parqo_util.Bitset.t;
  inner_rels : Parqo_util.Bitset.t;
  out_card : float;
  out_width : float;
  outer_key : P.Ordering.t;
  inner_key : P.Ordering.t;
  outer_attr : P.Ordering.col option;
  inner_attr : P.Ordering.col option;
}

let attr_of = function [] -> None | (c : P.Ordering.col) :: _ -> Some c

let context est ~outer ~inner =
  let rels = Parqo_util.Bitset.union outer inner in
  let outer_key, inner_key =
    P.Props.sort_keys (P.Estimator.query est) ~outer ~inner
  in
  {
    outer_rels = outer;
    inner_rels = inner;
    out_card = P.Estimator.card est rels;
    out_width = P.Estimator.width est rels;
    outer_key;
    inner_key;
    outer_attr = attr_of outer_key;
    inner_attr = attr_of inner_key;
  }

(* Expand one join over already-expanded children.  The child operator
   trees are grafted as-is (their node ids are rewritten by the caller's
   final {!renumber}); [outer_ordering]/[inner_ordering] are the children's
   join-tree output orderings, taken lazily so the full expansion only
   computes them when the sort-merge sort-elision check needs them while
   incremental costing passes the memoized values for free.  Everything
   that depends only on the two relation sets comes from [ctx]. *)
let expand_join ?(config = default_config) ctx ~method_ ~clone:k ~composition
    ~outer ~inner ~outer_ordering ~inner_ordering =
  let out_card = ctx.out_card and out_width = ctx.out_width in
  let outer_key = ctx.outer_key and inner_key = ctx.inner_key in
  let outer_attr = ctx.outer_attr and inner_attr = ctx.inner_attr in
  match method_ with
  | P.Join_method.Hash_join ->
    let inner' = ensure_partition inner ~degree:k ~attr:inner_attr in
    let build =
      node Op.Hash_build [ inner' ] ~composition:Op.Materialized ~clone:k
        ?partition:inner_attr ~out_card:inner'.Op.out_card
        ~out_width:inner'.Op.out_width
    in
    let outer' = ensure_partition outer ~degree:k ~attr:outer_attr in
    node Op.Hash_probe [ outer'; build ] ~composition ~clone:k
      ?partition:outer_attr ~out_card ~out_width
  | P.Join_method.Sort_merge ->
    let sorted side_ordering child key =
      (* A sort is needed unless the stream is single (k = 1), no
         exchange was inserted, and the input ordering subsumes the key.
         Exchanges destroy order; repartitioned streams are sorted per
         partition. *)
      let exchanged =
        match child.Op.kind with Op.Exchange _ -> true | _ -> false
      in
      if
        key <> []
        && (exchanged || k > 1
           || not (P.Ordering.satisfies (Lazy.force side_ordering) key))
      then
        node (Op.Sort { key }) [ child ] ~composition:Op.Materialized ~clone:k
          ?partition:child.Op.partition ~out_card:child.Op.out_card
          ~out_width:child.Op.out_width
      else child
    in
    let outer' = ensure_partition outer ~degree:k ~attr:outer_attr in
    let inner' = ensure_partition inner ~degree:k ~attr:inner_attr in
    let sorted_outer = sorted outer_ordering outer' outer_key in
    let sorted_inner = sorted inner_ordering inner' inner_key in
    node Op.Merge_join [ sorted_outer; sorted_inner ] ~composition ~clone:k
      ?partition:outer_attr ~out_card ~out_width
  | P.Join_method.Nested_loops ->
    let outer' = ensure_partition outer ~degree:k ~attr:None in
    let inner' = broadcast inner ~degree:k in
    let inner'' =
      let unindexed_scan =
        match inner'.Op.kind with Op.Seq_scan _ -> true | _ -> false
      in
      if config.create_index_for_nl && unindexed_scan then
        let rel =
          match inner'.Op.kind with
          | Op.Seq_scan { rel } -> rel
          | _ -> assert false
        in
        node
          (Op.Create_index { rel })
          [ inner' ] ~composition:Op.Materialized ~clone:k
          ~out_card:inner'.Op.out_card ~out_width:inner'.Op.out_width
      else inner'
    in
    node Op.Nl_join [ outer'; inner'' ] ~composition ~clone:k ~out_card
      ~out_width

(* assign unique preorder ids — ids depend only on the final tree shape,
   so grafting pre-expanded (already renumbered) children and renumbering
   the whole tree yields exactly the ids a from-scratch expansion gives *)
let renumber root =
  let counter = ref 0 in
  let rec go (n : Op.node) =
    let id = !counter in
    incr counter;
    { n with Op.id; children = List.map go n.Op.children }
  in
  go root

let expand ?(config = default_config) est tree =
  let query = P.Estimator.query est in
  (match P.Join_tree.well_formed ~n_relations:(Q.n_relations query) tree with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Expand.expand: " ^ msg));
  let rec go t =
    match t with
    | P.Join_tree.Access a -> expand_access est a
    | P.Join_tree.Join j ->
      let ctx =
        context est
          ~outer:(P.Join_tree.relations j.outer)
          ~inner:(P.Join_tree.relations j.inner)
      in
      expand_join ~config ctx ~method_:j.method_ ~clone:j.clone
        ~composition:(if j.materialize then Op.Materialized else Op.Pipelined)
        ~outer:(go j.outer) ~inner:(go j.inner)
        ~outer_ordering:(lazy (P.Props.ordering query j.outer))
        ~inner_ordering:(lazy (P.Props.ordering query j.inner))
  in
  renumber (go tree)
