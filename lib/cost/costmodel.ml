module Op = Parqo_optree.Op
module P = Parqo_plan
module Plan_cache = Parqo_util.Plan_cache
module Bitset = Parqo_util.Bitset

type eval = {
  tree : P.Join_tree.t;
  optree : Op.node;
  descriptor : Descriptor.t;
  response_time : float;
  work : float;
  ordering : P.Ordering.t;
}

let rec reuse_find node = function
  | [] -> None
  | (k, d) :: rest -> if k == node then Some d else reuse_find node rest

let scratch (env : Env.t) = Descriptor.scratch env.placement.Placement.dim

let of_optree ?(reuse = []) ?scratch:s (env : Env.t) root =
  let p = env.dparams in
  let s =
    (* the combinators run on a scratch either way; the incremental hot
       path passes a long-lived one, one-shot callers get a fresh one *)
    match s with Some s -> s | None -> scratch env
  in
  let rec descr (node : Op.node) =
    (* [reuse] holds grafted sub-trees (matched physically) whose
       descriptors were computed by this same recursion earlier — the
       incremental path stops here instead of re-walking them *)
    match reuse_find node reuse with
    | Some d -> d
    | None -> (
      let base = Opcost.base env.placement env.estimator node in
      let combined =
        match node.Op.children with
        | [] -> base
        | [ c ] -> Descriptor.pipe_s s p (descr c) base
        | [ l; r ] ->
          if Opcost.nl_inner_is_free node then
            (* the inner index is probed, not scanned: only the outer feeds
               the pipeline, probing cost is in [base] *)
            Descriptor.pipe_s s p (descr l) base
          else Descriptor.tree_s s p (descr l) (descr r) base
        | _ -> invalid_arg "Costmodel: operator with more than two children"
      in
      match node.Op.composition with
      | Op.Materialized -> Descriptor.sync combined
      | Op.Pipelined -> combined)
  in
  descr root

let required_order (env : Env.t) =
  List.map
    (fun (c : Parqo_query.Query.column_ref) ->
      { P.Ordering.rel = c.Parqo_query.Query.rel; column = c.Parqo_query.Query.column })
    (Env.query env).Parqo_query.Query.order_by

(* wrap the expanded plan in a final sort (after collapsing partitioned
   streams to one) so ORDER BY cost is part of the same calculus *)
let add_final_sort (root : Op.node) key =
  let max_id = Op.fold (fun acc n -> max acc n.Op.id) 0 root in
  let merged =
    if root.Op.clone > 1 then
      {
        Op.id = max_id + 1;
        kind = Op.Exchange { mode = Op.Merge_streams };
        children = [ root ];
        composition = Op.Pipelined;
        clone = 1;
        partition = None;
        out_card = root.Op.out_card;
        out_width = root.Op.out_width;
      }
    else root
  in
  {
    Op.id = max_id + 2;
    kind = Op.Sort { key };
    children = [ merged ];
    composition = Op.Pipelined;
    clone = 1;
    partition = None;
    out_card = merged.Op.out_card;
    out_width = merged.Op.out_width;
  }

let of_descriptor ~tree ~optree ~ordering descriptor =
  {
    tree;
    optree;
    descriptor;
    response_time = Descriptor.response_time descriptor;
    work = Descriptor.work descriptor;
    ordering;
  }

(* add the ORDER BY sort on top of an already-costed plan; the sort (and
   merge) descriptors pipe onto the root's, exactly as a from-scratch
   [of_optree] over the extended tree would compute them *)
let with_final_sort (env : Env.t) required e =
  let optree = add_final_sort e.optree required in
  let descriptor = of_optree ~reuse:[ (e.optree, e.descriptor) ] env optree in
  of_descriptor ~tree:e.tree ~optree ~ordering:e.ordering descriptor

let evaluate ?(required_order = P.Ordering.none) (env : Env.t) tree =
  let optree =
    Parqo_optree.Expand.expand ~config:env.expand_config env.estimator tree
  in
  let ordering = P.Props.ordering (Env.query env) tree in
  let e = of_descriptor ~tree ~optree ~ordering (of_optree env optree) in
  if
    required_order <> P.Ordering.none
    && not (P.Ordering.satisfies ordering required_order)
  then with_final_sort env required_order e
  else e

(* ---------------------------------------------------------------- *)
(* Incremental costing (the PODP hot path).

   Every candidate the partial-order DP prices is a join of sub-plans it
   already evaluated — a memoized plan and an access plan — so pricing
   from the children's evaluations costs O(new root operators): the
   child expansions are grafted under the new root operators
   (Expand.expand_join) and the new operators' descriptors pipe onto the
   children's (of_optree ~reuse).  The materialized variant of a join is
   derived from the pipelined one ([materialized_twin]), and the node-id
   renumbering — the one walk over the whole tree — is left to
   [numbered], which the DP runs only on the plans its covers keep.
   Every arithmetic operation runs on the same values in the same order
   as the from-scratch path, so the results are bit-identical. *)

(* Price join [j] (the node of [tree]) over its children's evaluations:
   the new root operators are expanded over the children's operator
   trees, grafted unchanged, and their descriptors pipe onto the
   children's, so only the new operators are costed.  The operator tree
   is left unnumbered (new nodes carry id 0): ids depend only on the
   final shape, so [numbered] can assign them once the plan is kept. *)
let join_eval ~scratch (env : Env.t) tree (j : P.Join_tree.join) oe ie =
  (* children are well-formed (their own evaluation checked them); the
     combination is iff their leaf sets are disjoint *)
  if not (Bitset.disjoint (P.Join_tree.relations oe.tree)
            (P.Join_tree.relations ie.tree))
  then invalid_arg "Costmodel: relation used more than once";
  let root =
    Parqo_optree.Expand.expand_join ~config:env.expand_config env.estimator j
      ~outer:oe.optree ~inner:ie.optree ~outer_ordering:(lazy oe.ordering)
      ~inner_ordering:(lazy ie.ordering)
  in
  let descriptor =
    of_optree
      ~reuse:[ (oe.optree, oe.descriptor); (ie.optree, ie.descriptor) ]
      ~scratch env root
  in
  let ordering =
    P.Props.ordering_of_join (Env.query env) j ~outer:(fun () -> oe.ordering)
  in
  of_descriptor ~tree ~optree:root ~ordering descriptor

let price_join ~scratch env ~method_ ~clone ~outer ~inner =
  let tree =
    P.Join_tree.join ~clone method_ ~outer:outer.tree ~inner:inner.tree
  in
  match tree with
  | P.Join_tree.Join j -> join_eval ~scratch env tree j outer inner
  | P.Join_tree.Access _ -> assert false (* [Join_tree.join] builds a join *)

(* [Expand.expand_join] sets the requested composition on the root
   operator only, [Opcost.base] never reads it, and [of_optree] applies
   [sync] to the root's combined descriptor last: so the materialized
   join is the pipelined one with its root flipped and [sync] applied.
   [sync] keeps [rl], hence response time and work, bit for bit. *)
let materialized_twin e =
  match e.tree with
  | P.Join_tree.Join ({ materialize = false; _ } as j) ->
    let tree =
      P.Join_tree.join ~clone:j.clone ~materialize:true j.method_
        ~outer:j.outer ~inner:j.inner
    in
    {
      e with
      tree;
      optree = { e.optree with Op.composition = Op.Materialized };
      descriptor = Descriptor.sync e.descriptor;
    }
  | _ -> invalid_arg "Costmodel.materialized_twin: not a pipelined join"

let numbered e = { e with optree = Parqo_optree.Expand.renumber e.optree }

(* ---------------------------------------------------------------- *)
(* The sub-plan cache, for callers holding join trees rather than their
   children's evaluations (annotation search).

   It stores one entry per remembered sub-plan — keyed by the tree's
   interned canonical key — holding its expansion, descriptor and output
   ordering, and prices a join of cached children through the same
   [join_eval] as the DP, renumbering each result.

   Domain safety is by ownership, not locking: a cache handle belongs to
   one domain; parallel regions give each worker a [shard_cache] (private
   overlay over the shared published snapshot, lock-free reads), the
   coordinator [absorb_cache]s the shards after the barrier and
   [publish_cache]es its writes before the next region.  Values are pure
   functions of the key, so independently computed entries are
   interchangeable.  Access-plan leaves are always remembered; joins only
   with [remember_all] (two-phase search, where revisited sub-trees are
   the common case). *)

type cache = {
  store : eval Plan_cache.t;
  remember_all : bool;
  mutable scratch : Descriptor.scratch option;
      (* descriptor scratch, lazily sized to the machine; owned by this
         handle's domain like the store, never shared across shards *)
}

let create_cache ?(remember_all = false) () =
  { store = Plan_cache.create (); remember_all; scratch = None }

let shard_cache cache =
  {
    store = Plan_cache.shard cache.store;
    remember_all = cache.remember_all;
    scratch = None;
  }

let scratch_of cache env =
  match cache.scratch with
  | Some s -> s
  | None ->
    let s = scratch env in
    cache.scratch <- Some s;
    s

let absorb_cache cache shard = Plan_cache.absorb cache.store shard.store
let publish_cache cache = Plan_cache.publish cache.store

let cache_stats cache =
  (Plan_cache.hits cache.store, Plan_cache.misses cache.store,
   Plan_cache.length cache.store)

let rec evaluate_sub cache (env : Env.t) (tree : P.Join_tree.t) =
  let key = P.Join_tree.key tree in
  match Plan_cache.find cache.store key with
  | Some e -> e
  | None ->
    let e =
      match tree with
      | P.Join_tree.Access _ -> evaluate env tree
      | P.Join_tree.Join j ->
        let oe = evaluate_sub cache env j.outer in
        let ie = evaluate_sub cache env j.inner in
        numbered (join_eval ~scratch:(scratch_of cache env) env tree j oe ie)
    in
    let keep =
      cache.remember_all
      || (match tree with P.Join_tree.Access _ -> true | P.Join_tree.Join _ -> false)
    in
    if keep then Plan_cache.remember cache.store key e;
    e

let evaluate_cached ?(required_order = P.Ordering.none) cache env tree =
  let e = evaluate_sub cache env tree in
  if
    required_order <> P.Ordering.none
    && not (P.Ordering.satisfies e.ordering required_order)
  then with_final_sort env required_order e
  else e

let response_time env tree = (evaluate env tree).response_time
let work env tree = (evaluate env tree).work

let pp_eval ppf e =
  Format.fprintf ppf "@[<v>plan: %s@,rt=%.3f work=%.3f order=%s@,%a@]"
    (P.Join_tree.to_string e.tree)
    e.response_time e.work
    (P.Ordering.to_string e.ordering)
    Op.pp e.optree
