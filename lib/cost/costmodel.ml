module Op = Parqo_optree.Op
module P = Parqo_plan
module Bitset = Parqo_util.Bitset

type 'tree priced = {
  tree : 'tree;
  optree : Op.node;
  descriptor : Descriptor.t;
  response_time : float;
  work : float;
  ordering : P.Ordering.t;
}

type eval = P.Join_tree.t priced
type candidate = unit priced

let without_tree c = { c with tree = () }

let rec reuse_find node = function
  | [] -> None
  | (k, d) :: rest -> if k == node then Some d else reuse_find node rest

let of_optree ?(reuse = []) (env : Env.t) root =
  let p = env.dparams in
  let s = Descriptor.scratch env.placement.Placement.dim in
  let rec descr (node : Op.node) =
    (* [reuse] holds sub-trees (matched physically) whose descriptors are
       already known — the final-sort path stops there instead of
       re-walking the plan below *)
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
(* Incremental, bounded costing (the DP hot path).

   Every candidate a DP prices is a join of sub-plans it already
   evaluated — a memoized plan and an access plan — so pricing from the
   children's evaluations costs O(new root operators): the new root
   operators are expanded over the children's operator trees
   (Expand.expand_join, over a context computed once per pair of
   relation sets), their base descriptors are computed, and only then
   composed onto the children's descriptors exactly as [of_optree]
   would.  Between the two steps the candidate's work is bounded from
   below and compared with the caller's limit: pipe, tree and sync
   never lose work, so a candidate over the limit is dropped before any
   composition.  Pricing stops at a [candidate]: the cost, ordering and
   operators, but no join tree — the tree, its key and the eval record
   are built by [admit], which a DP calls only for the candidates it
   keeps.  The materialized variant of a join is derived from the
   pipelined one ([materialized_twin]), and the node-id renumbering —
   the one walk over the whole tree — is left to [numbered], which the
   DP runs only on the plans it keeps.  Every arithmetic operation on a
   priced plan runs on the same values in the same order as the
   from-scratch path, so the results are bit-identical. *)

type join_context = Parqo_optree.Expand.context

let join_context (env : Env.t) ~outer ~inner =
  (* the combination is well formed iff the leaf sets are disjoint (each
     side was checked by its own evaluation) *)
  if not (Bitset.disjoint outer inner) then
    invalid_arg "Costmodel: relation used more than once";
  Parqo_optree.Expand.context env.estimator ~outer ~inner

type scratch = {
  ds : Descriptor.scratch;
  last : float array;
      (* [| outer term; inner term; bound |] of the last join priced *)
  class_limit : float array;  (* [| limit |] the class tables serve *)
  mutable slots : int;  (* table entries per class *)
  mutable outer_terms : float array;  (* (outer class, slot); nan: unseen *)
  mutable inner_terms : float array;  (* (inner class, slot); nan: unseen *)
}

let scratch (env : Env.t) =
  {
    ds = Descriptor.scratch env.placement.Placement.dim;
    last = Array.make 3 0.;
    class_limit = [| infinity |];
    slots = 0;
    outer_terms = [||];
    inner_terms = [||];
  }

let work_bound ~outer_work ~outer_term ~inner_term =
  outer_work +. outer_term +. inner_term

(* The bound is a sum of non-negative terms, each a float sum over the
   resources, so it can exceed the exact priced work only by rounding —
   a few ulps.  A relative slack far above that keeps rounding from ever
   rejecting a plan whose priced work is within the limit. *)
let slack = 1e-9
let over_limit ~limit bound = bound > limit *. (1. +. slack)

let last_bound s = s.last.(2)

let nan_table a n =
  let a =
    if Array.length a >= n then a
    else Array.make (max n (2 * Array.length a)) nan
  in
  Array.fill a 0 n nan;
  a

let reset_classes s ~limit ~outer_classes ~inner_classes ~slots =
  s.class_limit.(0) <- limit;
  s.slots <- slots;
  s.outer_terms <- nan_table s.outer_terms (outer_classes * slots);
  s.inner_terms <- nan_table s.inner_terms (inner_classes * slots)

let class_rejects s ~outer ~outer_class ~inner_class ~slot =
  let ot = s.outer_terms.((outer_class * s.slots) + slot)
  and it = s.inner_terms.((inner_class * s.slots) + slot) in
  (* nan <> nan: both terms recorded *)
  ot = ot && it = it
  && over_limit ~limit:s.class_limit.(0)
       (work_bound ~outer_work:outer.work ~outer_term:ot ~inner_term:it)

let record_class_terms s ~outer_class ~inner_class ~slot =
  s.outer_terms.((outer_class * s.slots) + slot) <- s.last.(0);
  s.inner_terms.((inner_class * s.slots) + slot) <- s.last.(1)

(* The base descriptors of one side's new operators: the unary chain from
   [node] down to the grafted child [stop], bottom-most first. *)
let rec side_bases (env : Env.t) stop (node : Op.node) acc =
  if node == stop then acc
  else
    match node.Op.children with
    | [ c ] ->
      side_bases env stop c
        ((node, Opcost.base env.placement env.estimator node) :: acc)
    | _ -> invalid_arg "Costmodel: join side is not a unary chain"

let rec side_work acc = function
  | [] -> acc
  | (_, b) :: rest -> side_work (acc +. Descriptor.work b) rest

let composed (node : Op.node) d =
  match node.Op.composition with
  | Op.Materialized -> Descriptor.sync d
  | Op.Pipelined -> d

(* a side's descriptor: the grafted child's, piped bottom-up through the
   side's new operators — [of_optree]'s unary case, node by node *)
let rec compose_side s p d = function
  | [] -> d
  | (node, b) :: rest ->
    compose_side s p (composed node (Descriptor.pipe_s s p d b)) rest

let check_sides (ctx : join_context) oe ie =
  if
    not
      (Bitset.equal (P.Join_tree.relations oe.tree) ctx.outer_rels
      && Bitset.equal (P.Join_tree.relations ie.tree) ctx.inner_rels)
  then invalid_arg "Costmodel.price_join: plans outside the join context"

(* Expand the pipelined join of [oe] and [ie], base its new operators and
   leave the bound's two terms in the scratch; then, unless the bound
   exceeds [limit], compose the root's descriptor.  The outer term sums
   the outer side's new operators.  The inner term sums the root
   operator, the inner side's new operators and, unless the root probes
   a bare index ([Opcost.nl_inner_is_free]), the inner plan's work.  Both
   are functions of the candidate's class — see [outer_shape_equal] —
   which is what lets a DP reuse them across memo plans. *)
let price_join ~scratch ~limit (env : Env.t) (ctx : join_context) ~method_
    ~clone ~outer:oe ~inner:ie =
  check_sides ctx oe ie;
  let root =
    Parqo_optree.Expand.expand_join ~config:env.expand_config ctx ~method_
      ~clone ~composition:Op.Pipelined ~outer:oe.optree ~inner:ie.optree
      ~outer_ordering:(Lazy.from_val oe.ordering)
      ~inner_ordering:(Lazy.from_val ie.ordering)
  in
  match root.Op.children with
  | [ l; r ] ->
    let rb = Opcost.base env.placement env.estimator root in
    let lb = side_bases env oe.optree l [] in
    let rbs = side_bases env ie.optree r [] in
    let free = Opcost.nl_inner_is_free root in
    let outer_term = side_work 0. lb in
    let inner_new = side_work (Descriptor.work rb) rbs in
    let inner_term = if free then inner_new else inner_new +. ie.work in
    let bound = work_bound ~outer_work:oe.work ~outer_term ~inner_term in
    scratch.last.(0) <- outer_term;
    scratch.last.(1) <- inner_term;
    scratch.last.(2) <- bound;
    if over_limit ~limit bound then None
    else begin
      let s = scratch.ds and p = env.dparams in
      let dl = compose_side s p oe.descriptor lb in
      let descriptor =
        if free then Descriptor.pipe_s s p dl rb
        else Descriptor.tree_s s p dl (compose_side s p ie.descriptor rbs) rb
      in
      let ordering =
        P.Props.join_ordering method_ ~clone
          ~outer_key:(Lazy.from_val ctx.outer_key)
          ~outer:(Lazy.from_val oe.ordering)
      in
      Some (of_descriptor ~tree:() ~optree:root ~ordering descriptor)
    end
  | _ -> invalid_arg "Costmodel: join root is not binary"

(* The outer side's new operators read the outer root's clone degree,
   partitioning and kind (an exchange), its cardinality and width, and
   the outer plan's ordering (sort elision).  Cardinality and width are
   functions of the relation set, equal for all plans of one memo
   entry; the rest is compared. *)
let outer_shape_equal a b =
  let ra = a.optree and rb = b.optree in
  let exchange (n : Op.node) =
    match n.Op.kind with Op.Exchange _ -> true | _ -> false
  in
  ra.Op.clone = rb.Op.clone
  && ra.Op.partition = rb.Op.partition
  && exchange ra = exchange rb
  && P.Ordering.equal a.ordering b.ordering

(* [Expand.expand_join] sets the requested composition on the root
   operator only, [Opcost.base] never reads it, and [of_optree] applies
   [sync] to the root's combined descriptor last: so the materialized
   join is the pipelined one with its root flipped and [sync] applied.
   [sync] keeps [rl], hence response time and work, bit for bit. *)
let materialized_twin (c : candidate) =
  match c.optree with
  | {
   Op.composition = Op.Pipelined;
   kind = Op.Hash_probe | Op.Merge_join | Op.Nl_join;
   _;
  } ->
    {
      c with
      optree = { c.optree with Op.composition = Op.Materialized };
      descriptor = Descriptor.sync c.descriptor;
    }
  | _ -> invalid_arg "Costmodel.materialized_twin: not a pipelined join"

(* the join method whose expansion has this root (Expand.expand_join) *)
let method_of_root (root : Op.node) =
  match root.Op.kind with
  | Op.Hash_probe -> P.Join_method.Hash_join
  | Op.Merge_join -> P.Join_method.Sort_merge
  | Op.Nl_join -> P.Join_method.Nested_loops
  | _ -> invalid_arg "Costmodel.admit: not a join"

(* [node]'s unary chain reaches the grafted operator tree [stop] *)
let rec grafts stop (node : Op.node) =
  node == stop
  || match node.Op.children with [ c ] -> grafts stop c | _ -> false

(* The join tree is read off the candidate's root operator — method,
   clone degree and composition — over the children it grafts, so an
   eval can only be built with the tree that was priced. *)
let admit ~outer ~inner (c : candidate) : eval =
  let root = c.optree in
  match root.Op.children with
  | [ l; r ] when grafts outer.optree l && grafts inner.optree r ->
    let tree =
      P.Join_tree.join ~clone:root.Op.clone
        ~materialize:(root.Op.composition = Op.Materialized)
        (method_of_root root) ~outer:outer.tree ~inner:inner.tree
    in
    { c with tree }
  | _ -> invalid_arg "Costmodel.admit: not a join of these plans"

let numbered e = { e with optree = Parqo_optree.Expand.renumber e.optree }

let response_time env tree = (evaluate env tree).response_time
let work env tree = (evaluate env tree).work

let pp_eval ppf e =
  Format.fprintf ppf "@[<v>plan: %s@,rt=%.3f work=%.3f order=%s@,%a@]"
    (P.Join_tree.to_string e.tree)
    e.response_time e.work
    (P.Ordering.to_string e.ordering)
    Op.pp e.optree
