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
   evaluated — a memoized plan and an access plan, or two memoized
   plans in a bushy search — so pricing from the
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
   from-scratch path, so the results are bit-identical.

   What a join's new operators cost splits in two.  The inner entry —
   the root's base, the inner plan's descriptor piped through the inner
   side's bases and the bound's inner term — depends on the inner plan,
   the method and the clone degree alone; the outer entry — the
   outer side's bases, their compositions and the outer term — on the
   method, the clone degree and the outer plan's class
   ([outer_shape_equal]).  Both are kept as flat float rows in the
   scratch ([Descriptor.rows]), so the joins of one extension compute
   each entry once and compose only the outer side and the root per
   candidate, into the scratch; [price_join] fills both entries from its
   one join and copies the result out. *)

type join_context = Parqo_optree.Expand.context

let join_context (env : Env.t) ~outer ~inner =
  (* the combination is well formed iff the leaf sets are disjoint (each
     side was checked by its own evaluation) *)
  if not (Bitset.disjoint outer inner) then
    invalid_arg "Costmodel: relation used more than once";
  Parqo_optree.Expand.context env.estimator ~outer ~inner

(* Row slots: three for composing a candidate's outer side and two for
   an inner side's bases while they are composed; then the entries'
   rows, allocated as entries are filled and forgotten with them: per
   inner entry the root's base and, unless the root probes a bare
   index, the composed inner descriptor after it; per outer entry the
   outer side's bases, bottom-most first.  Entry 0 of each table is
   [price_join]'s, which gives its rows back when it returns. *)
let tmp_a = 0
let tmp_b = 1
let left = 2
let side_rows = 3
let entry_rows = 5

type scratch = {
  ds : Descriptor.scratch;
  rows : Descriptor.rows;
  mutable next : int;  (* the first row no entry holds *)
  mutable stamp : int;  (* the loaded extension; entries stamped so are valid *)
  mutable in_stamp : int array;
  mutable in_row : int array;
  mutable in_free : bool array;  (* the root probes a bare index *)
  mutable in_term : float array;
  mutable out_stamp : int array;
  mutable out_row : int array;
  mutable out_side : int array;
      (* the side's operator count, plus 4 (8) when its first (second)
         operator, bottom-most first, is materialized *)
  mutable out_term : float array;
  mutable flags : int;  (* [store_side]'s materialized operators *)
  work : float array;  (* [| [store_side]'s base work sum |] *)
}

let scratch (env : Env.t) =
  let dim = env.placement.Placement.dim in
  let rows = Descriptor.rows dim in
  Descriptor.rows_reserve rows entry_rows;
  {
    ds = Descriptor.scratch dim;
    rows;
    next = entry_rows;
    stamp = 0;
    in_stamp = [| -1 |];
    in_row = [| 0 |];
    in_free = [| false |];
    in_term = [| 0. |];
    out_stamp = [| -1 |];
    out_row = [| 0 |];
    out_side = [| 0 |];
    out_term = [| 0. |];
    flags = 0;
    work = [| 0. |];
  }

(* Forget every entry, with room for [n_in] inner and [n_out] outer
   ones. *)
let reset s ~n_in ~n_out =
  if n_in > Array.length s.in_stamp then begin
    let n = max n_in (2 * Array.length s.in_stamp) in
    s.in_stamp <- Array.make n (-1);
    s.in_row <- Array.make n 0;
    s.in_free <- Array.make n false;
    s.in_term <- Array.make n 0.
  end;
  if n_out > Array.length s.out_stamp then begin
    let n = max n_out (2 * Array.length s.out_stamp) in
    s.out_stamp <- Array.make n (-1);
    s.out_row <- Array.make n 0;
    s.out_side <- Array.make n 0;
    s.out_term <- Array.make n 0.
  end;
  s.next <- entry_rows;
  s.stamp <- s.stamp + 1

(* [n] rows for an entry *)
let take s n =
  let k = s.next in
  s.next <- k + n;
  Descriptor.rows_reserve s.rows s.next;
  k

(* The bound is a sum of non-negative terms, each a float sum over the
   resources, so it can exceed the exact priced work only by rounding —
   a few ulps.  A relative slack far above that keeps rounding from ever
   rejecting a plan whose priced work is within the limit. *)
let slack = 1e-9
let over_limit ~limit bound = bound > limit *. (1. +. slack)

(* The number of new operators on one side: the unary chain from
   [node] down to the grafted child [stop].  Expansion adds at most two
   (an exchange, then a sort, build or index creation). *)
let rec side_length stop (node : Op.node) =
  if node == stop then 0
  else
    match node.Op.children with
    | [ c ] ->
      let n = 1 + side_length stop c in
      if n > 2 then
        invalid_arg "Costmodel: join side of more than two operators";
      n
    | _ -> invalid_arg "Costmodel: join side is not a unary chain"

(* Store the base descriptors of that chain's operators, bottom-most
   first from slot [first], and return their count; set bit [j] of
   [s.flags] when the [j]-th is materialized, and add their base work
   to [s.work.(0)] in that order. *)
let rec store_side s (env : Env.t) ~first stop (node : Op.node) =
  if node == stop then 0
  else
    match node.Op.children with
    | [ c ] ->
      let j = store_side s env ~first stop c in
      let b = Opcost.base env.placement env.estimator node in
      Descriptor.set_row s.rows (first + j) b;
      if node.Op.composition = Op.Materialized then
        s.flags <- s.flags lor (1 lsl j);
      s.work.(0) <- s.work.(0) +. Descriptor.work b;
      j + 1
    | _ -> invalid_arg "Costmodel: join side is not a unary chain"

(* [d] piped bottom-up through the [n] side bases from slot [first] into
   slot [dst], synced after each materialized one — [of_optree]'s unary
   case, node by node *)
let compose_side s (env : Env.t) d ~first ~n ~flags ~dst =
  let rows = s.rows and p = env.dparams in
  Descriptor.set_row rows (if n = 0 then dst else tmp_a) d;
  for j = 0 to n - 1 do
    let src = if j = 0 then tmp_a else tmp_b in
    let out = if j = n - 1 then dst else tmp_b in
    Descriptor.pipe_row s.ds p rows ~src ~cons:(first + j) ~dst:out;
    if flags land (1 lsl j) <> 0 then Descriptor.sync_row rows out
  done

let child (root : Op.node) side =
  match root.Op.children with
  | [ l; r ] -> if side = 0 then l else r
  | _ -> invalid_arg "Costmodel: join root is not binary"

(* Inner entry [i] from [root], a join over [ie]: the root's base;
   unless the root probes a bare index ([Opcost.nl_inner_is_free]),
   [ie]'s descriptor piped through the inner side's bases; and the inner
   term — the root's and the side's base work, plus the inner plan's
   work unless the index is probed. *)
let fill_inner s (env : Env.t) root (ie : eval) i =
  let r = child root 1 in
  ignore (side_length ie.optree r);
  let free = Opcost.nl_inner_is_free root in
  let row = take s (if free then 1 else 2) in
  let rb = Opcost.base env.placement env.estimator root in
  Descriptor.set_row s.rows row rb;
  s.flags <- 0;
  s.work.(0) <- Descriptor.work rb;
  let n = store_side s env ~first:side_rows ie.optree r in
  if not free then
    compose_side s env ie.descriptor ~first:side_rows ~n ~flags:s.flags
      ~dst:(row + 1);
  s.in_row.(i) <- row;
  s.in_free.(i) <- free;
  s.in_term.(i) <- (if free then s.work.(0) else s.work.(0) +. ie.work);
  s.in_stamp.(i) <- s.stamp

(* Outer entry [o] from [root], a join over [oe]: the outer side's
   bases and compositions, and the outer term, their base work. *)
let fill_outer s (env : Env.t) root (oe : eval) o =
  let l = child root 0 in
  let n = side_length oe.optree l in
  let first = take s n in
  s.flags <- 0;
  s.work.(0) <- 0.;
  ignore (store_side s env ~first oe.optree l);
  s.out_row.(o) <- first;
  s.out_side.(o) <- n lor (s.flags lsl 2);
  s.out_term.(o) <- s.work.(0);
  s.out_stamp.(o) <- s.stamp

(* the bound: outer work + outer term + inner term *)
let bound_of s ~(outer : eval) ~o ~i =
  outer.work +. s.out_term.(o) +. s.in_term.(i)

(* The candidate over [root]: [oe]'s descriptor piped through outer
   entry [o]'s side, then with inner entry [i]'s root base — piped when
   the root probes a bare index, else in a [tree] with the composed
   inner descriptor.  Its descriptor views the scratch. *)
let compose s (env : Env.t) ctx root ~method_ ~clone ~(outer : eval) ~o ~i =
  let side = s.out_side.(o) in
  compose_side s env outer.descriptor ~first:s.out_row.(o) ~n:(side land 3)
    ~flags:(side lsr 2) ~dst:left;
  let row = s.in_row.(i) and p = env.dparams in
  let descriptor =
    if s.in_free.(i) then Descriptor.pipe_view s.ds p s.rows ~src:left ~cons:row
    else
      Descriptor.tree_view s.ds p s.rows ~l:left ~r:(row + 1) ~root:row
  in
  let ordering =
    P.Props.join_ordering method_ ~clone
      ~outer_key:(Lazy.from_val ctx.Parqo_optree.Expand.outer_key)
      ~outer:(Lazy.from_val outer.ordering)
  in
  of_descriptor ~tree:() ~optree:root ~ordering descriptor

let expand (env : Env.t) ctx ~method_ ~clone (oe : eval) (ie : eval) =
  Parqo_optree.Expand.expand_join ~config:env.expand_config ctx ~method_
    ~clone ~composition:Op.Pipelined ~outer:oe.optree ~inner:ie.optree
    ~outer_ordering:(Lazy.from_val oe.ordering)
    ~inner_ordering:(Lazy.from_val ie.ordering)

let check_sides (ctx : join_context) oe ie =
  if
    not
      (Bitset.equal (P.Join_tree.relations oe.tree) ctx.outer_rels
      && Bitset.equal (P.Join_tree.relations ie.tree) ctx.inner_rels)
  then invalid_arg "Costmodel.price_join: plans outside the join context"

let price_join ~scratch:s ~limit (env : Env.t) (ctx : join_context) ~method_
    ~clone ~outer:oe ~inner:ie =
  check_sides ctx oe ie;
  let root = expand env ctx ~method_ ~clone oe ie in
  let next = s.next in
  fill_inner s env root ie 0;
  fill_outer s env root oe 0;
  let c =
    if over_limit ~limit (bound_of s ~outer:oe ~o:0 ~i:0) then None
    else
      let c = compose s env ctx root ~method_ ~clone ~outer:oe ~o:0 ~i:0 in
      Some { c with descriptor = Descriptor.copy c.descriptor }
  in
  s.next <- next;
  c

type extension = {
  scratch : scratch;
  env : Env.t;
  ctx : join_context;
  inner : eval array;
  methods : P.Join_method.t array;
  clones : int array;
  limit : float;
}

let extension scratch (env : Env.t) ctx ~inner ~methods ~clones ~classes
    ~limit =
  let slots = Array.length methods * Array.length clones in
  reset scratch
    ~n_in:(1 + (Array.length inner * slots))
    ~n_out:(1 + (classes * slots));
  { scratch; env; ctx; inner; methods; clones; limit }

(* the entry of inner plan (or outer class) [k] under method [mi] and
   clone degree [ki] *)
let entry x k ~mi ~ki =
  1 + (((k * Array.length x.methods) + mi) * Array.length x.clones) + ki

(* Fill entries [i] and [o] unless the loaded extension already has
   them, expanding the join to do so: the join's root if it was
   expanded. *)
let fill x ~outer ~inner ~mi ~ki ~i ~o =
  let s = x.scratch in
  if s.in_stamp.(i) = s.stamp && s.out_stamp.(o) = s.stamp then None
  else begin
    let ie = x.inner.(inner) in
    let root =
      expand x.env x.ctx ~method_:x.methods.(mi) ~clone:x.clones.(ki) outer ie
    in
    if s.in_stamp.(i) <> s.stamp then fill_inner s x.env root ie i;
    if s.out_stamp.(o) <> s.stamp then fill_outer s x.env root outer o;
    Some root
  end

let bound x ~outer ~outer_class ~inner ~method_:mi ~clone:ki =
  let i = entry x inner ~mi ~ki and o = entry x outer_class ~mi ~ki in
  ignore (fill x ~outer ~inner ~mi ~ki ~i ~o);
  bound_of x.scratch ~outer ~o ~i

let price x ~outer ~outer_class ~inner ~method_:mi ~clone:ki =
  let i = entry x inner ~mi ~ki and o = entry x outer_class ~mi ~ki in
  let root = fill x ~outer ~inner ~mi ~ki ~i ~o in
  let s = x.scratch in
  if over_limit ~limit:x.limit (bound_of s ~outer ~o ~i) then None
  else begin
    let method_ = x.methods.(mi) and clone = x.clones.(ki) in
    let root =
      match root with
      | Some root -> root
      | None -> expand x.env x.ctx ~method_ ~clone outer x.inner.(inner)
    in
    Some (compose s x.env x.ctx root ~method_ ~clone ~outer ~o ~i)
  end

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
    { c with tree; descriptor = Descriptor.copy c.descriptor }
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
