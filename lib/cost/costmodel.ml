module Op = Parqo_optree.Op
module P = Parqo_plan
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
  if required = P.Ordering.none || P.Ordering.satisfies e.ordering required
  then e
  else
    let optree = add_final_sort e.optree required in
    let descriptor = of_optree ~reuse:[ (e.optree, e.descriptor) ] env optree in
    of_descriptor ~tree:e.tree ~optree ~ordering:e.ordering descriptor

let evaluate ?(required_order = P.Ordering.none) (env : Env.t) tree =
  let optree =
    Parqo_optree.Expand.expand ~config:env.expand_config env.estimator tree
  in
  let ordering = P.Props.ordering (Env.query env) tree in
  with_final_sort env required_order
    (of_descriptor ~tree ~optree ~ordering (of_optree env optree))

(* ---------------------------------------------------------------- *)
(* Incremental, bounded costing (the DP hot path).

   Every candidate a DP prices is a join of sub-plans it already
   evaluated — a memoized plan and an access plan, or two memoized
   plans in a bushy search — so pricing from the children's evaluations
   costs O(new root operators): the new root operators are expanded over
   the children's operator trees (Expand.expand_join, over a context
   computed once per pair of relation sets), their base descriptors are
   computed, and only then composed onto the children's descriptors
   exactly as [of_optree] would.  Between the two steps the candidate's
   work is bounded from below and compared with the extension's limit:
   pipe, tree and sync never lose work, so a candidate over the limit
   is dropped before any composition.  Every arithmetic operation on a
   priced plan runs on the same values in the same order as the
   from-scratch path, so the results are bit-identical.

   What a join's new operators cost splits in two.  The inner entry —
   the root's base, the inner plan's descriptor piped through the inner
   side's bases and the bound's inner term — depends on the inner plan,
   the method and the clone degree alone; the outer entry — the
   outer side's bases, their compositions, the outer term and the key
   — on the method, the clone degree and the outer plan's class
   ([outer_shape_equal]).  Both are kept as flat float rows in the
   scratch ([Descriptor.rows]), so the joins of one extension compute
   each entry once.  An outer plan piped through an entry's side is
   kept in the entry's last row, stamped with the plan, so the joins of
   one memo plan compose it once per entry.  Each join then costs one
   kernel pass over its root, into the scratch's view ([price]): no
   expansion, no record.  The view's measures and rows are what pruning
   metrics read, the entry's key what their refinements compare, so a
   join is tested before anything of it is built, [keep] copies only
   the descriptor of a join its cover admits, and [plan] expands and
   builds only a kept join the cover still holds at the end.  The
   materialized variant of a join is read off the pipelined one's
   pricing ([twin]), and the node-id renumbering — the one walk over
   the whole tree — is left to [numbered], which a DP runs only on the
   plans it keeps. *)

type join_context = Parqo_optree.Expand.context

let join_context (env : Env.t) ~outer ~inner =
  (* the combination is well formed iff the leaf sets are disjoint (each
     side was checked by its own evaluation) *)
  if not (Bitset.disjoint outer inner) then
    invalid_arg "Costmodel: relation used more than once";
  Parqo_optree.Expand.context env.estimator ~outer ~inner

type key = {
  ordering : P.Ordering.t;
  partition : P.Ordering.col option;
  clone : int;
}

let key_of (e : eval) =
  {
    ordering = e.ordering;
    partition = e.optree.Op.partition;
    clone = e.optree.Op.clone;
  }

let no_key = { ordering = P.Ordering.none; partition = None; clone = 0 }

(* The outer plan of an extension that has priced no join yet: a plan
   no search holds, so the first [select] loads its plan. *)
let no_plan : eval =
  {
    tree = P.Join_tree.access 0;
    optree =
      {
        Op.id = 0;
        kind = Op.Seq_scan { rel = 0 };
        children = [];
        composition = Op.Pipelined;
        clone = 1;
        partition = None;
        out_card = 0.;
        out_width = 0.;
      };
    descriptor = Descriptor.zero 0;
    response_time = 0.;
    work = 0.;
    ordering = P.Ordering.none;
  }

(* Row slots: two for composing a side, one for the outer plan of the
   joins priced now, and two for an inner side's bases while they are
   composed; then the entries' rows, allocated as entries are filled and
   forgotten with them: per inner entry the root's base and, unless the root probes a
   bare index, the composed inner descriptor after it; per outer entry
   the outer side's bases, bottom-most first, and, if there are any,
   the outer plan composed through them. *)
let tmp_a = 0
let tmp_b = 1
let plan_row = 2
let side_rows = 3
let entry_rows = 5

type view = {
  rows : Descriptor.view;
  mutable twin : bool;
  mutable shows : shows;
}

(* what the rows hold: an evaluated plan, or the join last priced in an
   extension *)
and shows = Nothing | Plan of eval | Join of extension

and extension = {
  scratch : scratch;
  env : Env.t;
  ctx : join_context;
  inner : eval array;
  methods : P.Join_method.t array;
  clones : int array;
  mutable limit : float;
  keys : key array;  (* per outer entry, made as it is filled *)
  mutable outer : eval;  (* the outer plan of the joins priced now *)
  mutable at_inner : int;  (* the join the view shows: inner plan, *)
  mutable at_method : int;  (* method, clone degree (indices) *)
  mutable at_clone : int;
  mutable at_out : int;  (* and outer entry *)
  mutable root : Op.node option;  (* its root operator, once expanded *)
}

and scratch = {
  ds : Descriptor.scratch;
  store : Descriptor.rows;
  view : view;
  mutable next : int;  (* the first row no entry holds *)
  mutable stamp : int;  (* the loaded extension; entries stamped so are valid *)
  mutable plan : int;  (* the outer plan in [plan_row] *)
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
  mutable out_plan : int array;
      (* the outer plan the entry's composed side is of ([plan]) *)
  mutable flags : int;  (* [store_side]'s materialized operators *)
  work : float array;  (* [| [store_side]'s base work sum |] *)
}

let scratch (env : Env.t) =
  let dim = env.placement.Placement.dim in
  let store = Descriptor.rows dim in
  Descriptor.rows_reserve store entry_rows;
  {
    ds = Descriptor.scratch dim;
    store;
    view =
      {
        rows = Descriptor.rows_view store;
        twin = false;
        shows = Nothing;
      };
    next = entry_rows;
    stamp = 0;
    plan = 0;
    in_stamp = [||];
    in_row = [||];
    in_free = [||];
    in_term = [||];
    out_stamp = [||];
    out_row = [||];
    out_side = [||];
    out_term = [||];
    out_plan = [||];
    flags = 0;
    work = [| 0. |];
  }

let view s = s.view

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
    s.out_term <- Array.make n 0.;
    s.out_plan <- Array.make n (-1)
  end;
  s.next <- entry_rows;
  s.stamp <- s.stamp + 1

(* [n] rows for an entry *)
let take s n =
  let k = s.next in
  s.next <- k + n;
  Descriptor.rows_reserve s.store s.next;
  k

(* The bound is a sum of non-negative terms, each a float sum over the
   resources, so it can exceed the exact priced work only by rounding —
   a few ulps.  A relative slack far above that keeps rounding from ever
   rejecting a plan whose priced work is within the limit. *)
let slack = 1e-9
let[@inline] over_limit ~limit bound = bound > limit *. (1. +. slack)

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

(* Price [node]'s base descriptor into slot [k] and add its work, summed
   as [Descriptor.work] sums it, to [s.work.(0)]. *)
let store_base s (env : Env.t) k node =
  Opcost.base_row env.placement env.estimator node s.store k;
  let w = Descriptor.row_work s.store and dim = env.placement.Placement.dim in
  let sum = ref 0. in
  for i = k * dim to ((k + 1) * dim) - 1 do
    sum := !sum +. w.(i)
  done;
  s.work.(0) <- s.work.(0) +. !sum

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
      store_base s env (first + j) node;
      if node.Op.composition = Op.Materialized then
        s.flags <- s.flags lor (1 lsl j);
      j + 1
    | _ -> invalid_arg "Costmodel: join side is not a unary chain"

(* Slot [src] piped bottom-up through the [n > 0] side bases from slot
   [first] into slot [dst], synced after each materialized one —
   [of_optree]'s unary case, node by node *)
let compose_side s (env : Env.t) ~src ~first ~n ~flags ~dst =
  let rows = s.store and p = env.dparams in
  for j = 0 to n - 1 do
    let from = if j = 0 then src else tmp_b in
    let out = if j = n - 1 then dst else tmp_b in
    Descriptor.pipe_row s.ds p rows ~src:from ~cons:(first + j) ~dst:out;
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
  s.flags <- 0;
  s.work.(0) <- 0.;
  store_base s env row root;
  let n = store_side s env ~first:side_rows ie.optree r in
  if not free then begin
    Descriptor.set_row s.store (if n = 0 then row + 1 else tmp_a) ie.descriptor;
    compose_side s env ~src:tmp_a ~first:side_rows ~n ~flags:s.flags
      ~dst:(row + 1)
  end;
  s.in_row.(i) <- row;
  s.in_free.(i) <- free;
  s.in_term.(i) <- (if free then s.work.(0) else s.work.(0) +. ie.work);
  s.in_stamp.(i) <- s.stamp

(* Outer entry [o] from [root], a join over [oe]: the outer side's
   bases and compositions, and the outer term, their base work. *)
let fill_outer s (env : Env.t) root (oe : eval) o =
  let l = child root 0 in
  let n = side_length oe.optree l in
  let first = take s (if n = 0 then 0 else n + 1) in
  s.flags <- 0;
  s.work.(0) <- 0.;
  ignore (store_side s env ~first oe.optree l);
  s.out_row.(o) <- first;
  s.out_side.(o) <- n lor (s.flags lsl 2);
  s.out_term.(o) <- s.work.(0);
  s.out_plan.(o) <- -1;
  s.out_stamp.(o) <- s.stamp

(* the bound: outer work + outer term + inner term *)
let[@inline] bound_of s ~(outer : eval) ~o ~i =
  outer.work +. s.out_term.(o) +. s.in_term.(i)

(* The join of the descriptor in slot [src], the outer plan [s.plan]
   stamps, piped through outer entry [o]'s side — into the entry's last
   row, unless it already holds that plan's — with inner entry [i]'s
   root base: piped when the root probes a bare index, else in a [tree]
   with the composed inner descriptor.  Into the view. *)
let compose s (env : Env.t) ~src ~o ~i =
  let side = s.out_side.(o) in
  let n = side land 3 in
  let l = if n = 0 then src else s.out_row.(o) + n in
  if n > 0 && s.out_plan.(o) <> s.plan then begin
    compose_side s env ~src ~first:s.out_row.(o) ~n ~flags:(side lsr 2)
      ~dst:l;
    s.out_plan.(o) <- s.plan
  end;
  let row = s.in_row.(i) and p = env.dparams in
  if s.in_free.(i) then Descriptor.pipe_view s.ds p s.store ~src:l ~cons:row
  else Descriptor.tree_view s.ds p s.store ~l ~r:(row + 1) ~root:row

let join_ordering (ctx : join_context) ~method_ ~clone (outer : eval) =
  P.Props.join_ordering method_ ~clone
    ~outer_key:(Lazy.from_val ctx.Parqo_optree.Expand.outer_key)
    ~outer:(Lazy.from_val outer.ordering)

let expand (env : Env.t) ctx ~method_ ~clone (oe : eval) (ie : eval) =
  Parqo_optree.Expand.expand_join ~config:env.expand_config ctx ~method_
    ~clone ~composition:Op.Pipelined ~outer:oe.optree ~inner:ie.optree
    ~outer_ordering:(Lazy.from_val oe.ordering)
    ~inner_ordering:(Lazy.from_val ie.ordering)

let extension scratch (env : Env.t) ctx ~inner ~methods ~clones ~classes
    ~limit =
  let slots = Array.length methods * Array.length clones in
  let n_out = classes * slots in
  reset scratch ~n_in:(Array.length inner * slots) ~n_out;
  {
    scratch;
    env;
    ctx;
    inner;
    methods;
    clones;
    limit;
    keys = Array.make n_out no_key;
    outer = no_plan;
    at_inner = 0;
    at_method = 0;
    at_clone = 0;
    at_out = 0;
    root = None;
  }

(* the entry of inner plan (or outer class) [k] under method [mi] and
   clone degree [ki] *)
let entry x k ~mi ~ki =
  (((k * Array.length x.methods) + mi) * Array.length x.clones) + ki

let set_limit x limit = x.limit <- limit

(* Make [outer] the outer plan of the joins priced next: its descriptor
   into the plan row, under a new plan stamp. *)
let select x (outer : eval) =
  if x.outer != outer then begin
    let s = x.scratch in
    x.outer <- outer;
    s.plan <- s.plan + 1;
    Descriptor.set_row s.store plan_row outer.descriptor
  end

(* Fill entries [i] and [o] unless the loaded extension already has
   them, expanding the join of [outer] to do so, with the key of [o]:
   the join's root if it was expanded. *)
let fill x ~outer ~inner ~mi ~ki ~i ~o =
  let s = x.scratch in
  if s.in_stamp.(i) = s.stamp && s.out_stamp.(o) = s.stamp then None
  else begin
    let ie = x.inner.(inner) in
    let method_ = x.methods.(mi) and clone = x.clones.(ki) in
    let root = expand x.env x.ctx ~method_ ~clone outer ie in
    if s.in_stamp.(i) <> s.stamp then fill_inner s x.env root ie i;
    if s.out_stamp.(o) <> s.stamp then begin
      fill_outer s x.env root outer o;
      x.keys.(o) <-
        {
          ordering = join_ordering x.ctx ~method_ ~clone outer;
          partition = root.Op.partition;
          clone = root.Op.clone;
        }
    end;
    Some root
  end

let bound x ~outer ~outer_class ~inner ~method_:mi ~clone:ki =
  let i = entry x inner ~mi ~ki and o = entry x outer_class ~mi ~ki in
  select x outer;
  ignore (fill x ~outer ~inner ~mi ~ki ~i ~o);
  bound_of x.scratch ~outer ~o ~i

let price x ~outer ~outer_class ~inner ~method_:mi ~clone:ki =
  let i = entry x inner ~mi ~ki and o = entry x outer_class ~mi ~ki in
  select x outer;
  let root = fill x ~outer ~inner ~mi ~ki ~i ~o in
  let s = x.scratch in
  if over_limit ~limit:x.limit (bound_of s ~outer ~o ~i) then false
  else begin
    compose s x.env ~src:plan_row ~o ~i;
    x.at_inner <- inner;
    x.at_method <- mi;
    x.at_clone <- ki;
    x.at_out <- o;
    x.root <- root;
    let v = s.view in
    v.twin <- false;
    (match v.shows with Join y when y == x -> () | _ -> v.shows <- Join x);
    true
  end

let show (v : view) (e : eval) =
  Descriptor.load v.rows e.descriptor;
  v.twin <- false;
  v.shows <- Plan e

let eval_view (e : eval) =
  let v =
    {
      rows =
        Descriptor.view
          (Parqo_util.Vecf.dim e.descriptor.Descriptor.rl.Rvec.work);
      twin = false;
      shows = Nothing;
    }
  in
  show v e;
  v

let twin (v : view) =
  match v.shows with
  | Join _ when not v.twin -> v.twin <- true
  | _ -> invalid_arg "Costmodel.twin: the view shows no pipelined join"

(* the join the view shows, priced in [x]: its root operator, expanded
   once *)
let joined_root x =
  match x.root with
  | Some root -> root
  | None ->
    let root =
      expand x.env x.ctx ~method_:x.methods.(x.at_method)
        ~clone:x.clones.(x.at_clone) x.outer
        x.inner.(x.at_inner)
    in
    x.root <- Some root;
    root

let materialized (root : Op.node) =
  { root with Op.composition = Op.Materialized }

let key (v : view) =
  match v.shows with
  | Plan e -> key_of e
  | Join x -> x.keys.(x.at_out)
  | Nothing -> invalid_arg "Costmodel.key: an empty view"

let view_optree (v : view) =
  match v.shows with
  | Plan e -> e.optree
  | Join x ->
    let root = joined_root x in
    if v.twin then materialized root else root
  | Nothing -> invalid_arg "Costmodel.view_optree: an empty view"

type candidate =
  | Built of eval
  | Priced of {
      x : extension;
      outer : eval;
      i : int;
      mi : int;
      ki : int;
      o : int;
      twin : bool;
      rows : Descriptor.t;  (* a copy of the view's *)
      mutable plan : eval option;
    }

let keep (v : view) =
  match v.shows with
  | Plan e -> Built e
  | Join x ->
    Priced
      {
        x;
        outer = x.outer;
        i = x.at_inner;
        mi = x.at_method;
        ki = x.at_clone;
        o = x.at_out;
        twin = v.twin;
        rows = Descriptor.of_view v.rows ~twin:v.twin;
        plan = None;
      }
  | Nothing -> invalid_arg "Costmodel.keep: an empty view"

let candidate_work = function
  | Built e -> e.work
  | Priced c -> Descriptor.work c.rows

let plan = function
  | Built e -> e
  | Priced { plan = Some e; _ } -> e
  | Priced c ->
    let x = c.x in
    let root =
      expand x.env x.ctx ~method_:x.methods.(c.mi) ~clone:x.clones.(c.ki)
        c.outer x.inner.(c.i)
    in
    let e =
      {
        tree =
          P.Join_tree.join ~clone:x.clones.(c.ki) ~materialize:c.twin
            x.methods.(c.mi) ~outer:c.outer.tree ~inner:x.inner.(c.i).tree;
        optree = (if c.twin then materialized root else root);
        descriptor = c.rows;
        response_time = Descriptor.response_time c.rows;
        work = Descriptor.work c.rows;
        ordering = x.keys.(c.o).ordering;
      }
    in
    c.plan <- Some e;
    e

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

let numbered e = { e with optree = Parqo_optree.Expand.renumber e.optree }

let response_time env tree = (evaluate env tree).response_time
let work env tree = (evaluate env tree).work

let pp_eval ppf e =
  Format.fprintf ppf "@[<v>plan: %s@,rt=%.3f work=%.3f order=%s@,%a@]"
    (P.Join_tree.to_string e.tree)
    e.response_time e.work
    (P.Ordering.to_string e.ordering)
    Op.pp e.optree
