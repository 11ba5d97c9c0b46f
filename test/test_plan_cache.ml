(* Incremental costing: pricing a join from its children's evaluations
   must be bit-identical to the from-scratch evaluation, on every field
   of the eval — the whole design (grafted child expansions, descriptor
   reuse, shape-only renumbering) stands on that equivalence. *)

module Cm = Parqo.Costmodel
module Op = Parqo.Op
module Q = Parqo.Query
module S = Parqo.Space
module Podp = Parqo.Podp
module Mt = Parqo.Metric
module Stats = Parqo.Search_stats
module Bitset = Parqo.Bitset

let t name f = Alcotest.test_case name `Quick f

let check_eval_identical = Helpers.check_eval_identical

(* The join of two evaluated plans, priced as a one-join extension
   ([Cm.extension], [Cm.price]), its twin if [materialize], then kept
   and built ([Cm.keep], [Cm.plan]): unnumbered. *)
let price_join env scratch ~method_ ~clone ~materialize (outer : Cm.eval)
    (inner : Cm.eval) =
  let ctx =
    Cm.join_context env
      ~outer:(Parqo.Join_tree.relations outer.Cm.tree)
      ~inner:(Parqo.Join_tree.relations inner.Cm.tree)
  in
  let x =
    Cm.extension scratch env ctx ~inner:[| inner |] ~methods:[| method_ |]
      ~clones:[| clone |] ~classes:1 ~limit:infinity
  in
  if not (Cm.price x ~outer ~outer_class:0 ~inner:0 ~method_:0 ~clone:0) then
    Alcotest.fail "unlimited price rejected a plan";
  if materialize then Cm.twin (Cm.view scratch);
  Cm.plan (Cm.keep (Cm.view scratch))

(* Price a tree join by join from its children's unnumbered
   evaluations, materialized joins as twins — the path two-phase search
   prices its assignments on. *)
let rec price_bottom_up env scratch (tree : Parqo.Join_tree.t) =
  match tree with
  | Parqo.Join_tree.Access _ -> Cm.evaluate env tree
  | Parqo.Join_tree.Join j ->
    let outer = price_bottom_up env scratch j.Parqo.Join_tree.outer
    and inner = price_bottom_up env scratch j.Parqo.Join_tree.inner in
    price_join env scratch ~method_:j.Parqo.Join_tree.method_
      ~clone:j.Parqo.Join_tree.clone
      ~materialize:j.Parqo.Join_tree.materialize outer inner

(* property: on random queries and random bushy trees with materialized
   joins, pricing join by join and numbering the root reproduces
   [Cm.evaluate] exactly *)
let bottom_up_matches_evaluate () =
  let rng = Parqo.Rng.create 31 in
  let materialized = ref 0 in
  for _ = 1 to 20 do
    let env = Helpers.random_env rng ~n:5 in
    let scratch = Cm.scratch env in
    for _ = 1 to 10 do
      let tree = Helpers.random_tree rng env in
      List.iter
        (fun (j : Parqo.Join_tree.join) ->
          if j.Parqo.Join_tree.materialize then incr materialized)
        (Parqo.Join_tree.joins tree);
      check_eval_identical "bottom-up"
        (Cm.numbered (price_bottom_up env scratch tree))
        (Cm.evaluate env tree)
    done
  done;
  Alcotest.(check bool) "materialized joins drawn" true (!materialized > 0)

(* property: on random join trees, every join priced from its children's
   evaluations and built, numbered, equals [Cm.evaluate] of the same
   tree, pipelined; and its twin ([Cm.twin]), built from the same
   pricing, equals [Cm.evaluate] of the materialized tree *)
let twin_matches_evaluate () =
  let rng = Parqo.Rng.create 36 in
  for _ = 1 to 20 do
    let env = Helpers.random_env rng ~n:5 in
    let scratch = Cm.scratch env in
    for _ = 1 to 5 do
      List.iter
        (fun (j : Parqo.Join_tree.join) ->
          let method_ = j.Parqo.Join_tree.method_
          and clone = j.Parqo.Join_tree.clone in
          let join materialize =
            Parqo.Join_tree.join ~clone ~materialize method_
              ~outer:j.Parqo.Join_tree.outer ~inner:j.Parqo.Join_tree.inner
          in
          let outer = Cm.evaluate env j.Parqo.Join_tree.outer
          and inner = Cm.evaluate env j.Parqo.Join_tree.inner in
          List.iter
            (fun (what, materialize) ->
              check_eval_identical what
                (Cm.numbered
                   (price_join env scratch ~method_ ~clone ~materialize outer
                      inner))
                (Cm.evaluate env (join materialize)))
            [ ("priced", false); ("twin of priced", true) ])
        (Parqo.Join_tree.joins (Helpers.random_tree rng env))
    done
  done

(* only a join priced and not yet twinned has a twin *)
let twin_rejects_non_pipelined () =
  let env = Helpers.chain_env ~n:2 () in
  let scan r = Parqo.Join_tree.access ~path:Parqo.Access_path.Seq_scan r in
  let err = Invalid_argument "Costmodel.twin: the view shows no pipelined join" in
  let twin_of tree () = Cm.twin (Cm.eval_view (Cm.evaluate env tree)) in
  Alcotest.check_raises "access" err (twin_of (scan 0));
  Alcotest.check_raises "materialized join" err
    (twin_of
       (Parqo.Join_tree.join ~materialize:true Parqo.Join_method.Hash_join
          ~outer:(scan 0) ~inner:(scan 1)));
  let scratch = Cm.scratch env in
  ignore
    (price_join env scratch ~method_:Parqo.Join_method.Hash_join ~clone:1
       ~materialize:true
       (Cm.evaluate env (scan 0))
       (Cm.evaluate env (scan 1)));
  Alcotest.check_raises "a twin" err (fun () -> Cm.twin (Cm.view scratch))

(* [Cm.keep] keeps the join the view shows — of the outer plan priced
   last, not of another plan of the extension — and nothing of an
   empty view *)
let build_returns_last_priced () =
  let env = Helpers.chain_env ~n:3 () in
  let scan path r = Cm.evaluate env (Parqo.Join_tree.access ~path r) in
  let scratch = Cm.scratch env in
  Alcotest.check_raises "empty view"
    (Invalid_argument "Costmodel.keep: an empty view") (fun () ->
      ignore (Cm.keep (Cm.view scratch)));
  let ctx =
    Cm.join_context env ~outer:(Bitset.singleton 0) ~inner:(Bitset.singleton 1)
  in
  let outers =
    [| scan Parqo.Access_path.Seq_scan 0; scan Parqo.Access_path.Seq_scan 0 |]
  in
  let x =
    Cm.extension scratch env ctx
      ~inner:[| scan Parqo.Access_path.Seq_scan 1 |]
      ~methods:[| Parqo.Join_method.Hash_join |] ~clones:[| 1 |] ~classes:1
      ~limit:infinity
  in
  Array.iter
    (fun outer ->
      ignore (Cm.price x ~outer ~outer_class:0 ~inner:0 ~method_:0 ~clone:0);
      let built = Cm.plan (Cm.keep (Cm.view scratch)) in
      Alcotest.(check string)
        "the priced plans" "HJ(scan(r0), scan(r1))"
        (Parqo.Join_tree.to_string built.Cm.tree);
      match built.Cm.optree.Op.children with
      | [ l; _ ] ->
        let rec grafts (n : Op.node) =
          n == outer.Cm.optree
          || match n.Op.children with [ c ] -> grafts c | _ -> false
        in
        Alcotest.(check bool) "grafts the outer plan priced last" true
          (grafts l)
      | _ -> Alcotest.fail "join root is not binary")
    outers

let join_context_rejects_overlap () =
  let env = Helpers.chain_env ~n:3 () in
  let set = Bitset.of_list in
  Alcotest.check_raises "overlapping sets"
    (Invalid_argument "Costmodel: relation used more than once") (fun () ->
      ignore (Cm.join_context env ~outer:(set [ 0; 1 ]) ~inner:(set [ 1; 2 ])));
  Alcotest.check_raises "a set joined with itself"
    (Invalid_argument "Costmodel: relation used more than once") (fun () ->
      ignore (Cm.join_context env ~outer:(set [ 0 ]) ~inner:(set [ 0 ])));
  ignore (Cm.join_context env ~outer:(set [ 0; 1 ]) ~inner:(set [ 2 ]))

let plan_str (e : Cm.eval) = Parqo.Join_tree.to_string e.Cm.tree

(* every cover entry is compared field by field, so an operator tree
   that escaped the search unnumbered fails on its ids *)
let check_result_identical msg (a : Podp.result) (b : Podp.result) =
  (match (a.Podp.best, b.Podp.best) with
  | Some x, Some y -> check_eval_identical (msg ^ ": best") x y
  | None, None -> ()
  | _ -> Alcotest.failf "%s: one run found a plan, the other did not" msg);
  Alcotest.(check (list string))
    (msg ^ ": cover")
    (List.map plan_str a.Podp.cover)
    (List.map plan_str b.Podp.cover);
  List.iter2 (check_eval_identical (msg ^ ": cover entry")) a.Podp.cover
    b.Podp.cover;
  Alcotest.(check (list int))
    (msg ^ ": level sizes")
    (Array.to_list a.Podp.level_sizes)
    (Array.to_list b.Podp.level_sizes);
  Alcotest.(check int) (msg ^ ": generated") a.Podp.stats.Stats.generated
    b.Podp.stats.Stats.generated;
  Alcotest.(check int) (msg ^ ": considered") a.Podp.stats.Stats.considered
    b.Podp.stats.Stats.considered

(* property: the whole search is bit-identical with incremental costing
   on and off — sequentially and at forced pool widths, in the
   sequential space and in the parallel one, whose materialized
   candidates are priced as twins of their pipelined siblings — with no
   work cap and with the cap [Optimizer.minimize_response_time] derives
   (throughput degradation 2 over the work-phase optimum), under which
   capped candidates are rejected from the shared entries' terms before
   they are expanded.  The rejected count is the same at every
   width, and so is the count of shared pricing entries. *)
let podp_identical_cache_on_off () =
  let rng = Parqo.Rng.create 33 in
  let rejected_somewhere = ref false in
  for _ = 1 to 3 do
    let env = Helpers.random_env rng ~n:4 in
    let metric =
      Mt.with_ordering (Mt.descriptor env.Parqo.Env.machine Parqo.Machine.Single)
    in
    List.iter
      (fun (space, config) ->
        let work_cap =
          match (Parqo.Optimizer.minimize_work ~config env).Parqo.Optimizer.best with
          | Some wo ->
            Parqo.Bounds.partial_work_cap
              (Parqo.Bounds.Throughput_degradation 2.)
              ~work_opt:wo.Cm.work ~rt_opt:wo.Cm.response_time
          | None -> Alcotest.fail "no work-optimal plan"
        in
        List.iter
          (fun (capped, work_cap) ->
            let space = if capped then space ^ ", capped" else space in
            let optimize ?pool plan_cache =
              Podp.optimize ~config ~metric ?work_cap ?pool ~plan_cache env
            in
            let off = optimize false in
            let on = optimize true in
            check_result_identical (space ^ ", domains=1") off on;
            let rejected = on.Podp.stats.Stats.rejected
            and entries = on.Podp.stats.Stats.entries in
            if rejected > 0 then rejected_somewhere := true;
            List.iter
              (fun k ->
                Helpers.with_forced_pool k (fun pool ->
                    let msg = Printf.sprintf "%s, width=%d" space k in
                    let r = optimize ~pool true in
                    check_result_identical msg off r;
                    Alcotest.(check int) (msg ^ ": rejected") rejected
                      r.Podp.stats.Stats.rejected;
                    Alcotest.(check int) (msg ^ ": entries") entries
                      r.Podp.stats.Stats.entries))
              [ 2; 3; 8 ])
          [ (false, None); (true, work_cap) ])
      [
        ("sequential", { S.default_config with S.clone_degrees = [ 1; 2 ] });
        ("parallel", S.parallel_config env.Parqo.Env.machine);
      ]
  done;
  Alcotest.(check bool) "the cap rejected candidates" true !rejected_somewhere

(* The machines the pricing properties run on: nominal, with rescaled
   resource speeds, and with a pipeline penalty that scales work. *)
let pricing_machines () =
  let nominal = Parqo.Machine.shared_nothing ~nodes:4 () in
  [
    ("nominal", nominal);
    ( "rescaled",
      Parqo.Machine.rescale nominal
        ~speeds:[ (0, 0.5); (2, 1.75); (5, 0.3); (8, 2.5) ] );
    ( "delta scales work",
      Parqo.Machine.shared_nothing
        ~params:
          {
            Parqo.Machine.default_params with
            Parqo.Machine.delta_scales_work = true;
          }
        ~nodes:4 () );
  ]

(* property: the work bound is sound.  For every join of evaluated
   children in random trees, loaded as a one-join extension, the bound
   its shared entries give ([Cm.bound]) is at most the priced work (up
   to 1e-12 relative), [Cm.price] returns no plan only when the priced
   work exceeds the limit — whether the limit is the extension's or
   set later ([Cm.set_limit]) — and it does reject when the bound
   clearly exceeds the limit.  The draws must include joins
   that probe a bare index, whose inner work the bound leaves out. *)
let bound_is_sound () =
  let rng = Parqo.Rng.create 37 in
  let free_inner = ref 0 and joins = ref 0 in
  List.iter
    (fun (name, machine) ->
      for _ = 1 to 12 do
        let catalog, query = Parqo.Query_gen.random rng ~n:5 () in
        let env = Parqo.Env.create ~machine ~catalog ~query () in
        let scratch = Cm.scratch env in
        for _ = 1 to 6 do
          List.iter
            (fun (j : Parqo.Join_tree.join) ->
              incr joins;
              let outer = Cm.evaluate env j.Parqo.Join_tree.outer
              and inner = Cm.evaluate env j.Parqo.Join_tree.inner in
              let method_ = j.Parqo.Join_tree.method_
              and clone = j.Parqo.Join_tree.clone in
              let ctx =
                Cm.join_context env
                  ~outer:(Parqo.Join_tree.relations j.Parqo.Join_tree.outer)
                  ~inner:(Parqo.Join_tree.relations j.Parqo.Join_tree.inner)
              in
              let load limit =
                Cm.extension scratch env ctx ~inner:[| inner |]
                  ~methods:[| method_ |] ~clones:[| clone |] ~classes:1 ~limit
              in
              let priced x =
                if
                  Cm.price x ~outer ~outer_class:0 ~inner:0 ~method_:0
                    ~clone:0
                then Some (Cm.plan (Cm.keep (Cm.view scratch)))
                else None
              in
              let price limit = priced (load limit)
              and set_limit limit =
                let x = load infinity in
                Cm.set_limit x limit;
                priced x
              in
              let work =
                match price infinity with
                | Some e ->
                  if Parqo.Opcost.nl_inner_is_free e.Cm.optree then
                    incr free_inner;
                  e.Cm.work
                | None -> Alcotest.fail "unlimited price rejected a plan"
              in
              let bound =
                Cm.bound (load infinity) ~outer ~outer_class:0 ~inner:0
                  ~method_:0 ~clone:0
              in
              if bound > work *. (1. +. 1e-12) then
                Alcotest.failf "%s: bound %.17g above priced work %.17g" name
                  bound work;
              List.iter
                (fun limit ->
                  List.iter
                    (fun (path, price) ->
                      match price limit with
                      | None when not (work > limit) ->
                        Alcotest.failf
                          "%s: %s rejected at limit %.17g, work %.17g" name
                          path limit work
                      | None | Some _ -> ())
                    [ ("price", price); ("set_limit", set_limit) ])
                [ work; Float.pred work; work *. (1. -. 1e-12); bound ];
              let clearly_over = bound /. (1. +. 1e-8) in
              if
                bound > 0.
                && (Option.is_some (price clearly_over)
                   || Option.is_some (set_limit clearly_over))
              then
                Alcotest.failf "%s: bound %.17g over the limit, not rejected"
                  name bound)
            (Parqo.Join_tree.joins (Helpers.random_tree rng env))
        done
      done)
    (pricing_machines ());
  Alcotest.(check bool)
    (Printf.sprintf "bare-index probes among %d joins" !joins)
    true (!free_inner > 0)

let bits = Int64.bits_of_float

let desc_bits (d : Parqo.Descriptor.t) =
  let rvec (r : Parqo.Rvec.t) =
    bits r.Parqo.Rvec.time
    :: List.map bits (Array.to_list (Parqo.Vecf.to_array r.Parqo.Rvec.work))
  in
  rvec d.Parqo.Descriptor.rf @ rvec d.Parqo.Descriptor.rl

(* a priced candidate, as Int64 bits and strings: descriptor rows and
   times, response time, work, ordering, and the root operator with its
   composition, clone degree and partitioning *)
let candidate_bits (c : Cm.eval) =
  let root = c.Cm.optree in
  ( desc_bits c.Cm.descriptor,
    (bits c.Cm.response_time, bits c.Cm.work),
    Parqo.Ordering.to_string c.Cm.ordering,
    ( Op.to_string root,
      root.Op.composition = Op.Materialized,
      root.Op.clone,
      Option.map
        (fun (col : Parqo.Ordering.col) -> (col.Parqo.Ordering.rel, col.column))
        root.Op.partition ) )

(* The outer side of the join of [p] and [a]: the base descriptors of
   its new operators, bottom-most first, with their compositions, and
   the outer term, their base work summed in that order. *)
let outer_side env ctx ~method_ ~clone (p : Cm.eval) (a : Cm.eval) =
  let root =
    Parqo.Expand.expand_join ~config:env.Parqo.Env.expand_config ctx ~method_
      ~clone ~composition:Op.Pipelined ~outer:p.Cm.optree ~inner:a.Cm.optree
      ~outer_ordering:(Lazy.from_val p.Cm.ordering)
      ~inner_ordering:(Lazy.from_val a.Cm.ordering)
  in
  let rec chain (n : Op.node) acc =
    if n == p.Cm.optree then acc
    else
      match n.Op.children with
      | [ c ] -> chain c (n :: acc)
      | _ -> Alcotest.fail "outer side is not a unary chain"
  in
  let nodes =
    match root.Op.children with
    | [ l; _ ] -> chain l []
    | _ -> Alcotest.fail "join root is not binary"
  in
  let bases =
    List.map
      (fun n ->
        Parqo.Opcost.base env.Parqo.Env.placement env.Parqo.Env.estimator n)
      nodes
  in
  ( List.map2
      (fun (n : Op.node) b -> (desc_bits b, n.Op.composition = Op.Materialized))
      nodes bases,
    bits
      (List.fold_left (fun acc b -> acc +. Parqo.Descriptor.work b) 0. bases) )

(* Every metric of [Metric], under each refinement: what a cover
   reads of a plan. *)
let all_metrics env =
  let machine = env.Parqo.Env.machine in
  let pressure =
    Array.init (Parqo.Machine.n_resources machine) (fun r ->
        float_of_int (r mod 3) *. 0.25)
  in
  let base =
    [
      Mt.work;
      Mt.response_time;
      Mt.expected_makespan env ~fault_rate:0.1;
      Mt.contended ~pressure;
    ]
    @ List.concat_map
        (fun agg -> [ Mt.resource_vector machine agg; Mt.descriptor machine agg ])
        [
          Parqo.Machine.Single;
          Parqo.Machine.By_kind;
          Parqo.Machine.By_node;
          Parqo.Machine.Per_resource;
        ]
  in
  List.concat_map (fun m -> [ Mt.with_ordering m; Mt.with_partitioning m ]) base

let coordinates (m : Mt.t) view =
  let row = Array.make m.Mt.arity nan in
  m.Mt.fill view row;
  List.map bits (Array.to_list row)

let key_string (k : Cm.key) =
  Printf.sprintf "%s/%s/%d"
    (Parqo.Ordering.to_string k.Cm.ordering)
    (match k.Cm.partition with
    | None -> "-"
    | Some col -> Printf.sprintf "%d.%s" col.Parqo.Ordering.rel col.column)
    k.Cm.clone

(* property: shared pricing, and the class premise it rests on, on real
   memo plans.  For random queries on the three pricing machines, the
   reference search hands over every memo entry; for every extension
   (S - j, j) and every (access plan of j, method, clone degree):
   - two memo plans that [Cm.outer_shape_equal] puts in one class get
     Int64-equal outer-side base descriptors and compositions, outer
     term and ordering;
   - [Cm.price] of every memo plan, its class drawn as PODP draws it,
     leaves in the view the join the reference's [price_join]
     ([Podp_reference.Ref_cm]) prices on its own: for every metric,
     under both refinements, the coordinates the view gives equal
     [Metric.fill] on a view of the eval [Cm.keep] and [Cm.plan] make, and the
     view's key that eval's, Int64-exact — for the join and for its
     twin; and those evals equal the reference's join and its twin,
     bit for bit. *)
let shared_pricing_matches_price_join () =
  let rng = Parqo.Rng.create 38 in
  let shared_classes = ref 0 and priced = ref 0 in
  (* every join of the extension of [plans] (over [s_j]) by relation
     [j], its access plans [access] *)
  let check_extension name env ~scratch ~reference ~access s_j j
      (plans : Cm.eval array) =
    let config = S.parallel_config env.Parqo.Env.machine in
    let metrics = all_metrics env in
    let inner = Bitset.singleton j in
    let methods =
      Array.of_list (S.join_methods config ~joined:(S.connects env s_j inner))
    and clones = Array.of_list config.S.clone_degrees in
    (* PODP's classes: the first earlier plan of equal shape *)
    let first = Array.make (Array.length plans) 0 in
    let cls = Array.make (Array.length plans) 0 in
    let classes = ref 0 in
    Array.iteri
      (fun i p ->
        let rec find c =
          if c = !classes then begin
            first.(c) <- i;
            incr classes;
            c
          end
          else if Cm.outer_shape_equal p plans.(first.(c)) then c
          else find (c + 1)
        in
        cls.(i) <- find 0;
        if first.(cls.(i)) <> i then incr shared_classes)
      plans;
    let ctx = Cm.join_context env ~outer:s_j ~inner in
    let x =
      Cm.extension scratch env ctx ~inner:access ~methods ~clones
        ~classes:!classes ~limit:infinity
    in
    let view = Cm.view scratch in
    let check_join ai (a : Cm.eval) mi method_ ki clone =
      let msg i =
        Printf.sprintf "%s: plan %d of set %d joined with r%d, %s, clone %d"
          name i (Bitset.to_int s_j) j
          (Parqo.Join_method.to_string method_)
          clone
      in
      let sides =
        Array.map (fun p -> outer_side env ctx ~method_ ~clone p a) plans
      in
      let direct =
        Array.map
          (fun outer ->
            match
              Podp_reference.Ref_cm.price_join ~scratch:reference
                ~limit:infinity env ctx ~method_ ~clone ~outer ~inner:a
            with
            | Some c -> c
            | None -> Alcotest.fail "price_join rejected")
          plans
      in
      Array.iteri
        (fun i p ->
          let q = first.(cls.(i)) in
          if sides.(i) <> sides.(q) then
            Alcotest.failf "%s: outer side differs from its class's" (msg i);
          let ordering (c : Cm.eval) =
            Parqo.Ordering.to_string c.Cm.ordering
          in
          Alcotest.(check string)
            (msg i ^ ": class ordering")
            (ordering direct.(q)) (ordering direct.(i));
          if
            not
              (Cm.price x ~outer:p ~outer_class:cls.(i) ~inner:ai ~method_:mi
                 ~clone:ki)
          then Alcotest.failf "%s: price rejected" (msg i);
          incr priced;
          (* the view's coordinates and key, then the eval built from it *)
          let read () =
            ( List.map (fun m -> coordinates m view) metrics,
              key_string (Cm.key view) )
          in
          let check_built what (coords, key) built expected =
            if candidate_bits built <> candidate_bits expected
            then Alcotest.failf "%s: %s built <> price_join" (msg i) what;
            let ev = Cm.eval_view built in
            List.iter2
              (fun (m : Mt.t) c ->
                Alcotest.(check (list int64))
                  (Printf.sprintf "%s: %s, %s" (msg i) what m.Mt.name)
                  (coordinates m ev) c)
              metrics coords;
            Alcotest.(check string)
              (msg i ^ ": " ^ what ^ " key")
              (key_string (Cm.key_of built))
              key
          in
          let join = read () in
          let kept = Cm.keep view in
          let twin = Podp_reference.Ref_cm.materialized_twin direct.(i) in
          Cm.twin view;
          let twin_read = read () in
          let kept_twin = Cm.keep view in
          (* kept candidates are built once the view has moved on *)
          let built = Cm.plan kept and built_twin = Cm.plan kept_twin in
          check_built "join" join built direct.(i);
          check_built "twin" twin_read built_twin twin;
          Helpers.check_eval_identical (msg i ^ ": built join") direct.(i)
            built;
          Helpers.check_eval_identical (msg i ^ ": built twin") twin
            built_twin;
          List.iter
            (fun (what, kept, (built : Cm.eval)) ->
              Alcotest.(check int64)
                (msg i ^ ": " ^ what ^ " kept work")
                (Int64.bits_of_float built.Cm.work)
                (Int64.bits_of_float (Cm.candidate_work kept)))
            [ ("join", kept, built); ("twin", kept_twin, built_twin) ])
        plans
    in
    Array.iteri
      (fun ai a ->
        Array.iteri
          (fun mi method_ ->
            Array.iteri
              (fun ki clone -> check_join ai a mi method_ ki clone)
              clones)
          methods)
      access
  in
  List.iter
    (fun (name, machine) ->
      for _ = 1 to 4 do
        let catalog, query = Parqo.Query_gen.random rng ~n:3 () in
        let env = Parqo.Env.create ~machine ~catalog ~query () in
        let n = Parqo.Env.n_relations env in
        let config = S.parallel_config machine in
        let metric =
          Mt.with_ordering (Mt.descriptor machine Parqo.Machine.Single)
        in
        let memo = ref [] in
        ignore
          (Podp_reference.optimize ~config ~metric
             ~memo:(fun mask plans -> memo := (mask, plans) :: !memo)
             env);
        let access =
          Array.init n (fun rel ->
              Array.of_list
                (List.map (Cm.evaluate env) (S.access_plans env config rel)))
        in
        let scratch = Cm.scratch env
        and reference = Podp_reference.Ref_cm.scratch env in
        List.iter
          (fun (s_j, plans) ->
            for j = 0 to n - 1 do
              if not (Bitset.mem j s_j) then
                check_extension name env ~scratch ~reference
                  ~access:access.(j) s_j j plans
            done)
          !memo
      done)
    (pricing_machines ());
  Alcotest.(check bool)
    (Printf.sprintf "plans sharing a class (%d), among %d priced joins"
       !shared_classes !priced)
    true (!shared_classes > 0)

(* Pricing a loaded extension's joins, filling a metric from the view
   (for the join and for its twin) and testing the cover allocate no
   minor words once the extension's entries are filled, whether or not
   the outer plan changes: a join the cover rejects costs nothing on the
   heap.  Every metric but
   [expected_makespan], which walks the operator tree.  The sampling's
   own words are measured the same way and subtracted. *)
let pricing_allocates_nothing () =
  let env = Helpers.chain_env ~n:3 () in
  let machine = env.Parqo.Env.machine in
  let config = S.parallel_config machine in
  let access rel =
    Array.of_list (List.map (Cm.evaluate env) (S.access_plans env config rel))
  in
  let outer = access 0 and inner = access 1 in
  let ctx =
    Cm.join_context env ~outer:(Bitset.singleton 0) ~inner:(Bitset.singleton 1)
  in
  let methods = Array.of_list (S.join_methods config ~joined:true)
  and clones = Array.of_list config.S.clone_degrees in
  let scratch = Cm.scratch env in
  let view = Cm.view scratch in
  let x =
    Cm.extension scratch env ctx ~inner ~methods ~clones
      ~classes:(Array.length outer) ~limit:infinity
  in
  let metrics =
    List.filter
      (fun (m : Mt.t) -> not (String.starts_with ~prefix:"expected" m.Mt.name))
      (all_metrics env)
  in
  List.iter
    (fun (m : Mt.t) ->
      let cover = Parqo.Cover.create ~n_dims:m.Mt.arity ?refines:m.Mt.refines () in
      (* a few entries, so the scans run *)
      Array.iter
        (fun e ->
          Cm.show view e;
          m.Mt.fill view (Parqo.Cover.scratch cover);
          ignore (Parqo.Cover.add cover (Cm.key view) e))
        outer;
      let test () =
        m.Mt.fill view (Parqo.Cover.scratch cover);
        ignore (Parqo.Cover.is_covered cover (Cm.key view))
      in
      let price_plan o p =
        for ai = 0 to Array.length inner - 1 do
          for mi = 0 to Array.length methods - 1 do
            for ki = 0 to Array.length clones - 1 do
              if
                Cm.price x ~outer:p ~outer_class:o ~inner:ai ~method_:mi
                  ~clone:ki
              then begin
                test ();
                Cm.twin view;
                test ()
              end
            done
          done
        done
      in
      (* fill every entry, then price each plan's joins again, measured *)
      Array.iteri price_plan outer;
      let words = ref 0. in
      Array.iteri
        (fun o p ->
          (* selecting the plan is per unit, not per join *)
          ignore (Cm.price x ~outer:p ~outer_class:o ~inner:0 ~method_:0 ~clone:0);
          let w0 = Gc.minor_words () in
          let w1 = Gc.minor_words () in
          price_plan o p;
          let w2 = Gc.minor_words () in
          words := !words +. ((w2 -. w1) -. (w1 -. w0)))
        outer;
      Alcotest.(check (float 0.)) (m.Mt.name ^ ": minor words") 0. !words;
      (* and with the plans changing inside the sample: each plan's
         first join selects it *)
      let w0 = Gc.minor_words () in
      let w1 = Gc.minor_words () in
      Array.iteri price_plan outer;
      let w2 = Gc.minor_words () in
      Alcotest.(check (float 0.))
        (m.Mt.name ^ ": minor words, plans selected while sampled")
        0.
        ((w2 -. w1) -. (w1 -. w0)))
    metrics

(* the beam tie-break exercises Join_tree.key as the total order *)
let podp_identical_cache_on_off_beamed () =
  let env = Helpers.chain_env ~n:5 () in
  let config = S.parallel_config env.Parqo.Env.machine in
  let metric =
    Mt.with_ordering (Mt.descriptor env.Parqo.Env.machine Parqo.Machine.Single)
  in
  let off =
    Podp.optimize ~config ~metric ~max_cover:4 ~plan_cache:false env
  in
  let on = Podp.optimize ~config ~metric ~max_cover:4 ~plan_cache:true env in
  check_result_identical "beam=4" off on

(* plan keys are canonical: equal strings iff equal trees, and identical
   to the legacy to_string rendering *)
let key_is_canonical () =
  let rng = Parqo.Rng.create 34 in
  let env = Helpers.random_env rng ~n:4 in
  let trees = List.init 50 (fun _ -> Helpers.random_tree rng env) in
  List.iter
    (fun a ->
      Alcotest.(check string) "key = to_string" (Parqo.Join_tree.to_string a)
        (Parqo.Join_tree.key a);
      List.iter
        (fun b ->
          Alcotest.(check bool) "key injective" (Parqo.Join_tree.equal a b)
            (String.equal (Parqo.Join_tree.key a) (Parqo.Join_tree.key b)))
        trees)
    trees

let plan_cache_counters () =
  let c = Parqo.Plan_cache.create () in
  Alcotest.(check (option int)) "miss" None (Parqo.Plan_cache.find c "a");
  Parqo.Plan_cache.remember c "a" 1;
  Alcotest.(check (option int)) "hit" (Some 1) (Parqo.Plan_cache.find c "a");
  Alcotest.(check int) "one entry" 1 (Parqo.Plan_cache.length c);
  Alcotest.(check int) "hits" 1 (Parqo.Plan_cache.hits c);
  Alcotest.(check int) "misses" 1 (Parqo.Plan_cache.misses c);
  Parqo.Plan_cache.remember c "a" 2;
  Alcotest.(check (option int)) "overwritten" (Some 2)
    (Parqo.Plan_cache.find c "a");
  Alcotest.(check int) "still one entry" 1 (Parqo.Plan_cache.length c)

(* epoch invalidation: bump empties the table, keeps the counters, and
   makes writes observed under an older epoch vanish *)
let plan_cache_epochs () =
  let c = Parqo.Plan_cache.create () in
  Alcotest.(check int) "initial epoch" 0 (Parqo.Plan_cache.epoch c);
  Parqo.Plan_cache.remember c "a" 1;
  ignore (Parqo.Plan_cache.find c "a");
  let hits = Parqo.Plan_cache.hits c in
  Parqo.Plan_cache.bump c;
  Alcotest.(check int) "epoch advanced" 1 (Parqo.Plan_cache.epoch c);
  Alcotest.(check int) "table emptied" 0 (Parqo.Plan_cache.length c);
  Alcotest.(check int) "counters preserved" hits (Parqo.Plan_cache.hits c);
  Alcotest.(check (option int)) "old entry gone" None (Parqo.Plan_cache.find c "a");
  (* a write computed under the old epoch is silently dropped *)
  Parqo.Plan_cache.remember_at c ~epoch:0 "stale" 7;
  Alcotest.(check (option int)) "stale write dropped" None
    (Parqo.Plan_cache.find c "stale");
  (* one computed under the current epoch lands *)
  Parqo.Plan_cache.remember_at c ~epoch:1 "fresh" 8;
  Alcotest.(check (option int)) "current write lands" (Some 8)
    (Parqo.Plan_cache.find c "fresh")

(* adjacency bitsets agree with a direct scan of the predicate list *)
let connected_between_oracle () =
  let rng = Parqo.Rng.create 35 in
  for _ = 1 to 20 do
    let env = Helpers.random_env rng ~n:5 in
    let q = Parqo.Env.query env in
    let n = Q.n_relations q in
    let oracle s1 s2 =
      List.exists
        (fun (p : Q.join_pred) ->
          (Bitset.mem p.Q.left.Q.rel s1 && Bitset.mem p.Q.right.Q.rel s2)
          || (Bitset.mem p.Q.right.Q.rel s1 && Bitset.mem p.Q.left.Q.rel s2))
        q.Q.joins
    in
    for s1 = 0 to (1 lsl n) - 1 do
      for s2 = 0 to (1 lsl n) - 1 do
        let s1 = Bitset.of_int_unsafe s1 and s2 = Bitset.of_int_unsafe s2 in
        Alcotest.(check bool) "connected_between = oracle" (oracle s1 s2)
          (Q.connected_between q s1 s2);
        Alcotest.(check bool) "joins_between nonempty iff connected"
          (oracle s1 s2)
          (Q.joins_between q s1 s2 <> [])
      done
    done
  done

let suite =
  ( "plan_cache",
    [
      t "priced join by join = evaluate, bit for bit" bottom_up_matches_evaluate;
      t "join_context rejects overlapping sets" join_context_rejects_overlap;
      t "materialized twin = evaluate, bit for bit" twin_matches_evaluate;
      t "materialized twin of a non-pipelined plan" twin_rejects_non_pipelined;
      t "build returns the last priced join" build_returns_last_priced;
      t "podp identical with cache on/off at forced widths" podp_identical_cache_on_off;
      t "work bound is sound" bound_is_sound;
      t "shared pricing = price_join on real memo plans, classes included"
        shared_pricing_matches_price_join;
      t "pricing and filling from the view allocate nothing"
        pricing_allocates_nothing;
      t "podp identical under beam trim" podp_identical_cache_on_off_beamed;
      t "Join_tree.key is canonical" key_is_canonical;
      t "Plan_cache counters" plan_cache_counters;
      t "Plan_cache epochs" plan_cache_epochs;
      t "Query.connected_between matches predicate scan" connected_between_oracle;
    ] )
