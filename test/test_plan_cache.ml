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

(* Price a tree join by join from its children's unnumbered
   evaluations, materialized joins as twins — the path two-phase search
   prices its assignments on. *)
let rec price_bottom_up env scratch (tree : Parqo.Join_tree.t) =
  match tree with
  | Parqo.Join_tree.Access _ -> Cm.evaluate env tree
  | Parqo.Join_tree.Join j -> (
    let outer = price_bottom_up env scratch j.Parqo.Join_tree.outer
    and inner = price_bottom_up env scratch j.Parqo.Join_tree.inner in
    let ctx =
      Cm.join_context env
        ~outer:(Parqo.Join_tree.relations j.Parqo.Join_tree.outer)
        ~inner:(Parqo.Join_tree.relations j.Parqo.Join_tree.inner)
    in
    match
      Cm.price_join ~scratch ~limit:infinity env ctx
        ~method_:j.Parqo.Join_tree.method_ ~clone:j.Parqo.Join_tree.clone
        ~outer ~inner
    with
    | None -> Alcotest.fail "unlimited price_join rejected a plan"
    | Some c ->
      Cm.admit ~outer ~inner
        (if j.Parqo.Join_tree.materialize then Cm.materialized_twin c else c))

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

(* property: on random join trees, every pipelined join priced from its
   children's evaluations ([Cm.price_join], numbered) equals
   [Cm.evaluate] of the same tree, and the materialized twin derived from
   a pipelined evaluation — an evaluated one, or an unnumbered priced
   one — equals [Cm.evaluate] of the materialized tree *)
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
          let pipelined = Cm.evaluate env (join false)
          and materialized = Cm.evaluate env (join true) in
          check_eval_identical "twin of evaluated"
            {
              (Cm.materialized_twin (Cm.without_tree pipelined)) with
              Cm.tree = materialized.Cm.tree;
            }
            materialized;
          let outer = Cm.evaluate env j.Parqo.Join_tree.outer
          and inner = Cm.evaluate env j.Parqo.Join_tree.inner in
          let ctx =
            Cm.join_context env
              ~outer:(Parqo.Join_tree.relations j.Parqo.Join_tree.outer)
              ~inner:(Parqo.Join_tree.relations j.Parqo.Join_tree.inner)
          in
          let priced =
            match
              Cm.price_join ~scratch ~limit:infinity env ctx ~method_ ~clone
                ~outer ~inner
            with
            | Some c -> c
            | None -> Alcotest.fail "unlimited price_join rejected a plan"
          in
          check_eval_identical "priced"
            (Cm.numbered (Cm.admit ~outer ~inner priced))
            pipelined;
          check_eval_identical "twin of priced"
            (Cm.numbered (Cm.admit ~outer ~inner (Cm.materialized_twin priced)))
            materialized)
        (Parqo.Join_tree.joins (Helpers.random_tree rng env))
    done
  done

let twin_rejects_non_pipelined () =
  let env = Helpers.chain_env ~n:2 () in
  let scan r = Parqo.Join_tree.access ~path:Parqo.Access_path.Seq_scan r in
  let twin_of tree () =
    ignore (Cm.materialized_twin (Cm.without_tree (Cm.evaluate env tree)))
  in
  let err = Invalid_argument "Costmodel.materialized_twin: not a pipelined join" in
  Alcotest.check_raises "access" err (twin_of (scan 0));
  Alcotest.check_raises "materialized join" err
    (twin_of
       (Parqo.Join_tree.join ~materialize:true Parqo.Join_method.Hash_join
          ~outer:(scan 0) ~inner:(scan 1)))

(* an eval is built only over the plans its candidate was priced on *)
let admit_rejects_other_plans () =
  let env = Helpers.chain_env ~n:3 () in
  let scan r = Cm.evaluate env (Parqo.Join_tree.access r) in
  let s0 = scan 0 and s1 = scan 1 in
  let ctx =
    Cm.join_context env ~outer:(Bitset.singleton 0) ~inner:(Bitset.singleton 1)
  in
  let c =
    match
      Cm.price_join ~scratch:(Cm.scratch env) ~limit:infinity env ctx
        ~method_:Parqo.Join_method.Hash_join ~clone:1 ~outer:s0 ~inner:s1
    with
    | Some c -> c
    | None -> Alcotest.fail "unlimited price_join rejected a plan"
  in
  let err = Invalid_argument "Costmodel.admit: not a join of these plans" in
  Alcotest.check_raises "swapped sides" err (fun () ->
      ignore (Cm.admit ~outer:s1 ~inner:s0 c));
  Alcotest.check_raises "an equal plan, not the priced one" err (fun () ->
      ignore (Cm.admit ~outer:(scan 0) ~inner:s1 c));
  Alcotest.(check string)
    "the priced plans" "HJ(scan(r0), scan(r1))"
    (Parqo.Join_tree.to_string (Cm.admit ~outer:s0 ~inner:s1 c).Cm.tree)

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
   capped candidates are rejected before pricing, by class where the
   bound's terms are known.  The rejected count is the same at every
   width. *)
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
          match (Parqo.Dp.optimize ~config env).Parqo.Dp.best with
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
            let rejected = on.Podp.stats.Stats.rejected in
            if rejected > 0 then rejected_somewhere := true;
            List.iter
              (fun k ->
                Helpers.with_forced_pool k (fun pool ->
                    let msg = Printf.sprintf "%s, width=%d" space k in
                    let r = optimize ~pool true in
                    check_result_identical msg off r;
                    Alcotest.(check int) (msg ^ ": rejected") rejected
                      r.Podp.stats.Stats.rejected))
              [ 2; 3; 8 ])
          [ (false, None); (true, work_cap) ])
      [
        ("sequential", { S.default_config with S.clone_degrees = [ 1; 2 ] });
        ("parallel", S.parallel_config env.Parqo.Env.machine);
      ]
  done;
  Alcotest.(check bool) "the cap rejected candidates" true !rejected_somewhere

(* property: the work bound is sound.  For every join of evaluated
   children in random trees — on a nominal machine, on one with rescaled
   resource speeds, and on one whose pipeline penalty scales work — the
   bound is at most the priced work (up to 1e-12 relative), [price_join]
   returns no plan only when the priced work exceeds the limit, and it
   does reject when the bound clearly exceeds the limit.  The draws must
   include joins that probe a bare index, whose inner work the bound
   leaves out. *)
let bound_is_sound () =
  let rng = Parqo.Rng.create 37 in
  let nominal = Parqo.Machine.shared_nothing ~nodes:4 () in
  let machines =
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
  in
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
              let ctx =
                Cm.join_context env
                  ~outer:(Parqo.Join_tree.relations j.Parqo.Join_tree.outer)
                  ~inner:(Parqo.Join_tree.relations j.Parqo.Join_tree.inner)
              in
              let price limit =
                Cm.price_join ~scratch ~limit env ctx
                  ~method_:j.Parqo.Join_tree.method_
                  ~clone:j.Parqo.Join_tree.clone ~outer ~inner
              in
              let work =
                match price infinity with
                | Some e ->
                  if Parqo.Opcost.nl_inner_is_free e.Cm.optree then
                    incr free_inner;
                  e.Cm.work
                | None -> Alcotest.fail "unlimited price_join rejected a plan"
              in
              let bound = Cm.last_bound scratch in
              if bound > work *. (1. +. 1e-12) then
                Alcotest.failf "%s: bound %.17g above priced work %.17g" name
                  bound work;
              List.iter
                (fun limit ->
                  match price limit with
                  | None when not (work > limit) ->
                    Alcotest.failf "%s: rejected at limit %.17g, work %.17g"
                      name limit work
                  | None | Some _ -> ())
                [ work; Float.pred work; work *. (1. -. 1e-12); bound ];
              let clearly_over = bound /. (1. +. 1e-8) in
              if bound > 0. && Option.is_some (price clearly_over) then
                Alcotest.failf "%s: bound %.17g over the limit, not rejected"
                  name bound)
            (Parqo.Join_tree.joins (Helpers.random_tree rng env))
        done
      done)
    machines;
  Alcotest.(check bool)
    (Printf.sprintf "bare-index probes among %d joins" !joins)
    true (!free_inner > 0)

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
      t "price_join bottom-up = evaluate, bit for bit" bottom_up_matches_evaluate;
      t "join_context rejects overlapping sets" join_context_rejects_overlap;
      t "materialized twin = evaluate, bit for bit" twin_matches_evaluate;
      t "materialized twin of a non-pipelined plan" twin_rejects_non_pipelined;
      t "admit builds only over the priced plans" admit_rejects_other_plans;
      t "podp identical with cache on/off at forced widths" podp_identical_cache_on_off;
      t "work bound is sound" bound_is_sound;
      t "podp identical under beam trim" podp_identical_cache_on_off_beamed;
      t "Join_tree.key is canonical" key_is_canonical;
      t "Plan_cache counters" plan_cache_counters;
      t "Plan_cache epochs" plan_cache_epochs;
      t "Query.connected_between matches predicate scan" connected_between_oracle;
    ] )
