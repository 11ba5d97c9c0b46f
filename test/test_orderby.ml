(* ORDER BY end to end: parsing, final-sort costing, optimizer preference
   for plans whose interesting order covers the request, and executor
   output ordering. *)

module Q = Parqo.Query
module Cm = Parqo.Costmodel
module J = Parqo.Join_tree
module M = Parqo.Join_method
module O = Parqo.Ordering
module G = Parqo.Query_gen

let t name f = Alcotest.test_case name `Quick f

let parse_order_by () =
  let catalog, _ = G.generate (G.default_spec G.Chain 2) in
  let q =
    Parqo.Sql.parse_exn ~catalog
      "SELECT * FROM t0, t1 WHERE t0.j0_1 = t1.j0_1 ORDER BY t0.j0_1, t1.pk"
  in
  Alcotest.(check int) "two order columns" 2 (List.length q.Q.order_by);
  let c = List.hd q.Q.order_by in
  Alcotest.(check string) "first column" "j0_1" c.Q.column;
  (* rendering round-trips *)
  let q2 = Parqo.Sql.parse_exn ~catalog (Q.to_sql q) in
  Alcotest.(check string) "sql fixpoint" (Q.to_sql q) (Q.to_sql q2)

let with_order_env () =
  let catalog, base = G.generate (G.default_spec G.Chain 2) in
  let query =
    Q.create
      ~relations:(Array.to_list base.Q.relations)
      ~joins:base.Q.joins
      ~order_by:[ { Q.rel = 0; column = "j0_1" } ]
      ()
  in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  (Parqo.Env.create ~machine ~catalog ~query (), query)

let final_sort_costed () =
  let env, _ = with_order_env () in
  let required = Cm.required_order env in
  Alcotest.(check bool) "required order non-empty" true (required <> O.none);
  (* a hash join does not deliver the order: the adjusted eval is dearer *)
  let tree = J.join M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1) in
  let plain = Cm.evaluate env tree in
  let adjusted = Cm.evaluate ~required_order:required env tree in
  Alcotest.(check bool) "final sort costs time" true
    (adjusted.Cm.response_time > plain.Cm.response_time);
  Alcotest.(check bool) "final sort costs work" true
    (adjusted.Cm.work > plain.Cm.work);
  (* a sort-merge join delivers it: no adjustment *)
  let sm = J.join M.Sort_merge ~outer:(J.access 0) ~inner:(J.access 1) in
  let sm_plain = Cm.evaluate env sm in
  let sm_adjusted = Cm.evaluate ~required_order:required env sm in
  Helpers.check_float "order satisfied, no extra cost" sm_plain.Cm.response_time
    sm_adjusted.Cm.response_time

let cloned_plan_merges_before_sort () =
  let env, _ = with_order_env () in
  let required = Cm.required_order env in
  let tree = J.join ~clone:4 M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1) in
  let adjusted = Cm.evaluate ~required_order:required env tree in
  (* root of the adjusted operator tree is the final sort over a merge *)
  match adjusted.Cm.optree.Parqo.Op.kind with
  | Parqo.Op.Sort _ -> (
    let child = List.hd adjusted.Cm.optree.Parqo.Op.children in
    match child.Parqo.Op.kind with
    | Parqo.Op.Exchange { mode = Parqo.Op.Merge_streams } -> ()
    | k -> Alcotest.failf "expected merge under sort, got %s" (Parqo.Op.kind_name k))
  | k -> Alcotest.failf "expected final sort, got %s" (Parqo.Op.kind_name k)

let optimizer_respects_order () =
  let env, _ = with_order_env () in
  let o = Parqo.Optimizer.minimize_response_time env in
  match o.Parqo.Optimizer.best with
  | None -> Alcotest.fail "no plan"
  | Some best ->
    (* whatever it picked, the reported cost covers the ordering: either
       the plan delivers the order or the optree ends in a sort *)
    let delivers = O.satisfies best.Cm.ordering (Cm.required_order env) in
    let has_final_sort =
      match best.Cm.optree.Parqo.Op.kind with
      | Parqo.Op.Sort _ -> true
      | _ -> false
    in
    Alcotest.(check bool) "order accounted for" true (delivers || has_final_sort)

let executor_orders_rows () =
  let db, base = Parqo.Workloads.chain_db ~n:2 ~rows:50 ~seed:3 () in
  let query =
    Q.create
      ~relations:(Array.to_list base.Q.relations)
      ~joins:base.Q.joins
      ~order_by:[ { Q.rel = 1; column = "payload" } ]
      ~projection:[ { Q.rel = 1; column = "payload" } ]
      ()
  in
  let tree = J.join M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1) in
  let out = Parqo.Executor.run_query db query tree in
  let values =
    List.map (fun row -> Parqo.Value.to_float row.(0)) out.Parqo.Batch.rows
  in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "rows sorted by payload" true (sorted values);
  Alcotest.(check bool) "non-empty" true (values <> [])

(* property: with an ORDER BY, the optimizer's final cover, best plan
   and work-optimal plan take the final sort on their own evals, and
   each equals [Cm.evaluate ~required_order] of its tree — Int64-exact
   on response time, work and both descriptor rows, operator ids
   included — on random queries, some of whose plans need the sort *)
let adjusted_plans_equal_evaluate () =
  let rng = Parqo.Rng.create 71 in
  let sorted = ref 0 and plans = ref 0 in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  for i = 1 to 12 do
    let catalog, q = G.random rng ~n:(2 + (i mod 3)) () in
    match q.Q.joins with
    | [] -> ()
    | p :: _ ->
      let query =
        Q.create
          ~relations:(Array.to_list q.Q.relations)
          ~joins:q.Q.joins ~selections:q.Q.selections
          ~order_by:[ (if i mod 2 = 0 then p.Q.left else p.Q.right) ]
          ()
      in
      let env = Parqo.Env.create ~machine ~catalog ~query () in
      let required = Cm.required_order env in
      let o =
        Parqo.Optimizer.minimize_response_time
          ~config:(Parqo.Space.parallel_config machine)
          ~bound:(Parqo.Bounds.Throughput_degradation 2.) env
      in
      let same what (e : Cm.eval) =
        incr plans;
        (match e.Cm.optree.Parqo.Op.kind with
        | Parqo.Op.Sort _ -> incr sorted
        | _ -> ());
        Helpers.check_eval_identical what e
          (Cm.evaluate ~required_order:required env e.Cm.tree)
      in
      List.iter (same "cover entry") o.Parqo.Optimizer.cover;
      Option.iter (same "best") o.Parqo.Optimizer.best;
      Option.iter (same "work-optimal") o.Parqo.Optimizer.work_optimal
  done;
  Alcotest.(check bool)
    (Printf.sprintf "final sorts among %d plans (%d)" !plans !sorted)
    true
    (!sorted > 0 && !sorted < !plans)

let suite =
  ( "order-by",
    [
      t "parse" parse_order_by;
      t "final sort costed" final_sort_costed;
      t "cloned plan merges before sort" cloned_plan_merges_before_sort;
      t "optimizer respects order" optimizer_respects_order;
      t "executor orders rows" executor_orders_rows;
      t "adjusted plans = evaluate, bit for bit" adjusted_plans_equal_evaluate;
    ] )
