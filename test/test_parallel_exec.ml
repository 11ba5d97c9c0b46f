(* The parallel data executor must agree with the sequential one on every
   legal annotated plan: this is the semantic check on the expansion's
   exchange placement. *)

module PE = Parqo.Parallel_exec
module Ex = Parqo.Executor
module B = Parqo.Batch
module J = Parqo.Join_tree
module M = Parqo.Join_method
module Op = Parqo.Op

let t name f = Alcotest.test_case name `Quick f

let setup ?(n = 3) ?(rows = 80) ?(seed = 7) () =
  let db, query = Parqo.Workloads.chain_db ~n ~rows ~seed () in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let env = Parqo.Env.create ~machine ~catalog:db.Parqo.Datagen.catalog ~query () in
  (db, query, env)

let expand env tree =
  Parqo.Expand.expand env.Parqo.Env.estimator tree

let cloned_hash_join_agrees () =
  let db, query, env = setup () in
  let tree =
    J.join ~clone:4 M.Hash_join
      ~outer:(J.join ~clone:2 M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1))
      ~inner:(J.access 2)
  in
  let parallel = PE.run_query db query (expand env tree) in
  let sequential = Ex.run_query db query tree in
  Alcotest.(check bool) "same bag" true (B.equal_bags parallel sequential);
  Alcotest.(check bool) "non-trivial result" true (B.n_rows parallel > 0)

let cloned_sort_merge_agrees () =
  let db, query, env = setup () in
  let tree =
    J.join ~clone:3 M.Sort_merge ~outer:(J.access 0) ~inner:(J.access ~clone:2 1)
  in
  let parallel = PE.run_query db query (expand env tree) in
  let sequential = Ex.run_query db query tree in
  Alcotest.(check bool) "same bag" true (B.equal_bags parallel sequential)

let broadcast_nl_agrees () =
  let db, query, env = setup () in
  let tree =
    J.join ~clone:4 M.Nested_loops ~outer:(J.access ~clone:4 0) ~inner:(J.access 1)
  in
  let root = expand env tree in
  (* sanity: the expansion really broadcasts the inner *)
  let has_broadcast =
    Op.fold
      (fun acc n ->
        acc
        || match n.Op.kind with
           | Op.Exchange { mode = Op.Broadcast } -> true
           | _ -> false)
      false root
  in
  Alcotest.(check bool) "broadcast present" true has_broadcast;
  Alcotest.(check bool) "same bag" true
    (B.equal_bags (PE.run_query db query root) (Ex.run_query db query tree))

let repartition_routes_by_key () =
  (* a repartitioned stream puts equal keys in the same partition: the
     per-instance joins lose nothing (already covered by equality above)
     and the skew diagnostic reports sane ratios *)
  let db, query, env = setup ~rows:200 () in
  let tree =
    J.join ~clone:4 M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1)
  in
  let skew = PE.partition_skew db query (expand env tree) in
  Alcotest.(check bool) "skew measured for cloned ops" true (skew <> []);
  List.iter
    (fun (label, k, ratio) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%d ratio %.2f sane" label k ratio)
        true
        (ratio >= 1.0 && ratio <= float_of_int k))
    skew

let random_plans_agree () =
  let db, query, env = setup ~n:4 ~rows:60 ~seed:13 () in
  let rng = Parqo.Rng.create 31 in
  for _ = 1 to 20 do
    let tree = Helpers.random_tree rng env in
    let parallel = PE.run_query db query (expand env tree) in
    let sequential = Ex.run_query db query tree in
    Alcotest.(check bool)
      (Printf.sprintf "agree on %s" (J.to_string tree))
      true
      (B.equal_bags parallel sequential)
  done

let missing_exchange_detected () =
  (* hand-build an ill-partitioned tree: a degree-4 join over degree-2
     inputs without exchanges must be rejected, not silently wrong *)
  let db, query, env = setup () in
  let good = expand env (J.join ~clone:4 M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1)) in
  (* strip the exchanges *)
  let rec strip (n : Op.node) =
    match n.Op.kind with
    | Op.Exchange _ -> strip (List.hd n.Op.children)
    | _ -> { n with Op.children = List.map strip n.Op.children }
  in
  let bad = strip good in
  Alcotest.(check bool) "stripped tree rejected" true
    (try
       ignore (PE.run db query bad);
       false
     with Parqo.Parqo_error.Error e ->
       e.Parqo.Parqo_error.subsystem = "parallel-exec")

(* a TPC-H plan mixing methods and clone degrees: the partitioned
   execution returns the materializing executor's rows *)
let tpch_plan_agrees () =
  let { Parqo.Workloads.db; q3; _ } = Parqo.Workloads.tpch ~seed:5 () in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let env = Parqo.Env.create ~machine ~catalog:db.Parqo.Datagen.catalog ~query:q3 () in
  let tree =
    J.join ~clone:2 M.Hash_join
      ~outer:(J.join M.Sort_merge ~outer:(J.access 0) ~inner:(J.access 1))
      ~inner:(J.access 2)
  in
  let a = Ex.run_query db q3 tree in
  let b = PE.run_query db q3 (expand env tree) in
  Alcotest.(check bool) "partitioned = materializing" true (B.equal_bags a b);
  Alcotest.(check bool) "non-empty" true (B.n_rows a > 0)

let suite =
  ( "parallel-exec",
    [
      t "cloned hash join" cloned_hash_join_agrees;
      t "cloned sort-merge" cloned_sort_merge_agrees;
      t "broadcast NL" broadcast_nl_agrees;
      t "repartition skew" repartition_routes_by_key;
      t "random plans agree" random_plans_agree;
      t "missing exchange detected" missing_exchange_detected;
      t "TPC-H plan agrees" tpch_plan_agrees;
    ] )
