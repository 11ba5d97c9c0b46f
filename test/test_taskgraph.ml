module TG = Parqo.Task_graph
module J = Parqo.Join_tree
module M = Parqo.Join_method
module G = Parqo.Query_gen

let t name f = Alcotest.test_case name `Quick f

let env () =
  let catalog, query = G.generate (G.default_spec G.Chain 3) in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  Parqo.Env.create ~machine ~catalog ~query ()

let lower env tree =
  let optree =
    Parqo.Expand.expand env.Parqo.Env.estimator tree
  in
  TG.of_optree env optree

let pipeline_is_one_stage () =
  let env = env () in
  (* scan -> probe (pipelined) with a build side: two stages *)
  let g = lower env (J.join M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1)) in
  Alcotest.(check int) "probe stage + build stage" 2 (Array.length g.TG.stages);
  (match TG.validate g with Ok () -> () | Error e -> Alcotest.fail e);
  (* root stage holds scan(outer) and probe *)
  let root = g.TG.stages.(g.TG.root_stage) in
  Alcotest.(check int) "two tasks in pipeline" 2 (List.length root.TG.tasks);
  Alcotest.(check int) "root depends on build" 1 (List.length root.TG.deps)

let sort_merge_stages () =
  let env = env () in
  let g = lower env (J.join M.Sort_merge ~outer:(J.access 0) ~inner:(J.access 1)) in
  (* merge stage + two sort stages (each sort pipelines its scan) *)
  Alcotest.(check int) "three stages" 3 (Array.length g.TG.stages);
  let root = g.TG.stages.(g.TG.root_stage) in
  Alcotest.(check int) "root waits for both sorts" 2 (List.length root.TG.deps)

let nl_index_inner_has_no_task () =
  let env = env () in
  let catalog = Parqo.Env.catalog env in
  let idx = List.hd (Parqo.Catalog.indexes_of catalog "t1") in
  let tree =
    J.join M.Nested_loops ~outer:(J.access 0)
      ~inner:(J.access ~path:(Parqo.Access_path.Index_scan idx) 1)
  in
  let g = lower env tree in
  Alcotest.(check int) "one stage" 1 (Array.length g.TG.stages);
  (* nl + outer scan only: the probed index contributes no task *)
  Alcotest.(check int) "two tasks" 2
    (List.length g.TG.stages.(g.TG.root_stage).TG.tasks)

let demands_match_cost_model () =
  let env = env () in
  let tree = J.join M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1) in
  let g = lower env tree in
  let e = Parqo.Costmodel.evaluate env tree in
  (* stretch mode: the task graph's total work equals the plan's work *)
  Helpers.check_float ~eps:1e-6 "work agrees" e.Parqo.Costmodel.work
    (TG.total_work g)

let stage ?(tasks = []) ?(deps = []) stage_id =
  { TG.stage_id; tasks; deps; op_root = None }

let task ?(label = "t") task_id demands = { TG.task_id; label; demands }

let validate_catches_cycles () =
  let bad =
    {
      TG.stages = [| stage 0 ~deps:[ 1 ]; stage 1 ~deps:[ 0 ] |];
      n_resources = 1;
      root_stage = 0;
    }
  in
  match TG.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected cycle error"

let expect_error name g =
  match TG.validate g with
  | Error _ -> ()
  | Ok () -> Alcotest.fail ("expected validation error: " ^ name)

(* the extended structural checks: stage-id mismatch, dangling deps,
   oversized/negative/NaN demand vectors *)
let validate_catches_malformed () =
  expect_error "stage_id mismatch"
    { TG.stages = [| stage 1 |]; n_resources = 1; root_stage = 0 };
  expect_error "dep out of range"
    { TG.stages = [| stage 0 ~deps:[ 3 ] |]; n_resources = 1; root_stage = 0 };
  expect_error "demand vector longer than n_resources"
    {
      TG.stages = [| stage 0 ~tasks:[ task 0 [| 1.; 1. |] ] |];
      n_resources = 1;
      root_stage = 0;
    };
  expect_error "negative demand"
    {
      TG.stages = [| stage 0 ~tasks:[ task 0 [| -1. |] ] |];
      n_resources = 1;
      root_stage = 0;
    };
  expect_error "NaN demand"
    {
      TG.stages = [| stage 0 ~tasks:[ task 0 [| Float.nan |] ] |];
      n_resources = 1;
      root_stage = 0;
    };
  expect_error "infinite demand"
    {
      TG.stages = [| stage 0 ~tasks:[ task 0 [| Float.infinity |] ] |];
      n_resources = 1;
      root_stage = 0;
    };
  (* and a well-formed graph passes *)
  match
    TG.validate
      {
        TG.stages = [| stage 0 ~tasks:[ task 0 [| 1. |] ] |];
        n_resources = 1;
        root_stage = 0;
      }
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("well-formed graph rejected: " ^ e)

(* malformed graphs are rejected at simulator entry with a structured
   error, not an index crash deep inside the event loop *)
let simulator_rejects_malformed () =
  let bad =
    {
      TG.stages = [| stage 0 ~tasks:[ task 0 [| -2.; 1. |] ] |];
      n_resources = 2;
      root_stage = 0;
    }
  in
  let raised =
    try
      ignore (Parqo.Simulator.run bad);
      false
    with Parqo.Parqo_error.Error e ->
      e.Parqo.Parqo_error.subsystem = "simulator"
  in
  Alcotest.(check bool) "Parqo_error from the simulator" true raised

(* an infinite demand is an invalid graph at both entry points, not a
   starved workload or a run that never converges *)
let infinite_demand_rejected () =
  let g =
    {
      TG.stages = [| stage 0 ~tasks:[ task 0 [| 1.; Float.infinity |] ] |];
      n_resources = 2;
      root_stage = 0;
    }
  in
  let rejected name subsystem f =
    match f () with
    | () -> Alcotest.failf "%s accepted an infinite demand" name
    | exception Parqo.Parqo_error.Error e ->
      Alcotest.(check string) (name ^ " subsystem") subsystem
        e.Parqo.Parqo_error.subsystem;
      let msg = e.Parqo.Parqo_error.message in
      let has sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) (name ^ " names the invalid graph: " ^ msg) true
        (has "invalid task graph")
  in
  rejected "Scheduler.run" "scheduler" (fun () ->
      ignore (Parqo.Scheduler.run [| Parqo.Scheduler.job ~job_id:0 g |]));
  rejected "Simulator.run" "simulator" (fun () -> ignore (Parqo.Simulator.run g))

(* lowering records the materialized subtree on every stage, so the
   replanner can size surviving checkpoints *)
let lowering_records_op_roots () =
  let env = env () in
  let g = lower env (J.join M.Sort_merge ~outer:(J.access 0) ~inner:(J.access 1)) in
  Array.iter
    (fun (s : TG.stage) ->
      match s.TG.op_root with
      | Some _ -> ()
      | None ->
        Alcotest.fail
          (Printf.sprintf "stage %d lowered without an op_root" s.TG.stage_id))
    g.TG.stages

let suite =
  ( "task-graph",
    [
      t "pipeline is one stage" pipeline_is_one_stage;
      t "sort-merge stages" sort_merge_stages;
      t "NL index inner has no task" nl_index_inner_has_no_task;
      t "demands match cost model" demands_match_cost_model;
      t "validate catches cycles" validate_catches_cycles;
      t "validate catches malformed" validate_catches_malformed;
      t "simulator rejects malformed" simulator_rejects_malformed;
      t "infinite demand rejected" infinite_demand_rejected;
      t "lowering records op roots" lowering_records_op_roots;
    ] )
