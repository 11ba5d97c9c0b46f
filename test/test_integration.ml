(* End-to-end: SQL text -> parse -> optimize -> execute -> simulate, over
   the canned workloads. *)

module Opt = Parqo.Optimizer
module Cm = Parqo.Costmodel
module Ex = Parqo.Executor
module B = Parqo.Batch

let t name f = Alcotest.test_case name `Quick f

let optimize_and_execute db query =
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let env =
    Parqo.Env.create ~machine ~catalog:db.Parqo.Datagen.catalog ~query ()
  in
  let config = Parqo.Space.parallel_config machine in
  let o = Opt.minimize_response_time ~config env in
  match o.Opt.best with
  | None -> Alcotest.fail "no plan"
  | Some best ->
    let result = Ex.run_query db query best.Cm.tree in
    let reference = Ex.reference db query in
    Alcotest.(check bool) "optimized plan gives the right answer" true
      (B.equal_bags result reference);
    (env, best)

let portfolio_end_to_end () =
  let db, query = Parqo.Workloads.portfolio ~seed:11 () in
  let env, best = optimize_and_execute db query in
  (* the plan simulates without error and in plausible agreement with the
     cost model *)
  let sim = Parqo.Simulator.simulate_plan env best.Cm.tree in
  Alcotest.(check bool) "simulated response time positive" true
    (sim.Parqo.Simulator.makespan > 0.);
  Alcotest.(check bool) "sim within 4x of prediction" true
    (sim.Parqo.Simulator.makespan < 4. *. best.Cm.response_time
    && best.Cm.response_time < 4. *. sim.Parqo.Simulator.makespan)

let university_end_to_end () =
  let db, query = Parqo.Workloads.university ~seed:3 () in
  ignore (optimize_and_execute db query)

let sql_to_result () =
  let db, _ = Parqo.Workloads.portfolio ~seed:11 () in
  let catalog = db.Parqo.Datagen.catalog in
  let query =
    Parqo.Sql.parse_exn ~catalog
      "SELECT t.price, s.stock_id FROM trade t, stock s WHERE t.stock_id = \
       s.stock_id AND t.qty <= 3"
  in
  let machine = Parqo.Machine.shared_nothing ~nodes:2 () in
  let env = Parqo.Env.create ~machine ~catalog ~query () in
  let o = Opt.minimize_work env in
  match o.Opt.best with
  | None -> Alcotest.fail "no plan"
  | Some best ->
    let out = Ex.run_query db query best.Cm.tree in
    Alcotest.(check int) "projected width" 2 (B.width out);
    Alcotest.(check bool) "selection applied" true
      (B.n_rows out < Array.length (Parqo.Datagen.rows_of db "trade"));
    (* cross-check against the reference executor *)
    Alcotest.(check bool) "matches reference" true
      (B.equal_bags out (Ex.reference db query))

let estimator_grounded_in_data () =
  (* estimated join cardinality within a sane factor of the true result
     for FK joins on generated data *)
  let db, query = Parqo.Workloads.chain_db ~n:3 ~rows:400 ~seed:23 () in
  let est = Parqo.Estimator.create db.Parqo.Datagen.catalog query in
  let predicted = Parqo.Estimator.card est (Parqo.Bitset.full 3) in
  let reference = Ex.reference db query in
  let actual = float_of_int (B.n_rows reference) in
  Alcotest.(check bool)
    (Printf.sprintf "predicted %.0f vs actual %.0f within 5x" predicted actual)
    true
    (predicted < 5. *. actual && actual < 5. *. predicted)

let every_algorithm_same_answer () =
  (* all six search algorithms return plans computing the same result *)
  let db, query = Parqo.Workloads.chain_db ~n:3 ~rows:60 ~seed:5 () in
  let machine = Parqo.Machine.shared_nothing ~nodes:2 () in
  let env =
    Parqo.Env.create ~machine ~catalog:db.Parqo.Datagen.catalog ~query ()
  in
  let reference = Ex.reference db query in
  let metric = Opt.default_metric env in
  let plans =
    [
      (Opt.minimize_work env).Opt.best;
      (Parqo.Podp.optimize ~metric env).Parqo.Podp.best;
      (Opt.minimize_work ~shape:Opt.Bushy env).Opt.best;
      (Parqo.Podp.optimize ~shape:Parqo.Space.Bushy ~metric ~max_cover:16 env)
        .Parqo.Podp.best;
      (Parqo.Brute.leftdeep env).Parqo.Brute.best;
      (Parqo.Brute.bushy ~config:Parqo.Space.minimal_config env).Parqo.Brute.best;
    ]
  in
  List.iteri
    (fun i plan ->
      match plan with
      | None -> Alcotest.failf "algorithm %d found no plan" i
      | Some (e : Cm.eval) ->
        Alcotest.(check bool)
          (Printf.sprintf "algorithm %d equivalent" i)
          true
          (B.equal_bags reference (Ex.run_query db query e.Cm.tree)))
    plans

let suite =
  ( "integration",
    [
      t "portfolio end-to-end" portfolio_end_to_end;
      t "university end-to-end" university_end_to_end;
      t "sql to result" sql_to_result;
      t "estimator grounded" estimator_grounded_in_data;
      t "every algorithm same answer" every_algorithm_same_answer;
    ] )
