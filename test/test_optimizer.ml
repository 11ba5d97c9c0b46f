module Opt = Parqo.Optimizer
module Cm = Parqo.Costmodel
module G = Parqo.Query_gen

let t name f = Alcotest.test_case name `Quick f

let env () = Helpers.chain_env ()

let minimize_work_shapes () =
  let env = env () in
  let ld = Opt.minimize_work env in
  let bushy = Opt.minimize_work ~shape:Opt.Bushy env in
  match (ld.Opt.best, bushy.Opt.best) with
  | Some l, Some b ->
    Alcotest.(check bool) "left-deep result is left-deep" true
      (Parqo.Join_tree.is_left_deep l.Cm.tree);
    Alcotest.(check bool) "bushy at least as good" true
      (b.Cm.work <= l.Cm.work +. 1e-6)
  | _ -> Alcotest.fail "missing plan"

let rt_beats_work_plan () =
  let env = env () in
  let config = Parqo.Space.parallel_config env.Parqo.Env.machine in
  let o = Opt.minimize_response_time ~config env in
  match (o.Opt.best, o.Opt.work_optimal) with
  | Some best, Some wopt ->
    (* the whole point of the paper: buying response time with work *)
    Alcotest.(check bool) "rt-optimal at most work-optimal's rt" true
      (best.Cm.response_time <= wopt.Cm.response_time +. 1e-6);
    Alcotest.(check bool) "on a parallel machine it strictly wins" true
      (best.Cm.response_time < wopt.Cm.response_time);
    Alcotest.(check bool) "and pays some extra work" true
      (best.Cm.work >= wopt.Cm.work)
  | _ -> Alcotest.fail "missing plan"

let work_phase_always_runs () =
  let env = env () in
  let o = Opt.minimize_response_time env in
  Alcotest.(check bool) "work stats present" true (o.Opt.work_stats <> None);
  Alcotest.(check bool) "work optimal present" true (o.Opt.work_optimal <> None)

(* the left-deep work phase runs on the level loop, so the budget and the
   pool reach it: a budget of one expansion stops it too — the optimizer
   still returns a plan, from the greedy fallback — and on a forced
   2-wide pool its stats show the pool's regions *)
let budget_and_pool_reach_work_phase () =
  let env = env () in
  let work_stats (o : Opt.outcome) =
    match o.Opt.work_stats with
    | Some s -> s
    | None -> Alcotest.fail "no work stats"
  in
  let free = Opt.minimize_response_time env in
  let starved =
    Opt.minimize_response_time ~budget:(Parqo.Budget.expansions 1) env
  in
  Alcotest.(check bool) "gave up" true starved.Opt.gave_up;
  Alcotest.(check bool) "still a plan" true (starved.Opt.best <> None);
  Alcotest.(check bool) "the work phase stopped early" true
    ((work_stats starved).Parqo.Search_stats.generated
    < (work_stats free).Parqo.Search_stats.generated);
  Helpers.with_forced_pool 2 (fun pool ->
      let o = Opt.minimize_response_time ~pool env in
      let p = (work_stats o).Parqo.Search_stats.pool in
      Alcotest.(check bool) "the work phase ran on the pool" true
        (p.Parqo.Domain_pool.parallel_runs > 0);
      Alcotest.(check int) "and spawned nothing" 0 p.Parqo.Domain_pool.spawned)

let sequential_machine_degenerates () =
  (* on one cpu/one disk there is no parallelism to buy: the rt-optimal
     plan does not clone *)
  let catalog, query = G.generate (G.default_spec G.Chain 3) in
  let machine = Parqo.Machine.sequential () in
  let env = Parqo.Env.create ~machine ~catalog ~query () in
  let config = Parqo.Space.parallel_config machine in
  let o = Opt.minimize_response_time ~config env in
  match o.Opt.best with
  | Some b ->
    List.iter
      (fun (j : Parqo.Join_tree.join) ->
        Alcotest.(check int) "no cloning" 1 j.Parqo.Join_tree.clone)
      (Parqo.Join_tree.joins b.Cm.tree)
  | None -> Alcotest.fail "no plan"

let fallback_to_work_optimal () =
  (* with a tight bound the answer must still exist (the work optimum is
     always admissible) *)
  let env = env () in
  let o =
    Opt.minimize_response_time
      ~bound:(Parqo.Bounds.Throughput_degradation 1.0) env
  in
  Alcotest.(check bool) "always a plan" true (o.Opt.best <> None)

(* the System R interesting-orders remedy: work-with-orders never loses
   to Figure 1 on work, and matches brute force on instances where plain
   DP is tripped up by a saved sort *)
let orders_fix_work_optimality () =
  let rng = Parqo.Rng.create 77 in
  for _ = 1 to 6 do
    let env = Helpers.random_env rng ~n:3 in
    let fig1 = Opt.minimize_work env in
    let fixed = Opt.minimize_work_with_orders env in
    let brute =
      Parqo.Brute.leftdeep ~objective:(fun (e : Cm.eval) -> e.Cm.work) env
    in
    match (fig1.Opt.best, fixed.Opt.best, brute.Parqo.Brute.best) with
    | Some f1, Some fx, Some b ->
      Alcotest.(check bool) "with-orders <= Figure 1" true
        (fx.Cm.work <= f1.Cm.work +. 1e-6);
      Helpers.check_float ~eps:1e-6 "with-orders = brute optimum" b.Cm.work
        fx.Cm.work
    | _ -> Alcotest.fail "missing plan"
  done

let suite =
  ( "optimizer",
    [
      t "interesting-orders work fix" orders_fix_work_optimality;
      t "minimize work shapes" minimize_work_shapes;
      t "rt beats work plan" rt_beats_work_plan;
      t "work phase always runs" work_phase_always_runs;
      t "budget and pool reach the left-deep work phase"
        budget_and_pool_reach_work_phase;
      t "sequential machine degenerates" sequential_machine_degenerates;
      t "fallback to work optimal" fallback_to_work_optimal;
    ] )
