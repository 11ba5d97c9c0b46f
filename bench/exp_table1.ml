(* E1 — Table 1 of the paper: time and space complexity of the six search
   algorithms, analytic columns next to measured counters.  Measured on
   clique queries (every subset connected), minimal config (one plan per
   join order) so the counters are in the paper's units. *)

module T = Parqo.Tableau
module S = Parqo.Space
module Stats = Parqo.Search_stats

let leftdeep () =
  let tbl =
    T.create ~title:"T1a. Table 1, left-deep trees (clique queries, measured vs analytic)"
      ~columns:
        [
          ("n", T.Right);
          ("space n! (analytic)", T.Right);
          ("brute plans (meas)", T.Right);
          ("DP time (analytic)", T.Right);
          ("DP considered (meas)", T.Right);
          ("DP space (analytic)", T.Right);
          ("DP stored (meas)", T.Right);
          ("poDP considered (meas)", T.Right);
          ("poDP cover max", T.Right);
        ]
  in
  List.iter
    (fun n ->
      let env = Common.shape_env Parqo.Query_gen.Clique n in
      let brute_plans =
        if n <= 7 then
          Common.cell
            (float_of_int
               (Parqo.Brute.leftdeep ~config:S.minimal_config env).Parqo.Brute.n_plans)
        else "-"
      in
      let dp = Parqo.Optimizer.minimize_work ~config:S.minimal_config env in
      let metric =
        Parqo.Metric.descriptor env.Parqo.Env.machine Parqo.Machine.Single
      in
      let podp = Parqo.Podp.optimize ~config:S.minimal_config ~metric env in
      T.add_row tbl
        [
          Common.celli n;
          Common.cell (Parqo.Combin.leftdeep_space n);
          brute_plans;
          Common.cell (Parqo.Combin.dp_leftdeep_time n);
          Common.celli dp.Parqo.Optimizer.stats.Stats.considered;
          Common.cell (Parqo.Combin.dp_leftdeep_space n);
          Common.celli dp.Parqo.Optimizer.stats.Stats.stored_peak;
          Common.celli podp.Parqo.Podp.stats.Stats.considered;
          Common.celli podp.Parqo.Podp.stats.Stats.cover_max;
        ])
    [ 2; 3; 4; 5; 6; 7; 8; 9 ];
  T.print tbl

let bushy () =
  let tbl =
    T.create ~title:"T1b. Table 1, bushy trees (clique queries, b = 0 for SPJ)"
      ~columns:
        [
          ("n", T.Right);
          ("space (2(n-1))!/(n-1)!", T.Right);
          ("brute plans (meas)", T.Right);
          ("DP time 3^n-2^(n+1)+n+1", T.Right);
          ("DP considered (meas)", T.Right);
          ("poDP considered (meas)", T.Right);
          ("poDP cover max", T.Right);
        ]
  in
  List.iter
    (fun n ->
      let env = Common.shape_env Parqo.Query_gen.Clique n in
      let brute_plans =
        if n <= 5 then
          Common.cell
            (float_of_int
               (Parqo.Brute.bushy ~config:S.minimal_config env).Parqo.Brute.n_plans)
        else "-"
      in
      let dp =
        Parqo.Optimizer.minimize_work ~shape:Parqo.Optimizer.Bushy
          ~config:S.minimal_config env
      in
      let metric =
        Parqo.Metric.descriptor env.Parqo.Env.machine Parqo.Machine.Single
      in
      let podp =
        Parqo.Podp.optimize ~shape:S.Bushy ~config:S.minimal_config ~metric
          ~max_cover:32 env
      in
      T.add_row tbl
        [
          Common.celli n;
          Common.cell (Parqo.Combin.bushy_space n);
          brute_plans;
          Common.cell (Parqo.Combin.dp_bushy_time n ~b:0);
          Common.celli dp.Parqo.Optimizer.stats.Stats.considered;
          Common.celli podp.Parqo.Podp.stats.Stats.considered;
          Common.celli podp.Parqo.Podp.stats.Stats.cover_max;
        ])
    [ 2; 3; 4; 5; 6; 7 ];
  T.print tbl

let run () =
  Common.header "E1 / Table 1 — comparison of search algorithms"
    [
      "Measured plan counters must match the analytic formulas exactly for";
      "DP (considered, stored) and brute force (plans); partial-order DP";
      "adds the cover-set factor the paper bounds by 2^l.";
    ];
  leftdeep ();
  bushy ()
