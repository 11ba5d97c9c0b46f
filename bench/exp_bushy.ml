(* E7 — left-deep vs bushy (§6.4): bushy trees offer more independent
   parallelism at a much larger search cost.  Both shapes run PODP's
   level loop; the bushy search's cost per plan is its wall time and
   the minor words its domain allocated, per candidate generated. *)

module T = Parqo.Tableau
module Cm = Parqo.Costmodel
module Stats = Parqo.Search_stats

let run () =
  Common.header "E7 — left-deep vs bushy trees (§6.4)"
    [
      "partial-order DP over both spaces (both beam-capped at 24 per set);";
      "'considered' counts units: one per extension and outer memo plan";
      "(a relation or a split, joined to each plan of the other side).";
    ];
  let tbl =
    T.create ~title:"B7. response time and search cost by tree shape"
      ~columns:
        [
          ("query", T.Right);
          ("n", T.Right);
          ("RT left-deep", T.Right);
          ("RT bushy", T.Right);
          ("bushy gain", T.Right);
          ("considered LD", T.Right);
          ("considered bushy", T.Right);
          ("generated bushy", T.Right);
          ("bushy s", T.Right);
          ("us/plan", T.Right);
          ("words/plan", T.Right);
          ("space LD (n!)", T.Right);
          ("space bushy", T.Right);
        ]
  in
  List.iter
    (fun (shape, n) ->
      let env = Common.shape_env shape n in
      let config =
        { (Parqo.Space.parallel_config env.Parqo.Env.machine) with
          Parqo.Space.clone_degrees = [ 1; 2; 4 ] }
      in
      let metric = Parqo.Optimizer.default_metric env in
      let ld = Parqo.Podp.optimize ~config ~metric ~max_cover:24 env in
      Gc.minor ();
      let bushy, secs =
        Common.timed (fun () ->
            Parqo.Podp.optimize ~shape:Parqo.Space.Bushy ~config ~metric
              ~max_cover:24 env)
      in
      let stats = bushy.Parqo.Podp.stats in
      let per_plan x = x /. float_of_int (max 1 stats.Stats.generated) in
      match (ld.Parqo.Podp.best, bushy.Parqo.Podp.best) with
      | Some l, Some b ->
        T.add_row tbl
          [
            Parqo.Query_gen.shape_to_string shape;
            Common.celli n;
            Common.cell l.Cm.response_time;
            Common.cell b.Cm.response_time;
            Printf.sprintf "%.1f%%"
              (100. *. (1. -. (b.Cm.response_time /. l.Cm.response_time)));
            Common.celli ld.Parqo.Podp.stats.Stats.considered;
            Common.celli stats.Stats.considered;
            Common.celli stats.Stats.generated;
            Common.cell ~decimals:2 secs;
            Common.cell ~decimals:2 (per_plan (secs *. 1e6));
            Common.cell ~decimals:1 (per_plan stats.Stats.minor_words);
            Common.cell (Parqo.Combin.leftdeep_space n);
            Common.cell (Parqo.Combin.bushy_space n);
          ]
      | _ -> ())
    [
      (Parqo.Query_gen.Chain, 4);
      (Parqo.Query_gen.Chain, 5);
      (Parqo.Query_gen.Star, 4);
      (Parqo.Query_gen.Star, 5);
      (Parqo.Query_gen.Cycle, 5);
      (Parqo.Query_gen.Clique, 4);
      (Parqo.Query_gen.Chain, 6);
      (Parqo.Query_gen.Star, 6);
    ];
  T.print tbl;
  Printf.printf
    "  At n = 10 the bushy space is %.1e vs %.1e left-deep — the \"three\n\
    \  orders of magnitude\" the paper quotes (ratio %.0fx).\n\n"
    (Parqo.Combin.bushy_space 10)
    (Parqo.Combin.leftdeep_space 10)
    (Parqo.Combin.bushy_space 10 /. Parqo.Combin.leftdeep_space 10)
