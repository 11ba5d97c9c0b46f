(* E8 — evaluation of pruning-metric alternatives (§6.3, called for in
   §7): cover sizes, search cost and plan quality per metric, and the
   effect of dimensionality l. *)

module T = Parqo.Tableau
module Mt = Parqo.Metric
module Cm = Parqo.Costmodel
module Stats = Parqo.Search_stats

(* The serving pool's 4-relation queries as the server plans them:
   the parallel space, the default metric (the Single descriptor plus
   interesting orders), unbounded.  The pool's clique catalog indexes
   every join column of every table pair, and a query's joins name few
   of them, so these rows show what pruning on interesting orders only
   saves. *)
let serving_pool () =
  let catalog, queries = Parqo.Workloads.serving_pool ~seed:7 () in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let config = Parqo.Space.parallel_config machine in
  let tbl =
    T.create
      ~title:"C8b. serving pool, 4-relation queries (response-time phase)"
      ~columns:
        [
          ("query", T.Left);
          ("generated", T.Right);
          ("cover max", T.Right);
          ("time (s)", T.Right);
          ("best RT", T.Right);
        ]
  in
  Array.iteri
    (fun i query ->
      if Parqo.Query.n_relations query = 4 then begin
        let env = Parqo.Env.create ~machine ~catalog ~query () in
        let o, secs =
          Common.timed (fun () ->
              Parqo.Optimizer.minimize_response_time ~config env)
        in
        T.add_row tbl
          [
            Printf.sprintf "serve-%02d-4" i;
            Common.celli o.Parqo.Optimizer.stats.Stats.generated;
            Common.celli o.Parqo.Optimizer.stats.Stats.cover_max;
            Common.cell ~decimals:3 secs;
            (match o.Parqo.Optimizer.best with
            | Some b -> Common.cell b.Cm.response_time
            | None -> "-");
          ]
      end)
    queries;
  T.print tbl

let run () =
  Common.header "E8 — pruning metric alternatives (§6.3)"
    [
      "chain query, 4 relations, 4 nodes, parallel annotation space.";
      "'quality' = best RT found / exhaustive optimum (1.0 = optimal).";
    ];
  let env = Common.shape_env Parqo.Query_gen.Chain 4 in
  let machine = env.Parqo.Env.machine in
  (* a space small enough for the exhaustive ground truth (~170k plans)
     while keeping all three methods, index choices and real cloning *)
  let config =
    {
      (Parqo.Space.parallel_config machine) with
      Parqo.Space.clone_degrees = [ 1; 4 ];
      materialize_choices = false;
    }
  in
  (* exhaustive ground truth over the same space *)
  let truth, truth_time =
    Common.timed (fun () ->
        Parqo.Brute.leftdeep ~config
          ~objective:(fun (e : Cm.eval) -> e.Cm.response_time)
          env)
  in
  let optimum =
    match truth.Parqo.Brute.best with
    | Some b -> b.Cm.response_time
    | None -> nan
  in
  let tbl =
    T.create ~title:"C8. partial-order DP per pruning metric"
      ~columns:
        [
          ("metric", T.Left);
          ("l (dims)", T.Right);
          ("cover max", T.Right);
          ("generated", T.Right);
          ("time (s)", T.Right);
          ("best RT", T.Right);
          ("quality", T.Right);
        ]
  in
  let probe = Cm.evaluate env (Parqo.Join_tree.access 0) in
  let metrics =
    [
      ("naive RT (total order)", Mt.response_time);
      ("work (total order)", Mt.work);
      ("resource-vector / single", Mt.resource_vector machine Parqo.Machine.Single);
      ("resource-vector / by-kind", Mt.resource_vector machine Parqo.Machine.By_kind);
      ("descriptor / single", Mt.descriptor machine Parqo.Machine.Single);
      ( "descriptor / single + order",
        Mt.with_ordering (Mt.descriptor machine Parqo.Machine.Single) );
      ("descriptor / by-kind", Mt.descriptor machine Parqo.Machine.By_kind);
    ]
  in
  List.iter
    (fun (name, metric) ->
      let r, secs =
        Common.timed (fun () -> Parqo.Podp.optimize ~config ~metric env)
      in
      match r.Parqo.Podp.best with
      | Some b ->
        T.add_row tbl
          [
            name;
            Common.celli (Mt.n_dims metric probe);
            Common.celli r.Parqo.Podp.stats.Stats.cover_max;
            Common.celli r.Parqo.Podp.stats.Stats.generated;
            Common.cell ~decimals:3 secs;
            Common.cell b.Cm.response_time;
            Common.cell ~decimals:4 (b.Cm.response_time /. optimum);
          ]
      | None -> ())
    metrics;
  T.add_rule tbl;
  T.add_row tbl
    [
      "exhaustive (ground truth)";
      "-";
      "-";
      Common.celli truth.Parqo.Brute.n_plans;
      Common.cell ~decimals:3 truth_time;
      Common.cell optimum;
      "1.0000";
    ];
  T.print tbl;
  serving_pool ()
