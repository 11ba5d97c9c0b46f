(* E11 — scaling the search (§7): at ten-plus relations exhaustive bushy
   search is out of reach and "non-exhaustive search algorithms may be
   imperative".  Compare exact DP, beam-bounded partial-order DP, greedy
   operator ordering and iterative improvement on growing queries:
   wall-clock effort vs the quality of the response time found. *)

module T = Parqo.Tableau
module Cm = Parqo.Costmodel

let run () =
  Common.header "E11 — exact vs non-exhaustive search at scale (§7)"
    [
      "quality = RT found / best RT found by any algorithm on the instance;";
      "poDP beam-capped at 16 plans per subset; II = 8 restarts.";
    ];
  let tbl =
    T.create ~title:"X11. search algorithms at growing n"
      ~columns:
        [
          ("query", T.Right);
          ("n", T.Right);
          ("algorithm", T.Left);
          ("RT", T.Right);
          ("quality", T.Right);
          ("plans costed", T.Right);
          ("time (s)", T.Right);
        ]
  in
  List.iter
    (fun (shape, n) ->
      let env = Common.shape_env shape n in
      let config =
        { (Parqo.Space.parallel_config env.Parqo.Env.machine) with
          Parqo.Space.clone_degrees = [ 1; 4 ]; materialize_choices = false }
      in
      let metric = Parqo.Optimizer.default_metric env in
      let rng = Parqo.Rng.create 99 in
      let entries =
        [
          ( "DP work (Figure 1)",
            fun () ->
              let r = Parqo.Dp.optimize ~config env in
              (r.Parqo.Dp.best, r.Parqo.Dp.stats.Parqo.Search_stats.generated) );
          ( "poDP left-deep (beam 16)",
            fun () ->
              let r = Parqo.Podp.optimize ~config ~metric ~max_cover:16 env in
              (r.Parqo.Podp.best, r.Parqo.Podp.stats.Parqo.Search_stats.generated) );
          ( "poDP bushy (beam 8)",
            fun () ->
              (* O(3^n) splits x cover products: feasible to n = 6 here;
                 beyond that the paper's point stands — go non-exhaustive *)
              if n > 6 then (None, 0)
              else begin
                let r =
                  Parqo.Podp.optimize ~shape:Parqo.Space.Bushy ~config ~metric
                    ~max_cover:8 env
                in
                (r.Parqo.Podp.best, r.Parqo.Podp.stats.Parqo.Search_stats.generated)
              end );
          ( "greedy",
            fun () ->
              let r = Parqo.Greedy.greedy ~config env in
              (r.Parqo.Greedy.best, r.Parqo.Greedy.evaluated) );
          ( "iterative improvement",
            fun () ->
              let r = Parqo.Greedy.iterative_improvement ~config ~rng env in
              (r.Parqo.Greedy.best, r.Parqo.Greedy.evaluated) );
        ]
      in
      let results =
        List.map
          (fun (name, f) ->
            let (best, costed), secs = Common.timed f in
            (name, best, costed, secs))
          entries
      in
      let best_rt =
        List.fold_left
          (fun acc (_, best, _, _) ->
            match best with
            | Some (e : Cm.eval) -> Float.min acc e.Cm.response_time
            | None -> acc)
          infinity results
      in
      List.iter
        (fun (name, best, costed, secs) ->
          match best with
          | Some (e : Cm.eval) ->
            T.add_row tbl
              [
                Parqo.Query_gen.shape_to_string shape;
                Common.celli n;
                name;
                Common.cell e.Cm.response_time;
                Common.cell ~decimals:3 (e.Cm.response_time /. best_rt);
                Common.celli costed;
                Common.cell ~decimals:3 secs;
              ]
          | None -> ())
        results;
      T.add_rule tbl)
    [
      (Parqo.Query_gen.Chain, 6);
      (Parqo.Query_gen.Star, 8);
      (Parqo.Query_gen.Chain, 10);
    ];
  T.print tbl
