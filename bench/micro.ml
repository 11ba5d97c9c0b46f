(* Bechamel micro-benchmarks: one Test per core operation and one per
   experiment-scale search, timed with the monotonic clock. *)

open Bechamel
open Toolkit

let make_tests () =
  let env = Common.shape_env Parqo.Query_gen.Chain 4 in
  let tree =
    Parqo.Join_tree.join Parqo.Join_method.Hash_join
      ~outer:
        (Parqo.Join_tree.join Parqo.Join_method.Sort_merge
           ~outer:(Parqo.Join_tree.access 0) ~inner:(Parqo.Join_tree.access 1))
      ~inner:(Parqo.Join_tree.access 2)
  in
  let clique6 = Common.shape_env Parqo.Query_gen.Clique 6 in
  let metric = Parqo.Optimizer.default_metric env in
  let parallel_cfg =
    { (Parqo.Space.parallel_config env.Parqo.Env.machine) with
      Parqo.Space.clone_degrees = [ 1; 2; 4 ] }
  in
  let optree = Parqo.Expand.expand env.Parqo.Env.estimator tree in
  let graph = Parqo.Task_graph.of_optree env optree in
  let rng = Parqo.Rng.create 1 in
  let points =
    List.init 256 (fun _ -> Array.init 4 (fun _ -> Parqo.Rng.float rng 1.))
  in
  let fill4 p row = Array.blit p 0 row 0 4 in
  [
    Test.make ~name:"cost/evaluate (3-way plan)"
      (Staged.stage (fun () -> ignore (Parqo.Costmodel.evaluate env tree)));
    Test.make ~name:"optree/expand (3-way plan)"
      (Staged.stage (fun () ->
           ignore (Parqo.Expand.expand env.Parqo.Env.estimator tree)));
    Test.make ~name:"sim/run (3-way plan)"
      (Staged.stage (fun () -> ignore (Parqo.Simulator.run graph)));
    Test.make ~name:"cover/pareto (256 pts, 4 dims)"
      (Staged.stage (fun () ->
           ignore (Parqo.Cover.pareto ~n_dims:4 ~fill:fill4 points)));
    Test.make ~name:"search/DP-work clique-6 (Table 1)"
      (Staged.stage (fun () ->
           ignore (Parqo.Dp.optimize ~config:Parqo.Space.minimal_config clique6)));
    Test.make ~name:"search/poDP chain-4 parallel space"
      (Staged.stage (fun () ->
           ignore
             (Parqo.Podp.optimize ~config:parallel_cfg ~metric ~max_cover:32 env)));
    Test.make ~name:"search/bushy-DP-work clique-6"
      (Staged.stage (fun () ->
           ignore
             (Parqo.Optimizer.minimize_work ~shape:Parqo.Optimizer.Bushy
                ~config:Parqo.Space.minimal_config clique6)));
  ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw_results =
    List.map (fun test -> Benchmark.all cfg instances test)
      (List.map (fun t -> Test.make_grouped ~name:"parqo" ~fmt:"%s %s" [ t ])
         (make_tests ()))
  in
  let merged = Hashtbl.create 16 in
  List.iter
    (fun raw ->
      Hashtbl.iter (fun k v -> Hashtbl.replace merged k v) raw)
    raw_results;
  List.map (fun instance -> Analyze.all ols instance merged) instances
  |> Analyze.merge ols instances

let run () =
  Common.header "Micro-benchmarks (bechamel, monotonic clock)" [];
  let results = benchmark () in
  let open Notty_unix in
  Bechamel_notty.Unit.add Instance.monotonic_clock
    (Measure.unit Instance.monotonic_clock);
  let window =
    match winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  eol img |> output_image;
  print_newline ()
