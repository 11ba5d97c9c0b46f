(* The work / response-time tradeoff (§2): sweep both bound families —
   throughput degradation and cost–benefit ratio — and print the frontier
   the administrator chooses from, together with the final cover set of
   incomparable plans the partial-order DP retains.

   Run with: dune exec examples/tradeoff.exe *)

module Cm = Parqo.Costmodel
module T = Parqo.Tableau

let () =
  let env =
    let catalog, query =
      Parqo.Query_gen.generate
        (Parqo.Query_gen.default_spec Parqo.Query_gen.Star 5)
    in
    let machine = Parqo.Machine.shared_nothing ~nodes:8 () in
    Parqo.Env.create ~machine ~catalog ~query ()
  in
  let config =
    { (Parqo.Space.parallel_config env.Parqo.Env.machine) with
      Parqo.Space.clone_degrees = [ 1; 2; 4; 8 ] }
  in
  let run bound =
    Parqo.Optimizer.minimize_response_time ~config ~bound env
  in
  let tbl =
    T.create ~title:"star-5 on 8 nodes: bounded response-time optimization"
      ~columns:
        [
          ("bound", T.Left);
          ("RT", T.Right);
          ("work", T.Right);
          ("work/W_opt", T.Right);
        ]
  in
  let add bound =
    let o = run bound in
    match (o.Parqo.Optimizer.best, o.Parqo.Optimizer.work_optimal) with
    | Some b, Some w ->
      T.add_row tbl
        [
          Parqo.Bounds.to_string bound;
          T.cell_float b.Cm.response_time;
          T.cell_float b.Cm.work;
          T.cell_float ~decimals:3 (b.Cm.work /. w.Cm.work);
        ]
    | _ -> ()
  in
  List.iter add
    [
      Parqo.Bounds.Throughput_degradation 1.0;
      Parqo.Bounds.Throughput_degradation 1.25;
      Parqo.Bounds.Throughput_degradation 2.0;
      Parqo.Bounds.Cost_benefit 0.1;
      Parqo.Bounds.Cost_benefit 1.0;
      Parqo.Bounds.Cost_benefit 10.0;
      Parqo.Bounds.Unbounded;
    ];
  T.print tbl;
  (* the frontier: the final cover set under work x response time *)
  let o = run Parqo.Bounds.Unbounded in
  let frontier =
    Parqo.Cover.pareto ~n_dims:2
      ~fill:(fun (e : Cm.eval) row ->
        row.(0) <- e.Cm.work;
        row.(1) <- e.Cm.response_time)
      o.Parqo.Optimizer.cover
  in
  let tbl2 =
    T.create ~title:"work / response-time frontier (incomparable plans)"
      ~columns:[ ("RT", T.Right); ("work", T.Right); ("plan", T.Left) ]
  in
  List.iter
    (fun (e : Cm.eval) ->
      T.add_row tbl2
        [
          T.cell_float e.Cm.response_time;
          T.cell_float e.Cm.work;
          Parqo.Join_tree.to_string e.Cm.tree;
        ])
    (List.sort
       (fun (a : Cm.eval) b -> Float.compare a.Cm.response_time b.Cm.response_time)
       frontier);
  T.print tbl2
