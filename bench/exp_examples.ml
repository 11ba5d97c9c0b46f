(* E2 / E3 — the paper's worked examples, recomputed. *)

module T = Parqo.Tableau
module Sc = Parqo.Scenarios

let example2 () =
  let tbl =
    T.create ~title:"E2. Example 2 — time-descriptor calculus (paper's exact numbers)"
      ~columns:
        [
          ("operator", T.Left);
          ("(tf,tl) base", T.Left);
          ("(tf,tl) computed", T.Left);
          ("paper", T.Left);
          ("match", T.Left);
        ]
  in
  let expected =
    [
      ("scan R1", (0., 1.));
      ("scan R2", (0., 3.));
      ("scan R3", (0., 2.));
      ("sort1", (6., 6.));
      ("sort2", (13., 13.));
      ("merge", (13., 15.));
      ("n.loops", (13., 15.));
    ]
  in
  List.iter
    (fun (r : Sc.example2_row) ->
      let etf, etl = List.assoc r.Sc.operator expected in
      let matches =
        r.Sc.computed.Parqo.Tdesc.tf = etf && r.Sc.computed.Parqo.Tdesc.tl = etl
      in
      T.add_row tbl
        [
          r.Sc.operator;
          Printf.sprintf "(%g,%g)" r.Sc.base.Parqo.Tdesc.tf r.Sc.base.Parqo.Tdesc.tl;
          Printf.sprintf "(%g,%g)" r.Sc.computed.Parqo.Tdesc.tf
            r.Sc.computed.Parqo.Tdesc.tl;
          Printf.sprintf "(%g,%g)" etf etl;
          (if matches then "yes" else "NO");
        ])
    (Sc.example2 ());
  T.print tbl

let example3 () =
  let e = Sc.example3 () in
  let tbl =
    T.create
      ~title:
        "E3. Example 3 — response time violates the principle of optimality"
      ~columns:
        [ ("plan", T.Left); ("RT computed", T.Right); ("RT paper", T.Right) ]
  in
  T.add_row tbl [ "p1 = indexScan(I_CT)"; Common.cell e.Sc.rt_p1; "20" ];
  T.add_row tbl [ "p2 = indexScan(I_CR)"; Common.cell e.Sc.rt_p2; "25" ];
  T.add_row tbl [ "NL(p1, indexScan(I_C))"; Common.cell e.Sc.rt_join_p1; "60" ];
  T.add_row tbl [ "NL(p2, indexScan(I_C))"; Common.cell e.Sc.rt_join_p2; "40" ];
  T.print tbl;
  Printf.printf
    "  p1 beats p2 standalone (%g < %g) yet loses after the join (%g > %g):\n\
    \  principle of optimality violated = %b\n\n"
    e.Sc.rt_p1 e.Sc.rt_p2 e.Sc.rt_join_p1 e.Sc.rt_join_p2
    (Sc.example3_violates_po ());
  (* end-to-end through the full cost model on the CTR/CI database *)
  let catalog, query, machine = Sc.ctr_ci () in
  let env = Parqo.Env.create ~machine ~catalog ~query () in
  let objective (e : Parqo.Costmodel.eval) = e.Parqo.Costmodel.response_time in
  let naive = Parqo.Podp.optimize ~metric:Parqo.Metric.response_time env in
  let metric = Parqo.Metric.descriptor machine Parqo.Machine.Per_resource in
  let po = Parqo.Podp.optimize ~metric env in
  let brute = Parqo.Brute.leftdeep ~objective env in
  let rt = function
    | Some (e : Parqo.Costmodel.eval) -> e.Parqo.Costmodel.response_time
    | None -> nan
  in
  let tbl2 =
    T.create
      ~title:"E3b. Search on the CTR/CI database (full cost model, two disks)"
      ~columns:[ ("algorithm", T.Left); ("best RT found", T.Right) ]
  in
  T.add_row tbl2 [ "Figure 1 DP with naive RT metric"; Common.cell (rt naive.Parqo.Podp.best) ];
  T.add_row tbl2 [ "Figure 2 partial-order DP"; Common.cell (rt po.Parqo.Podp.best) ];
  T.add_row tbl2 [ "exhaustive (ground truth)"; Common.cell (rt brute.Parqo.Brute.best) ];
  T.print tbl2

let run () =
  Common.header "E2/E3 — worked examples of the paper" [];
  example2 ();
  example3 ()
