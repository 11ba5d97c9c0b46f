(* E4 — Theorem 3: expected cover-set size of m random points in l dims,
   Monte Carlo vs the paper's bound 2^l (1 - (1 - 2^-l)^m).

   Reproduction finding: the bound holds in the small-m regime but is
   exceeded for large m — for l = 2 the true expectation is the harmonic
   number H_m (unbounded), so the theorem cannot be a uniform bound on
   the full minimal-element set.  The paper itself flags its independence
   assumption as "likely to be optimistic". *)

module T = Parqo.Tableau

let mean_cover rng l m trials =
  let fill p row = Array.blit p 0 row 0 l in
  let total = ref 0 in
  for _ = 1 to trials do
    let pts = List.init m (fun _ -> Array.init l (fun _ -> Parqo.Rng.float rng 1.)) in
    total := !total + List.length (Parqo.Cover.pareto ~n_dims:l ~fill pts)
  done;
  float_of_int !total /. float_of_int trials

let run () =
  Common.header "E4 / Theorem 3 — expected cover-set size"
    [
      "mean over 100 trials of the Pareto set of m uniform points in l dims;";
      "'bound' is the paper's 2^l(1-(1-2^-l)^m); H_m shown for l = 2.";
    ];
  let rng = Parqo.Rng.create 2024 in
  let tbl =
    T.create ~title:"T3. Monte Carlo vs Theorem 3 bound"
      ~columns:
        [
          ("l", T.Right);
          ("m", T.Right);
          ("measured mean", T.Right);
          ("paper bound", T.Right);
          ("within bound", T.Left);
          ("H_m (l=2 exact)", T.Right);
        ]
  in
  List.iter
    (fun (l, m) ->
      let mean = mean_cover rng l m 100 in
      let bound = Parqo.Combin.theorem3_bound ~l ~m in
      T.add_row tbl
        [
          Common.celli l;
          Common.celli m;
          Common.cell mean;
          Common.cell bound;
          (if mean <= bound +. 0.35 then "yes" else "EXCEEDED");
          (if l = 2 then Common.cell (Parqo.Combin.harmonic m) else "-");
        ])
    [
      (1, 4); (1, 64);
      (2, 4); (2, 16); (2, 64); (2, 256); (2, 1024);
      (3, 16); (3, 256);
      (4, 64); (4, 1024);
      (5, 256);
    ];
  T.print tbl
