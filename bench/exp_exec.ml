(* E24 — the executors' allocation per output row.

   The prepared plans of the benchmark's [execute] workload (TPC-H-like
   q3, q5 and q10, the portfolio star and the chain database, data seed
   7, each planned once by a default [Session]) run through
   [Executor.run_query] and [Parallel_exec.run_query].  Reported per
   query: its output rows, the plan's join methods, and each executor's
   minor words per output row and wall time.

   The gate: each executor's minor words per output row, on every
   query, must stay under that query's ceiling.  Allocation on one
   domain is a deterministic count, so the ceilings are tight.  A join
   whose work is not proportional to its input plus output (a nested
   loop that tests every pair of rows and rebuilds keys per pair) shows
   as thousands of words per output row on the nested-loops plans.

   PARQO_SMOKE=1 runs each query once; the full run takes the best wall
   time of five.  Both print the table and assert the gate. *)

module T = Parqo.Tableau
module Cm = Parqo.Costmodel

let smoke = Common.smoke

(* ceilings on minor words per output row, (query, sequential,
   parallel): about 1.2x the figures when they were set (360 / 527,
   2 676 / 3 102, 360 / 567, 106 / 221 and 100 / 194), which repeat
   exactly from run to run; portfolio's partitioned run reads 206 since
   index scans read a precomputed key order.  Sorting each index scan's
   rows on every run read 1 374 on q3, 5 534 on q5 and 736 on q10.
   Kernels that tested every (outer, inner) pair over rebuilt key lists
   read 17 379 / 20 650 on q3 and 66 961 / 75 946 on q5, and their hash
   join 207 / 300 on chain. *)
let ceilings =
  [
    ("q3", 432., 632.);
    ("q5", 3211., 3722.);
    ("q10", 432., 681.);
    ("portfolio", 128., 265.);
    ("chain", 120., 232.);
  ]

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "E24 FAILED: %s\n" msg;
      exit 1)
    fmt

(* minor words and best wall time of [f] over [repeats] runs *)
let measure ~repeats f =
  let best = ref infinity and words = ref 0. and result = ref None in
  for _ = 1 to repeats do
    let before = Gc.minor_words () in
    let r, dt = Common.timed f in
    words := Gc.minor_words () -. before;
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !words, !best)

let rec methods = function
  | Parqo.Join_tree.Access _ -> []
  | Parqo.Join_tree.Join j ->
    methods j.Parqo.Join_tree.outer
    @ methods j.Parqo.Join_tree.inner
    @ [ Parqo.Join_method.to_string j.Parqo.Join_tree.method_ ]

let run () =
  Printf.printf "E24: executor minor words per output row %s\n"
    (if smoke then "[smoke mode]" else "");
  let tpch = Parqo.Workloads.tpch ~seed:7 () in
  let pf_db, pf_q = Parqo.Workloads.portfolio ~seed:7 () in
  let ch_db, ch_q = Parqo.Workloads.chain_db ~seed:7 () in
  let queries =
    [
      ("q3", tpch.Parqo.Workloads.db, tpch.Parqo.Workloads.q3);
      ("q5", tpch.Parqo.Workloads.db, tpch.Parqo.Workloads.q5);
      ("q10", tpch.Parqo.Workloads.db, tpch.Parqo.Workloads.q10);
      ("portfolio", pf_db, pf_q);
      ("chain", ch_db, ch_q);
    ]
  in
  let repeats = if smoke then 1 else 5 in
  let tbl =
    T.create ~title:"E24: executor minor words per output row"
      ~columns:
        [
          ("query", T.Left);
          ("joins", T.Left);
          ("rows", T.Right);
          ("seq words/row", T.Right);
          ("par words/row", T.Right);
          ("seq ms", T.Right);
          ("par ms", T.Right);
        ]
  in
  let over = ref [] in
  List.iter
    (fun (label, db, query) ->
      let session = Parqo.Session.create ~db () in
      let plan =
        match Parqo.Session.optimize_query session query with
        | Ok (plan, _) -> plan
        | Error e -> fail "%s: %s" label e
      in
      let seq, seq_words, seq_s =
        measure ~repeats (fun () -> Parqo.Executor.run_query db query plan.Cm.tree)
      in
      let par, par_words, par_s =
        measure ~repeats (fun () ->
            Parqo.Parallel_exec.run_query db query plan.Cm.optree)
      in
      if not (Parqo.Batch.equal_bags seq par) then
        fail "%s: parallel and sequential bags differ" label;
      let rows = float_of_int (max 1 (Parqo.Batch.n_rows seq)) in
      let seq_wpr = seq_words /. rows and par_wpr = par_words /. rows in
      T.add_row tbl
        [
          label;
          String.concat "," (methods plan.Cm.tree);
          string_of_int (Parqo.Batch.n_rows seq);
          Printf.sprintf "%.1f" seq_wpr;
          Printf.sprintf "%.1f" par_wpr;
          Printf.sprintf "%.2f" (seq_s *. 1000.);
          Printf.sprintf "%.2f" (par_s *. 1000.);
        ];
      let _, seq_max, par_max = List.find (fun (l, _, _) -> l = label) ceilings in
      if seq_wpr > seq_max then
        over := Printf.sprintf "%s sequential %.1f > %.0f" label seq_wpr seq_max :: !over;
      if par_wpr > par_max then
        over := Printf.sprintf "%s parallel %.1f > %.0f" label par_wpr par_max :: !over)
    queries;
  T.print tbl;
  match List.rev !over with
  | [] -> ()
  | v -> fail "minor words per output row over the ceiling: %s" (String.concat "; " v)
