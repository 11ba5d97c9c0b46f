(* execute: prepared queries run on materialized data, in a closed loop.
   TPC-H-like q3, q5 and q10, the portfolio star and a chain database
   are generated and optimized once during set-up, from the session's
   default data seed: the seed orders the ops, and the data stays fixed
   because each seed's data moves the executors' cost by up to 40%.
   Each op runs the chosen operator tree with [Parallel_exec.run_query]
   and checks it against [Executor.run_query] with [Batch.equal_bags] --
   the execution half of [Session.sql].  It is the only workload where
   the executors and [Datagen] do most of the work. *)

open Common

let name = "execute"

type prepared = {
  label : string;
  db : Parqo.Datagen.database;
  query : Parqo.Query.t;
  plan : Cm.eval;
}

type state = { prepared : prepared array; order : int array }

(* Each op is timed at the fastest of six passes over the op list: an op
   takes milliseconds, so six passes of about a hundred ops fit in a
   run, and the more passes, the more chances an op has at a quiet
   moment of the host. *)
let passes = 6

(* About 75 ms per round of the five queries on a 2-vCPU 2.1 GHz Xeon;
   at least 20 rounds keep ten ops above p90. *)
let rounds_for seconds = blocks ~seconds ~passes ~per:0.075 ~min:20

let run_op span p =
  let par =
    Span.record span "Parallel_exec.run_query" (fun () ->
        Parqo.Parallel_exec.run_query p.db p.query p.plan.Cm.optree)
  in
  let seq =
    Span.record span "Executor.run_query" (fun () ->
        Parqo.Executor.run_query p.db p.query p.plan.Cm.tree)
  in
  let same =
    Span.record span "Batch.equal_bags" (fun () -> Parqo.Batch.equal_bags par seq)
  in
  (same, Parqo.Batch.n_rows par)

let data_seed = 7

let setup ~seed ~seconds span =
  let tpch =
    Span.record span "Workloads.tpch" (fun () -> Parqo.Workloads.tpch ~seed:data_seed ())
  in
  let pf_db, pf_q =
    Span.record span "Workloads.portfolio" (fun () ->
        Parqo.Workloads.portfolio ~seed:data_seed ())
  in
  let ch_db, ch_q =
    Span.record span "Workloads.chain_db" (fun () ->
        Parqo.Workloads.chain_db ~seed:data_seed ())
  in
  let prepare label db query =
    let _, plan = session_plan ~span ~catalog:db.Parqo.Datagen.catalog query in
    { label; db; query; plan }
  in
  let db = tpch.Parqo.Workloads.db in
  let prepared =
    [|
      prepare "q3" db tpch.Parqo.Workloads.q3;
      prepare "q5" db tpch.Parqo.Workloads.q5;
      prepare "q10" db tpch.Parqo.Workloads.q10;
      prepare "portfolio" pf_db pf_q;
      prepare "chain" ch_db ch_q;
    |]
  in
  (* warm-up: one untimed round *)
  Array.iter (fun p -> ignore (run_op span p)) prepared;
  let order =
    Oplist.execute_order ~seed ~rounds:(rounds_for seconds) ~n:(Array.length prepared)
  in
  { prepared; order }

let release _ = ()

let run st span =
  let a = acc () in
  let n = Array.length st.order in
  let rows = ref 0 in
  let wall_s =
    timed_passes span a ~passes ~ops:n "op.execute"
      (fun i -> run_op span st.prepared.(st.order.(i)))
      (fun i (same, r) ->
        let p = st.prepared.(st.order.(i)) in
        rows := !rows + r;
        if same then answer a p.plan
        else
          fail_op a
            (Printf.sprintf "op %d (%s): parallel and sequential bags differ" i p.label))
  in
  finish a ~wall_s ~attempted:n
    ~counts:[ ("exec.rows_per_op", float_of_int !rows /. float_of_int n) ]

let extra _ ~untraced:_ = ([], [])

(* The query each op ran, in op order. *)
let detail st =
  Jsonw.Arr (Array.to_list (Array.map (fun i -> Jsonw.Str st.prepared.(i).label) st.order))
