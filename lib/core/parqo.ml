(** PARQO — a parallel query optimizer reproducing "Query Optimization for
    Parallel Execution" (Ganguly, Hasan, Krishnamurthy; SIGMOD 1992).

    This module is the library facade: it re-exports every subsystem
    under one namespace and adds the paper's worked scenarios
    ({!Scenarios}) and canned databases ({!Workloads}).

    The typical flow:
    {[
      let catalog, query = Parqo.Query_gen.generate spec in
      let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
      let env = Parqo.Env.create ~machine ~catalog ~query () in
      let outcome =
        Parqo.Optimizer.minimize_response_time
          ~bound:(Parqo.Bounds.Throughput_degradation 2.0) env
      in
      ...
    ]} *)

(* utilities *)
module Bitset = Parqo_util.Bitset
module Vecf = Parqo_util.Vecf
module Rng = Parqo_util.Rng
module Combin = Parqo_util.Combin
module Tableau = Parqo_util.Tableau
module Statsu = Parqo_util.Statsu
module Parqo_error = Parqo_util.Parqo_error
module Domain_pool = Parqo_util.Domain_pool
module Plan_cache = Parqo_util.Plan_cache

(* machine *)
module Resource = Parqo_machine.Resource
module Machine = Parqo_machine.Machine

(* catalog and data *)
module Value = Parqo_catalog.Value
module Stats = Parqo_catalog.Stats
module Table = Parqo_catalog.Table
module Index = Parqo_catalog.Index
module Catalog = Parqo_catalog.Catalog
module Datagen = Parqo_catalog.Datagen

(* queries *)
module Query = Parqo_query.Query
module Sql = Parqo_query.Parser
module Query_gen = Parqo_query.Query_gen

(* plans *)
module Join_method = Parqo_plan.Join_method
module Access_path = Parqo_plan.Access_path
module Ordering = Parqo_plan.Ordering
module Join_tree = Parqo_plan.Join_tree
module Plan_io = Parqo_plan.Plan_io
module Estimator = Parqo_plan.Estimator
module Props = Parqo_plan.Props

(* operator trees *)
module Op = Parqo_optree.Op
module Expand = Parqo_optree.Expand

(* cost model *)
module Rvec = Parqo_cost.Rvec
module Tdesc = Parqo_cost.Tdesc
module Descriptor = Parqo_cost.Descriptor
module Opcost = Parqo_cost.Opcost
module Faultcost = Parqo_cost.Faultcost
module Placement = Parqo_cost.Placement
module Env = Parqo_cost.Env
module Costmodel = Parqo_cost.Costmodel
module Explain = Parqo_cost.Explain

(* search *)
module Space = Parqo_search.Space
module Metric = Parqo_search.Metric
module Cover = Parqo_search.Cover
module Podp = Parqo_search.Podp
module Brute = Parqo_search.Brute
module Greedy = Parqo_search.Greedy
module Twophase = Parqo_search.Twophase
module Random_plans = Parqo_search.Random_plans
module Bounds = Parqo_search.Bounds
module Budget = Parqo_search.Budget
module Optimizer = Parqo_search.Optimizer
module Search_stats = Parqo_search.Search_stats

(* execution *)
module Task_graph = Parqo_sim.Task_graph
module Fault = Parqo_sim.Fault
module Recovery = Parqo_sim.Recovery
module Simulator = Parqo_sim.Simulator
module Scheduler = Parqo_sim.Scheduler
module Residual = Parqo_cost.Residual
module Adaptive = Adaptive
module Batch = Parqo_exec.Batch
module Executor = Parqo_exec.Executor
module Parallel_exec = Parqo_exec.Parallel_exec

module Scenarios = Scenarios
module Workloads = Workloads
module Session = Session
