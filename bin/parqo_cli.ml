(* parqo — command-line front end to the parallel query optimizer.

   Subcommands:
     optimize   optimize a SQL query over a generated workload
     explain    print the operator tree and descriptor of the chosen plan
     simulate   run the chosen plan through the execution simulator
     sweep      response time vs work-budget table
     gen        show a generated catalog and query
*)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* common arguments                                                    *)

let setup_logs =
  let init style_renderer level =
    Fmt_tty.setup_std_outputs ?style_renderer ();
    Logs.set_level level;
    Logs.set_reporter (Logs_fmt.reporter ())
  in
  Term.(const init $ Fmt_cli.style_renderer () $ Logs_cli.level ())

let shape_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "chain" -> Ok Parqo.Query_gen.Chain
    | "star" -> Ok Parqo.Query_gen.Star
    | "cycle" -> Ok Parqo.Query_gen.Cycle
    | "clique" -> Ok Parqo.Query_gen.Clique
    | _ -> Error (`Msg "expected chain|star|cycle|clique")
  in
  Arg.conv (parse, fun ppf s -> Fmt.string ppf (Parqo.Query_gen.shape_to_string s))

let shape =
  Arg.(value & opt shape_conv Parqo.Query_gen.Chain
       & info [ "shape" ] ~docv:"SHAPE" ~doc:"Join graph shape: chain, star, cycle or clique.")

let n_relations =
  Arg.(value & opt int 4
       & info [ "n"; "relations" ] ~docv:"N" ~doc:"Number of relations in the generated query.")

let nodes =
  Arg.(value & opt int 4
       & info [ "nodes" ] ~docv:"NODES" ~doc:"Shared-nothing machine size (sites).")

let budget =
  Arg.(value & opt (some float) None
       & info [ "k"; "budget" ] ~docv:"K"
           ~doc:"Throughput-degradation bound: admitted plans may use at most K times the optimal work.")

let search_domains =
  Arg.(value & opt int 1
       & info [ "search-domains" ] ~docv:"N"
           ~doc:"Worker domains for the partial-order DP search (default 1 = sequential). The chosen plan is bit-identical for every N; the pool clamps N to the machine's cores, so oversized values are safe.")

let bushy =
  Arg.(value & flag & info [ "bushy" ] ~doc:"Search bushy trees instead of left-deep.")

let sql =
  Arg.(value & opt (some string) None
       & info [ "sql" ] ~docv:"SQL" ~doc:"Optimize this SQL query against the generated catalog instead of the generated join query.")

let plan_text =
  Arg.(value & opt (some string) None
       & info [ "plan" ] ~docv:"PLAN"
           ~doc:"Use this plan (Plan_io syntax, e.g. 'HJ/4!(scan(r0), scan(r1))') instead of optimizing.")

let fault_rate =
  Arg.(value & opt float 0.
       & info [ "fault-rate" ] ~docv:"F"
           ~doc:"Per-attempt fail-stop probability. Optimization becomes failure-aware (expected-makespan objective); simulation injects faults at this rate.")

let recovery_conv =
  let parse s =
    match Parqo.Recovery.of_string s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf (Parqo.Recovery.to_string p))

let recovery =
  Arg.(value & opt recovery_conv Parqo.Recovery.default
       & info [ "recovery" ] ~docv:"POLICY"
           ~doc:"Recovery policy for injected faults: retry (task retry with backoff), stage (restart the pipelined segment), sync (also recompute checkpoints lost to resource outages), or replan (re-optimize the residual query on the degraded machine when recovery crosses a sync point).")

let fault_seed =
  Arg.(value & opt int 0
       & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Seed of the fault-injection schedule.")

let replan_threshold =
  Arg.(value & opt float 0.5
       & info [ "replan-threshold" ] ~docv:"R"
           ~doc:"With --recovery replan: re-optimize once cumulative rework exceeds R times the plan's base work (checkpoint loss always triggers). Ignored for other policies.")

let setup shape n nodes sql =
  let catalog, query =
    Parqo.Query_gen.generate (Parqo.Query_gen.default_spec shape n)
  in
  let query =
    match sql with
    | None -> query
    | Some text -> Parqo.Sql.parse_exn ~catalog text
  in
  let machine = Parqo.Machine.shared_nothing ~nodes () in
  (Parqo.Env.create ~machine ~catalog ~query (), query, machine)

let optimize_env ?(fault_rate = 0.) ?(domains = 1) env machine budget bushy =
  let config = Parqo.Space.parallel_config machine in
  let bound =
    match budget with
    | None -> Parqo.Bounds.Unbounded
    | Some k -> Parqo.Bounds.Throughput_degradation k
  in
  let shape_opt =
    if bushy then Parqo.Optimizer.Bushy else Parqo.Optimizer.Left_deep
  in
  if fault_rate > 0. then
    (* failure-aware: charge pipelined chains their expected
       re-execution cost and rank by the expected makespan *)
    Parqo.Optimizer.minimize_response_time ~config ~shape:shape_opt ~bound
      ~domains
      ~metric:
        (Parqo.Metric.with_ordering
           (Parqo.Metric.expected_makespan env ~fault_rate))
      ~rank:(Parqo.Faultcost.expected_response_time env ~fault_rate)
      env
  else
    Parqo.Optimizer.minimize_response_time ~config ~shape:shape_opt ~bound
      ~domains env

let report_outcome query (o : Parqo.Optimizer.outcome) =
  Printf.printf "query: %s\n\n" (Parqo.Query.to_sql query);
  (match o.Parqo.Optimizer.work_optimal with
  | Some w ->
    Printf.printf "work-optimal   : rt=%.2f work=%.2f  %s\n"
      w.Parqo.Costmodel.response_time w.Parqo.Costmodel.work
      (Parqo.Join_tree.to_string w.Parqo.Costmodel.tree)
  | None -> ());
  match o.Parqo.Optimizer.best with
  | Some b ->
    Printf.printf "response-time  : rt=%.2f work=%.2f  %s\n"
      b.Parqo.Costmodel.response_time b.Parqo.Costmodel.work
      (Parqo.Join_tree.to_string b.Parqo.Costmodel.tree);
    `Ok ()
  | None -> `Error (false, "no plan found")

(* ------------------------------------------------------------------ *)
(* subcommands                                                         *)

(* fail-stop rates are per-attempt probabilities; 1 would retry forever *)
let check_fault_rate fault_rate k =
  if fault_rate < 0. || fault_rate >= 1. then
    `Error (false, "--fault-rate must be in [0, 1)")
  else k ()

let report_search_stats (o : Parqo.Optimizer.outcome) =
  let print_phase name (s : Parqo.Search_stats.t) =
    Printf.printf "\n%s: %s\n" name (Format.asprintf "%a" Parqo.Search_stats.pp s);
    List.iter
      (fun l ->
        Printf.printf "  %s\n" (Format.asprintf "%a" Parqo.Search_stats.pp_level l))
      (Parqo.Search_stats.levels s)
  in
  print_phase "search" o.Parqo.Optimizer.stats;
  match o.Parqo.Optimizer.work_stats with
  | Some s -> print_phase "work phase" s
  | None -> ()

let show_stats =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print search statistics: plans considered/generated, cover \
                 peaks, the coordinator's GC allocation during the search, \
                 and one line per DP level (subsets, stored plans, per-level \
                 cover peak, wall time, domains).")

let optimize_cmd =
  let run () shape n nodes sql budget bushy fault_rate domains stats =
    check_fault_rate fault_rate @@ fun () ->
    let env, query, machine = setup shape n nodes sql in
    let o = optimize_env ~fault_rate ~domains env machine budget bushy in
    let r = report_outcome query o in
    if stats then report_search_stats o;
    r
  in
  Cmd.v (Cmd.info "optimize" ~doc:"Minimize response time subject to a work bound.")
    Term.(ret (const run $ setup_logs $ shape $ n_relations $ nodes $ sql $ budget $ bushy $ fault_rate $ search_domains $ show_stats))

(* either the optimizer's choice or an explicitly supplied plan *)
let chosen_plan ?fault_rate ?domains env query machine budget bushy plan_text =
  match plan_text with
  | Some text -> (
    match
      Parqo.Plan_io.of_string ~catalog:(Parqo.Env.catalog env) ~query text
    with
    | Ok tree -> Ok (Parqo.Costmodel.evaluate env tree)
    | Error e -> Error ("bad plan: " ^ e))
  | None -> (
    match
      (optimize_env ?fault_rate ?domains env machine budget bushy)
        .Parqo.Optimizer.best
    with
    | Some b -> Ok b
    | None -> Error "no plan found")

let explain_cmd =
  let run () shape n nodes sql budget bushy plan_text domains =
    let env, query, machine = setup shape n nodes sql in
    match chosen_plan ~domains env query machine budget bushy plan_text with
    | Error e -> `Error (false, e)
    | Ok b ->
      Printf.printf "query: %s\n\n" (Parqo.Query.to_sql query);
      print_endline (Parqo.Explain.explain_plan env b.Parqo.Costmodel.tree);
      Format.printf "@.descriptor: %a@." Parqo.Descriptor.pp
        b.Parqo.Costmodel.descriptor;
      `Ok ()
  in
  Cmd.v (Cmd.info "explain" ~doc:"Show the chosen plan's operator tree and cost descriptor.")
    Term.(ret (const run $ setup_logs $ shape $ n_relations $ nodes $ sql $ budget $ bushy $ plan_text $ search_domains))

let simulate_cmd =
  let run () shape n nodes sql budget bushy plan_text fault_rate recovery
      fault_seed replan_threshold domains =
    check_fault_rate fault_rate @@ fun () ->
    let env, query, machine = setup shape n nodes sql in
    match
      chosen_plan ~fault_rate ~domains env query machine budget bushy plan_text
    with
    | Error e -> `Error (false, e)
    | Ok b ->
      Printf.printf "query: %s\nplan : %s\n\n" (Parqo.Query.to_sql query)
        (Parqo.Join_tree.to_string b.Parqo.Costmodel.tree);
      let faults =
        if fault_rate > 0. then
          Some (Parqo.Fault.default ~seed:fault_seed ~fault_rate ())
        else None
      in
      let recovery =
        match recovery with
        | Parqo.Recovery.Replan _ ->
          Parqo.Recovery.replan ~threshold:replan_threshold ()
        | other -> other
      in
      let result =
        Parqo.Adaptive.simulate ?faults ~recovery env b.Parqo.Costmodel.tree
      in
      let sim = result.Parqo.Adaptive.outcome in
      List.iter
        (fun (e : Parqo.Simulator.event) ->
          Printf.printf "  t=%10.2f  %s\n" e.Parqo.Simulator.at
            e.Parqo.Simulator.what)
        sim.Parqo.Simulator.trace;
      Printf.printf "\n%s" (Parqo.Simulator.timeline sim);
      Printf.printf
        "\npredicted rt %.2f | simulated makespan %.2f | utilization %.0f%%\n"
        b.Parqo.Costmodel.response_time sim.Parqo.Simulator.makespan
        (100. *. Parqo.Simulator.utilization sim);
      if fault_rate > 0. then begin
        Printf.printf
          "faults %d | retries %d | replans %d (policy %s, seed %d)\n"
          sim.Parqo.Simulator.n_faults sim.Parqo.Simulator.n_retries
          sim.Parqo.Simulator.n_replans
          (Parqo.Recovery.to_string recovery)
          fault_seed;
        List.iter
          (fun (r : Parqo.Adaptive.replan_record) ->
            Printf.printf
              "  replan at %.2f (%s): %s — %d rels, %d checkpoints, %d considered%s\n"
              r.Parqo.Adaptive.at
              (Parqo.Simulator.trigger_to_string r.Parqo.Adaptive.trigger)
              r.Parqo.Adaptive.plan_key r.Parqo.Adaptive.n_relations
              r.Parqo.Adaptive.n_checkpoints r.Parqo.Adaptive.considered
              (if r.Parqo.Adaptive.gave_up then " (greedy fallback)" else ""))
          result.Parqo.Adaptive.records
      end;
      `Ok ()
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Simulate the chosen plan's parallel execution, optionally under injected faults.")
    Term.(ret (const run $ setup_logs $ shape $ n_relations $ nodes $ sql $ budget $ bushy $ plan_text $ fault_rate $ recovery $ fault_seed $ replan_threshold $ search_domains))

let sweep_cmd =
  let run () shape n nodes sql bushy domains =
    let env, query, machine = setup shape n nodes sql in
    Printf.printf "query: %s\n\n" (Parqo.Query.to_sql query);
    let tbl =
      Parqo.Tableau.create ~title:"response time vs work budget"
        ~columns:
          [
            ("k", Parqo.Tableau.Right);
            ("rt", Parqo.Tableau.Right);
            ("work", Parqo.Tableau.Right);
            ("plan", Parqo.Tableau.Left);
          ]
    in
    List.iter
      (fun k ->
        let o = optimize_env ~domains env machine (Some k) bushy in
        match o.Parqo.Optimizer.best with
        | Some b ->
          Parqo.Tableau.add_row tbl
            [
              Parqo.Tableau.cell_float k;
              Parqo.Tableau.cell_float b.Parqo.Costmodel.response_time;
              Parqo.Tableau.cell_float b.Parqo.Costmodel.work;
              Parqo.Join_tree.to_string b.Parqo.Costmodel.tree;
            ]
        | None -> ())
      [ 1.0; 1.25; 1.5; 2.0; 3.0; 5.0 ];
    Parqo.Tableau.print tbl;
    `Ok ()
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Sweep the work budget and print the tradeoff table.")
    Term.(ret (const run $ setup_logs $ shape $ n_relations $ nodes $ sql $ bushy $ search_domains))

let gen_cmd =
  let run () shape n =
    let catalog, query =
      Parqo.Query_gen.generate (Parqo.Query_gen.default_spec shape n)
    in
    Format.printf "%a@.@." Parqo.Catalog.pp catalog;
    Printf.printf "query: %s\n" (Parqo.Query.to_sql query)
  in
  Cmd.v (Cmd.info "gen" ~doc:"Print the generated catalog and query.")
    Term.(const run $ setup_logs $ shape $ n_relations)

(* execute a query end-to-end on a canned materialized workload *)
let run_cmd =
  let workload =
    Arg.(value & opt string "tpch:q3"
         & info [ "workload" ] ~docv:"W"
             ~doc:"One of tpch:q3, tpch:q5, tpch:q10, portfolio, university, chain.")
  in
  let limit =
    Arg.(value & opt int 10
         & info [ "limit" ] ~docv:"N" ~doc:"Rows to display.")
  in
  let run () workload limit nodes budget domains =
    let pick = function
      | "tpch:q3" -> let w = Parqo.Workloads.tpch ~seed:7 () in Ok (w.Parqo.Workloads.db, w.Parqo.Workloads.q3)
      | "tpch:q5" -> let w = Parqo.Workloads.tpch ~seed:7 () in Ok (w.Parqo.Workloads.db, w.Parqo.Workloads.q5)
      | "tpch:q10" -> let w = Parqo.Workloads.tpch ~seed:7 () in Ok (w.Parqo.Workloads.db, w.Parqo.Workloads.q10)
      | "portfolio" -> Ok (Parqo.Workloads.portfolio ~seed:7 ())
      | "university" -> Ok (Parqo.Workloads.university ~seed:7 ())
      | "chain" -> Ok (Parqo.Workloads.chain_db ~seed:7 ())
      | w -> Error ("unknown workload " ^ w)
    in
    match pick workload with
    | Error e -> `Error (false, e)
    | Ok (db, query) -> (
      let machine = Parqo.Machine.shared_nothing ~nodes () in
      let env =
        Parqo.Env.create ~machine ~catalog:db.Parqo.Datagen.catalog ~query ()
      in
      let o = optimize_env ~domains env machine budget false in
      match o.Parqo.Optimizer.best with
      | None -> `Error (false, "no plan found")
      | Some b ->
        Printf.printf "query: %s\nplan : %s  (rt %.1f, work %.1f)\n\n"
          (Parqo.Query.to_sql query)
          (Parqo.Join_tree.to_string b.Parqo.Costmodel.tree)
          b.Parqo.Costmodel.response_time b.Parqo.Costmodel.work;
        let result =
          Parqo.Parallel_exec.run_query db query b.Parqo.Costmodel.optree
        in
        let check =
          Parqo.Batch.equal_bags result
            (Parqo.Executor.run_query db query b.Parqo.Costmodel.tree)
        in
        Printf.printf "%d rows (parallel execution; agrees with sequential: %b)\n"
          (Parqo.Batch.n_rows result) check;
        List.iteri
          (fun i row ->
            if i < limit then
              Printf.printf "  (%s)\n"
                (String.concat ", "
                   (Array.to_list (Array.map Parqo.Value.to_string row))))
          result.Parqo.Batch.rows;
        if Parqo.Batch.n_rows result > limit then
          Printf.printf "  ... and %d more\n" (Parqo.Batch.n_rows result - limit);
        `Ok ())
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Optimize and execute a query on a canned materialized workload.")
    Term.(ret (const run $ setup_logs $ workload $ limit $ nodes $ budget $ search_domains))

(* the optimizer as a service: a synthetic request stream against a
   query pool, with deadlines, load shedding and optional chaos *)
let serve_cmd =
  let module Server = Parqo_serve.Server in
  let module Chaos = Parqo_serve.Chaos in
  let tables =
    Arg.(value & opt int 6
         & info [ "tables" ] ~docv:"N" ~doc:"Tables in the serving catalog.")
  in
  let pool =
    Arg.(value & opt int 24
         & info [ "pool" ] ~docv:"N" ~doc:"Distinct queries in the pool.")
  in
  let n_requests =
    Arg.(value & opt int 200
         & info [ "requests" ] ~docv:"N" ~doc:"Requests in the stream.")
  in
  let arrival =
    Arg.(value
         & opt (enum [ ("uniform", `Uniform); ("poisson", `Poisson); ("burst", `Burst) ]) `Poisson
         & info [ "arrival" ] ~docv:"PROCESS"
             ~doc:"Arrival process: $(b,uniform), $(b,poisson) or $(b,burst).")
  in
  let rate =
    Arg.(value & opt float 100.
         & info [ "rate" ] ~docv:"QPS"
             ~doc:"Arrival rate for uniform/poisson, queries per second.")
  in
  let burst_size =
    Arg.(value & opt int 20
         & info [ "burst-size" ] ~docv:"N" ~doc:"Arrivals per burst.")
  in
  let burst_period =
    Arg.(value & opt float 0.2
         & info [ "burst-period" ] ~docv:"S" ~doc:"Seconds between bursts.")
  in
  let deadline_ms =
    Arg.(value & opt float 100.
         & info [ "deadline" ] ~docv:"MS"
             ~doc:"Per-request deadline in milliseconds; expired requests degrade to the greedy plan.")
  in
  let queue_cap =
    Arg.(value & opt int 32
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Max requests in flight; arrivals beyond it are shed.")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Simulated optimizer workers.")
  in
  let chaos =
    Arg.(value & flag
         & info [ "chaos" ]
             ~doc:"Inject server-side chaos: slow requests, transient failures, mid-request catalog epoch bumps.")
  in
  let chaos_seed =
    Arg.(value & opt int 0
         & info [ "chaos-seed" ] ~docv:"SEED" ~doc:"Seed of the chaos schedule.")
  in
  let seed =
    Arg.(value & opt int 7
         & info [ "seed" ] ~docv:"SEED" ~doc:"Seed of the pool and the stream.")
  in
  let run () tables pool n arrival rate burst_size burst_period deadline_ms
      queue_cap workers chaos chaos_seed seed nodes =
    if deadline_ms <= 0. then `Error (false, "--deadline must be > 0")
    else begin
      let catalog, queries =
        Parqo.Workloads.serving_pool ~n_tables:tables ~pool ~seed ()
      in
      let process =
        match arrival with
        | `Uniform -> Parqo.Workloads.Uniform rate
        | `Poisson -> Parqo.Workloads.Poisson rate
        | `Burst ->
          Parqo.Workloads.Burst { size = burst_size; period = burst_period }
      in
      let rng = Parqo.Rng.create seed in
      let arrivals = Parqo.Workloads.arrivals rng ~process ~n in
      let reqs =
        Server.requests rng ~pool:queries ~arrivals
          ~deadline:(deadline_ms /. 1000.) ()
      in
      let config =
        {
          Server.default_config with
          Server.queue_cap;
          workers;
          chaos =
            (if chaos then Chaos.default ~seed:chaos_seed () else Chaos.none);
        }
      in
      let machine = Parqo.Machine.shared_nothing ~nodes () in
      let server = Server.create ~config ~machine ~catalog () in
      let r = Server.run server reqs in
      let s = r.Server.stats in
      Printf.printf
        "served %d requests (%s, pool %d, %d workers, queue cap %d%s)\n"
        s.Server.n_requests
        (Parqo.Workloads.arrival_to_string process)
        pool workers queue_cap
        (if chaos then ", chaos on" else "");
      Printf.printf "  planned %d | degraded %d | rejected %d\n"
        s.Server.planned s.Server.degraded s.Server.rejected;
      Printf.printf "  retries %d | epoch bumps %d | cache %d hits / %d misses\n"
        s.Server.retries s.Server.epoch_bumps s.Server.cache_hits
        s.Server.cache_misses;
      Printf.printf
        "  throughput %.1f qps | max in flight %d | latency p50 %.1fms p95 %.1fms p99 %.1fms\n"
        s.Server.throughput_qps s.Server.max_in_flight
        (1000. *. s.Server.p50) (1000. *. s.Server.p95) (1000. *. s.Server.p99);
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a synthetic optimization-request stream with deadlines, load shedding and optional chaos.")
    Term.(ret (const run $ setup_logs $ tables $ pool $ n_requests $ arrival $ rate $ burst_size $ burst_period $ deadline_ms $ queue_cap $ workers $ chaos $ chaos_seed $ seed $ nodes))

(* co-schedule a workload of optimized plans on one machine and report
   per-query response times under a scheduling policy *)
let sched_cmd =
  let module Sched = Parqo.Scheduler in
  let tables =
    Arg.(value & opt int 6
         & info [ "tables" ] ~docv:"N" ~doc:"Tables in the workload catalog.")
  in
  let pool =
    Arg.(value & opt int 24
         & info [ "pool" ] ~docv:"N" ~doc:"Distinct queries in the pool.")
  in
  let n_queries =
    Arg.(value & opt int 20
         & info [ "queries" ] ~docv:"N" ~doc:"Queries in the workload.")
  in
  let arrival =
    Arg.(value
         & opt (enum [ ("uniform", `Uniform); ("poisson", `Poisson); ("burst", `Burst) ]) `Poisson
         & info [ "arrival" ] ~docv:"PROCESS"
             ~doc:"Arrival process: $(b,uniform), $(b,poisson) or $(b,burst).")
  in
  let rate =
    Arg.(value & opt (some float) None
         & info [ "rate" ] ~docv:"R"
             ~doc:"Arrival rate in queries per simulated second. Default: one arrival per mean solo makespan (moderate load).")
  in
  let burst_size =
    Arg.(value & opt int 8
         & info [ "burst-size" ] ~docv:"N" ~doc:"Arrivals per burst.")
  in
  let burst_period =
    Arg.(value & opt (some float) None
         & info [ "burst-period" ] ~docv:"S"
             ~doc:"Simulated seconds between bursts. Default: one mean solo makespan.")
  in
  let policy =
    let policy_conv =
      let parse s =
        if String.lowercase_ascii s = "all" then Ok None
        else
          match Sched.policy_of_string s with
          | Ok p -> Ok (Some p)
          | Error e -> Error (`Msg e)
      in
      Arg.conv
        ( parse,
          fun ppf -> function
            | None -> Fmt.string ppf "all"
            | Some p -> Fmt.string ppf (Sched.policy_to_string p) )
    in
    Arg.(value & opt policy_conv None
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Scheduling policy: $(b,fair), $(b,priority), $(b,srw) or $(b,all) (default).")
  in
  let contention =
    Arg.(value & flag
         & info [ "contention" ]
             ~doc:"Also re-optimize the pool under the workload's expected pressure and report which queries switch to lower-work plans.")
  in
  let seed =
    Arg.(value & opt int 7
         & info [ "seed" ] ~docv:"SEED" ~doc:"Seed of the pool and the stream.")
  in
  let run () tables pool n arrival rate burst_size burst_period policy
      contention seed nodes =
    if n <= 0 then `Error (false, "--queries must be > 0")
    else begin
      let machine = Parqo.Machine.shared_nothing ~nodes () in
      let catalog, queries =
        Parqo.Workloads.serving_pool ~n_tables:tables ~pool ~seed ()
      in
      let budget = Parqo.Budget.expansions 20_000 in
      let config = Parqo.Space.parallel_config machine in
      let plans = Hashtbl.create 32 in
      let plan_of q =
        let fp = Parqo.Query.fingerprint q in
        match Hashtbl.find_opt plans fp with
        | Some p -> p
        | None ->
          let env = Parqo.Env.create ~machine ~catalog ~query:q () in
          (match
             (Parqo.Optimizer.minimize_response_time ~config ~budget env)
               .Parqo.Optimizer.best
           with
          | None -> Parqo.Parqo_error.failf ~subsystem:"cli" "no plan for %s" fp
          | Some best ->
            let p = (env, best) in
            Hashtbl.add plans fp p;
            p)
      in
      let rng = Parqo.Rng.create seed in
      let picks = Array.init n (fun _ -> Parqo.Rng.pick rng queries) in
      let graphs =
        Array.map
          (fun q ->
            let env, best = plan_of q in
            Parqo.Task_graph.of_optree env best.Parqo.Costmodel.optree)
          picks
      in
      let mean_solo =
        Array.fold_left
          (fun acc g -> acc +. (Parqo.Simulator.run g).Parqo.Simulator.makespan)
          0. graphs
        /. float_of_int n
      in
      let rate = match rate with Some r -> r | None -> 1. /. mean_solo in
      let process =
        match arrival with
        | `Uniform -> Parqo.Workloads.Uniform rate
        | `Poisson -> Parqo.Workloads.Poisson rate
        | `Burst ->
          let period =
            match burst_period with Some p -> p | None -> mean_solo
          in
          Parqo.Workloads.Burst { size = burst_size; period }
      in
      let arrivals = Parqo.Workloads.arrivals rng ~process ~n in
      let jobs =
        Array.mapi
          (fun i g ->
            Sched.job ~arrival:arrivals.(i) ~priority:(Parqo.Rng.int rng 3)
              ~job_id:i g)
          graphs
      in
      let policies =
        match policy with Some p -> [ p ] | None -> Sched.all_policies
      in
      Printf.printf
        "workload: %d queries over a %d-query pool (%s, %d-node machine)\n"
        n pool
        (Parqo.Workloads.arrival_to_string process)
        nodes;
      List.iter
        (fun p ->
          let o = Sched.run ~policy:p jobs in
          let s = Sched.summarize o in
          Printf.printf
            "  %-8s mean %10.1f | p95 %10.1f | p99 %10.1f | makespan %10.1f | util %.3f\n"
            (Sched.policy_to_string p) s.Sched.mean s.Sched.p95 s.Sched.p99
            s.Sched.makespan s.Sched.utilization)
        policies;
      if contention then begin
        let nr = Parqo.Machine.n_resources machine in
        let pressure = Sched.expected_pressure ~n_resources:nr jobs in
        let peak = Array.fold_left Float.max 0. pressure in
        let switched = ref 0 and total = ref 0 in
        Hashtbl.iter
          (fun _ (env, (solo : Parqo.Costmodel.eval)) ->
            incr total;
            match
              (Parqo.Optimizer.minimize_under_contention ~config ~budget
                 ~pressure env)
                .Parqo.Optimizer.best
            with
            | Some c when c.Parqo.Costmodel.work < solo.Parqo.Costmodel.work ->
              incr switched;
              if !switched = 1 then
                Printf.printf
                  "  e.g. work %.1f -> %.1f (solo response %.1f -> %.1f)\n"
                  solo.Parqo.Costmodel.work c.Parqo.Costmodel.work
                  solo.Parqo.Costmodel.response_time
                  c.Parqo.Costmodel.response_time
            | _ -> ())
          plans;
        Printf.printf
          "contention-aware re-optimization (peak pressure %.2f): %d/%d pool queries switch to lower-work plans\n"
          peak !switched !total
      end;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:"Co-schedule a workload of optimized queries on one machine under fair-share, strict-priority or shortest-remaining-work.")
    Term.(ret (const run $ setup_logs $ tables $ pool $ n_queries $ arrival $ rate $ burst_size $ burst_period $ policy $ contention $ seed $ nodes))

(* heterogeneous degradation and elastic recovery: brownout and
   scale-out events against the static and adaptive policies *)
let hetero_cmd =
  let module M = Parqo.Machine in
  let module F = Parqo.Fault in
  let module Sim = Parqo.Simulator in
  let factor =
    Arg.(value & opt float 0.25
         & info [ "factor" ] ~docv:"F"
             ~doc:"Remaining capacity of the browned-out CPU, in (0, 1). 1 disables the slowdown scenario.")
  in
  let slow_at =
    Arg.(value & opt float 0.1
         & info [ "slow-at" ] ~docv:"FRAC"
             ~doc:"Brownout onset as a fraction of the clean makespan.")
  in
  let slow_duration =
    Arg.(value & opt float 2.0
         & info [ "slow-duration" ] ~docv:"MULT"
             ~doc:"Brownout duration as a multiple of the clean makespan.")
  in
  let grow_at =
    Arg.(value & opt float 0.3
         & info [ "grow-at" ] ~docv:"FRAC"
             ~doc:"Scale-out onset as a fraction of the clean makespan. Negative disables the scale-out scenario.")
  in
  let grow_speed =
    Arg.(value & opt float 2.0
         & info [ "grow-speed" ] ~docv:"S"
             ~doc:"Static relative speed of the CPU that joins at the scale-out onset.")
  in
  let run () shape n nodes sql factor slow_at slow_duration grow_at grow_speed =
    if factor <= 0. || factor > 1. then
      `Error (false, "--factor must be in (0, 1]")
    else if grow_speed <= 0. then `Error (false, "--grow-speed must be > 0")
    else begin
      let env, _query, machine = setup shape n nodes sql in
      let outcome = optimize_env env machine None false in
      match outcome.Parqo.Optimizer.best with
      | None -> `Error (false, "no plan found")
      | Some best ->
        let optree =
          Parqo.Expand.expand ~config:env.Parqo.Env.expand_config
            env.Parqo.Env.estimator best.Parqo.Costmodel.tree
        in
        let g = Parqo.Task_graph.of_optree env optree in
        let clean = Sim.run g in
        Printf.printf "clean makespan: %.2f\n" clean.Sim.makespan;
        let contrast what faults =
          let static_sim =
            Sim.run ~faults ~recovery:Parqo.Recovery.Restart_from_sync g
          in
          let adaptive =
            Parqo.Adaptive.simulate ~faults
              ~recovery:(Parqo.Recovery.replan ()) env
              best.Parqo.Costmodel.tree
          in
          let o = adaptive.Parqo.Adaptive.outcome in
          Printf.printf
            "%s: static %.2f | adaptive %.2f (static/adapt %.3f, %d replans)\n"
            what static_sim.Sim.makespan o.Sim.makespan
            (static_sim.Sim.makespan /. o.Sim.makespan)
            o.Sim.n_replans;
          o
        in
        if factor < 1. then begin
          (* brown out the CPU the clean run leaned on hardest *)
          let target =
            List.fold_left
              (fun acc id ->
                match acc with
                | Some a when clean.Sim.busy.(a) >= clean.Sim.busy.(id) -> acc
                | _ -> Some id)
              None (M.cpu_ids machine)
            |> Option.get
          in
          let outage =
            F.brownout ~resource:target ~at:(slow_at *. clean.Sim.makespan)
              ~duration:(slow_duration *. clean.Sim.makespan) ~factor
          in
          ignore
            (contrast
               (Printf.sprintf "brownout (cpu %d at factor %.2f)" target factor)
               { F.none with F.outages = [ outage ] })
        end;
        if grow_at >= 0. then begin
          let grow =
            {
              F.g_at = grow_at *. clean.Sim.makespan;
              g_kind = Parqo.Resource.Cpu;
              g_node = 0;
              g_speed = grow_speed;
            }
          in
          let o =
            contrast
              (Printf.sprintf "scale-out (speed-%.1f cpu at %.2f of makespan)"
                 grow_speed grow_at)
              { F.none with F.grows = [ grow ] }
          in
          let grown_id = M.n_resources machine in
          if Array.length o.Sim.busy > grown_id then
            Printf.printf "grown resource %d delivered work: %.2f\n" grown_id
              o.Sim.busy.(grown_id)
        end;
        `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "hetero"
       ~doc:"Measure static vs adaptive recovery when the machine slows down (brownout) or grows back (scale-out) mid-query.")
    Term.(ret (const run $ setup_logs $ shape $ n_relations $ nodes $ sql
               $ factor $ slow_at $ slow_duration $ grow_at $ grow_speed))

let main =
  let doc = "parallel query optimizer (SIGMOD 1992 reproduction)" in
  Cmd.group (Cmd.info "parqo" ~doc)
    [ optimize_cmd; explain_cmd; simulate_cmd; sweep_cmd; gen_cmd; run_cmd;
      serve_cmd; sched_cmd; hetero_cmd ]

(* structured runtime errors print as one line, never as a backtrace *)
let () =
  try exit (Cmd.eval main)
  with Parqo.Parqo_error.Error e ->
    prerr_endline (Parqo.Parqo_error.to_string e);
    exit 3
