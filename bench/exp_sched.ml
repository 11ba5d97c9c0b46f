(* E22 — co-scheduling the workload, not the query.

   A pool of optimized plans (the serving pool's queries, each lowered
   to its task graph) arrives as a Poisson stream on one 4-node machine
   and is co-scheduled under fair-share, strict-priority and
   shortest-remaining-work.  Reported per cell: mean/p95/p99 response
   time, makespan and utilization.

   Three invariants are enforced, not just reported:
   - utilization never exceeds 1 and per-resource busy time equals the
     work the jobs offered (busy conservation) in every cell;
   - a single-query workload replays [Simulator.run] bit-for-bit
     (Int64-bit float equality), under every policy;
   - shortest-remaining-work beats fair-share on mean response time at
     the saturating intensity (SRPT's classic advantage).

   The event loop's allocation is gated as well: [Scheduler.run]'s
   minor words per trace event, at 5, 10 and 40 jobs under every
   policy, must stay under a fixed ceiling, so they cannot grow with
   the batch; and so must [Simulator.run]'s, a one-job run of the same
   loop, on faulted runs of the plan library.  Allocation on one domain
   is a deterministic count.

   The second half measures the work-bound dual under contention: a
   probe query's solo-optimal (lowest-response-time) plan against its
   low-work plan, co-scheduled with growing burst backgrounds.  Alone,
   the solo-optimal plan wins; under contention the ordering must flip
   — the measured crossover — and [Optimizer.minimize_under_contention]
   fed the scheduler's [expected_pressure] must pick a low-work plan at
   the top pressure.

   Results go to BENCH_sched.json, with the machine they were measured
   on.  PARQO_SMOKE=1 shrinks the workload so CI gates stay fast, and
   writes nothing. *)

module T = Parqo.Tableau
module Sched = Parqo.Scheduler
module Sim = Parqo.Simulator
module TG = Parqo.Task_graph
module Cm = Parqo.Costmodel
module O = Parqo.Optimizer

let smoke = Common.smoke
let bits = Int64.bits_of_float

(* ceiling on [Scheduler.run]'s minor words per trace event, at every
   batch size and policy: about 1.2x the largest figure when it was set
   (95.9 in smoke mode, 93.6 in full), which repeats exactly from run to
   run.  An event loop that rescanned every job and built per-resource
   lists at each event allocated 2 189 / 3 667 / 12 273 words per event
   at 5 / 10 / 40 fair-share jobs of the smoke workload. *)
let words_per_event_ceiling = 115.

(* ceiling on [Simulator.run]'s minor words per trace event on faulted
   runs, in every fault case: about 1.2x the largest figure when it was
   set (237.2 in smoke mode, 229.6 in full).  A simulator with an event
   loop of its own, which rebuilt its per-task state at each event,
   allocated about 1 165 words per event on perfbench's faulted
   replays. *)
let faulted_words_per_event_ceiling = 285.

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "E22 FAILED: %s\n" msg;
      exit 1)
    fmt

type cell = {
  policy : string;
  intensity : string;
  rate : float;
  n_jobs : int;
  mean : float;
  p95 : float;
  p99 : float;
  makespan : float;
  util : float;
}

type xover = {
  background : int;
  peak_pressure : float;
  rt_response : float;
  work_response : float;
  chosen_work : float;
  chosen_rt : float;
}

let json_of_cell c =
  Printf.sprintf
    "  {\"policy\": %S, \"intensity\": %S, \"rate\": %.6f, \"n_jobs\": %d, \
     \"mean\": %.3f, \"p95\": %.3f, \"p99\": %.3f, \"makespan\": %.3f, \
     \"utilization\": %.4f}"
    c.policy c.intensity c.rate c.n_jobs c.mean c.p95 c.p99 c.makespan c.util

let json_of_xover x =
  Printf.sprintf
    "  {\"background\": %d, \"peak_pressure\": %.4f, \"rt_response\": %.3f, \
     \"work_response\": %.3f, \"chosen_work\": %.3f, \"chosen_rt\": %.3f}"
    x.background x.peak_pressure x.rt_response x.work_response x.chosen_work
    x.chosen_rt

let write_json path ~probe_rt ~probe_work cells xovers =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
     \"schema\": {\"policies\": [\"policy\", \"intensity\", \"rate\", \
     \"n_jobs\", \"mean\", \"p95\", \"p99\", \"makespan\", \
     \"utilization\"], \"crossover\": [\"background\", \"peak_pressure\", \
     \"rt_response\", \"work_response\", \"chosen_work\", \"chosen_rt\"]},\n\
     \"machine\": %s,\n\
     \"smoke\": %b,\n\
     \"probe\": {\"rt_plan_work\": %.3f, \"work_plan_work\": %.3f},\n\
     \"policies\": [\n\
     %s\n\
     ],\n\
     \"crossover\": [\n\
     %s\n\
     ]}\n"
    (Common.machine_json ()) smoke probe_rt probe_work
    (String.concat ",\n" (List.map json_of_cell cells))
    (String.concat ",\n" (List.map json_of_xover xovers));
  close_out oc

(* busy conservation: every demanded unit of work — and only that —
   lands on its resource *)
let check_conservation ~ctx (jobs : Sched.job array) (o : Sched.outcome) =
  if Sched.utilization o > 1. +. 1e-9 then
    fail "%s: utilization %.6f > 1" ctx (Sched.utilization o);
  let nr = Array.length o.Sched.busy in
  let offered = Array.make nr 0. in
  Array.iter
    (fun (j : Sched.job) ->
      Array.iter
        (fun (s : TG.stage) ->
          List.iter
            (fun (task : TG.task) ->
              Array.iteri
                (fun r d -> offered.(r) <- offered.(r) +. d)
                task.TG.demands)
            s.TG.tasks)
        j.Sched.graph.TG.stages)
    jobs;
  for r = 0 to nr - 1 do
    if Float.abs (o.Sched.busy.(r) -. offered.(r))
       > 1e-6 *. Float.max 1. offered.(r)
    then
      fail "%s: busy conservation broken on r%d (busy %.6f, offered %.6f)"
        ctx r o.Sched.busy.(r) offered.(r)
  done

let optimize_graph ~budget env =
  let config = Parqo.Space.parallel_config env.Parqo.Env.machine in
  match (O.minimize_response_time ~config ~budget env).O.best with
  | Some best -> (best, TG.of_optree env best.Cm.optree)
  | None -> fail "optimizer returned no plan"

let run () =
  Printf.printf "E22: workload co-scheduling %s\n"
    (if smoke then "[smoke mode]" else "");
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let nr = Parqo.Machine.n_resources machine in
  (* Each search phase gets the budget, the work phase included: it must
     fit the probes' work phases (star-5's takes 8 553 expansions), or
     the contended optimizer falls back to greedy's plan. *)
  let budget = Parqo.Budget.expansions 20_000 in
  let catalog, pool = Parqo.Workloads.serving_pool ~seed:7 () in
  (* one graph per distinct fingerprint: the workload's plan library *)
  let tbl_graphs = Hashtbl.create 32 in
  let graph_of q =
    let fp = Parqo.Query.fingerprint q in
    match Hashtbl.find_opt tbl_graphs fp with
    | Some g -> g
    | None ->
      let env = Parqo.Env.create ~machine ~catalog ~query:q () in
      let _, g = optimize_graph ~budget env in
      Hashtbl.add tbl_graphs fp g;
      g
  in
  let rng = Parqo.Rng.create 29 in
  let n_jobs = if smoke then 10 else 30 in
  let queries = Array.init n_jobs (fun _ -> Parqo.Rng.pick rng pool) in
  let graphs = Array.map graph_of queries in
  let priorities = Array.init n_jobs (fun _ -> Parqo.Rng.int rng 3) in

  (* invariant: a single-query workload is Simulator.run, bit for bit *)
  for i = 0 to min 2 (n_jobs - 1) do
    let solo = Sim.run graphs.(i) in
    List.iter
      (fun policy ->
        let o = Sched.run ~policy [| Sched.job ~job_id:0 graphs.(i) |] in
        if
          bits o.Sched.makespan <> bits solo.Sim.makespan
          || Array.exists2
               (fun a b -> bits a <> bits b)
               o.Sched.busy solo.Sim.busy
        then
          fail "single-query %d not bit-identical to Simulator.run under %s" i
            (Sched.policy_to_string policy))
      Sched.all_policies
  done;

  let mean_solo =
    Array.fold_left (fun acc g -> acc +. (Sim.run g).Sim.makespan) 0. graphs
    /. float_of_int n_jobs
  in
  (* arrivals per mean solo makespan: 0.3 is sparse, 3 saturates *)
  let intensities =
    [ ("light", 0.3 /. mean_solo); ("heavy", 3.0 /. mean_solo) ]
  in
  let tbl =
    T.create ~title:"E22: co-scheduling policies under load"
      ~columns:
        [
          ("policy", T.Left);
          ("intensity", T.Left);
          ("jobs", T.Right);
          ("mean", T.Right);
          ("p95", T.Right);
          ("p99", T.Right);
          ("makespan", T.Right);
          ("util", T.Right);
        ]
  in
  let cells = ref [] in
  let mean_of = Hashtbl.create 8 in
  List.iter
    (fun (intensity, rate) ->
      let arng = Parqo.Rng.create 31 in
      let arrivals =
        Parqo.Workloads.arrivals arng
          ~process:(Parqo.Workloads.Poisson rate) ~n:n_jobs
      in
      List.iter
        (fun policy ->
          let jobs =
            Array.mapi
              (fun i g ->
                Sched.job ~arrival:arrivals.(i) ~priority:priorities.(i)
                  ~job_id:i g)
              graphs
          in
          let o = Sched.run ~policy jobs in
          let name = Sched.policy_to_string policy in
          check_conservation ~ctx:(name ^ "/" ^ intensity) jobs o;
          let s = Sched.summarize o in
          Hashtbl.replace mean_of (name, intensity) s.Sched.mean;
          T.add_row tbl
            [
              name;
              intensity;
              string_of_int n_jobs;
              T.cell_float s.Sched.mean;
              T.cell_float s.Sched.p95;
              T.cell_float s.Sched.p99;
              T.cell_float s.Sched.makespan;
              Printf.sprintf "%.3f" s.Sched.utilization;
            ];
          cells :=
            {
              policy = name;
              intensity;
              rate;
              n_jobs;
              mean = s.Sched.mean;
              p95 = s.Sched.p95;
              p99 = s.Sched.p99;
              makespan = s.Sched.makespan;
              util = s.Sched.utilization;
            }
            :: !cells)
        Sched.all_policies)
    intensities;
  T.print tbl;
  (* invariant: SRPT lifted to DAGs still beats processor sharing on
     mean response where it matters — under saturation *)
  let mean name intensity = Hashtbl.find mean_of (name, intensity) in
  if mean "srw" "heavy" > mean "fair" "heavy" *. 1.001 then
    fail "srw mean %.3f exceeds fair-share mean %.3f at heavy load"
      (mean "srw" "heavy") (mean "fair" "heavy");

  (* ---------------------------------------------------------------- *)
  (* the event loop's allocation per trace event, at growing batch
     sizes: heavy Poisson arrivals over the plan library.  Allocation
     on one domain is a deterministic count, and it must not grow with
     the number of jobs in the batch. *)
  let wtbl =
    T.create ~title:"E22: Scheduler.run minor words per trace event"
      ~columns:
        [ ("jobs", T.Right); ("policy", T.Left); ("events", T.Right); ("words/event", T.Right) ]
  in
  List.iter
    (fun k ->
      let arrivals =
        Parqo.Workloads.arrivals (Parqo.Rng.create 37)
          ~process:(Parqo.Workloads.Poisson (3.0 /. mean_solo)) ~n:k
      in
      let jobs =
        Array.init k (fun i ->
            Sched.job ~arrival:arrivals.(i) ~priority:priorities.(i mod n_jobs)
              ~job_id:i graphs.(i mod n_jobs))
      in
      List.iter
        (fun policy ->
          let before = Gc.minor_words () in
          let o = Sched.run ~policy jobs in
          let words = Gc.minor_words () -. before in
          let n_events = List.length o.Sched.trace in
          let per_event = words /. float_of_int n_events in
          T.add_row wtbl
            [
              string_of_int k;
              Sched.policy_to_string policy;
              string_of_int n_events;
              Printf.sprintf "%.1f" per_event;
            ];
          if per_event > words_per_event_ceiling then
            fail "%d %s jobs: Scheduler.run allocates %.1f minor words per trace \
                  event, over the %.0f ceiling"
              k (Sched.policy_to_string policy) per_event words_per_event_ceiling)
        Sched.all_policies)
    [ 5; 10; 40 ];
  T.print wtbl;

  (* [Simulator.run] is a one-job run of the same loop; its allocation
     per trace event on faulted runs of the plan library: fail-stops at
     rate 0.2 under stage restart (as perfbench's simulate op replays
     them), the same under task retry, and a brownout plus a full outage
     under restart-from-sync. *)
  let ftbl =
    T.create ~title:"E22: Simulator.run minor words per trace event, faulted"
      ~columns:
        [
          ("faults", T.Left);
          ("recovery", T.Left);
          ("events", T.Right);
          ("words/event", T.Right);
        ]
  in
  let rate seed = Parqo.Fault.default ~seed ~fault_rate:0.2 () in
  let outages seed span =
    {
      (rate seed) with
      Parqo.Fault.outages =
        [
          Parqo.Fault.brownout ~resource:0 ~at:(0.2 *. span)
            ~duration:(0.4 *. span) ~factor:0.5;
          { Parqo.Fault.resource = 1; at = 0.5 *. span; duration = 0.2 *. span; factor = 0. };
        ];
    }
  in
  List.iter
    (fun (faults_name, recovery, config) ->
      let words = ref 0. and n_events = ref 0 in
      Array.iteri
        (fun seed g ->
          let faults = config seed (Sim.run g).Sim.makespan in
          let before = Gc.minor_words () in
          let o = Sim.run ~faults ~recovery g in
          words := !words +. (Gc.minor_words () -. before);
          n_events := !n_events + List.length o.Sim.trace)
        graphs;
      let per_event = !words /. float_of_int !n_events in
      T.add_row ftbl
        [
          faults_name;
          Parqo.Recovery.to_string recovery;
          string_of_int !n_events;
          Printf.sprintf "%.1f" per_event;
        ];
      if per_event > faulted_words_per_event_ceiling then
        fail
          "%s under %s: Simulator.run allocates %.1f minor words per trace \
           event, over the %.0f ceiling"
          faults_name
          (Parqo.Recovery.to_string recovery)
          per_event faulted_words_per_event_ceiling)
    [
      ("rate 0.2", Parqo.Recovery.Restart_stage, fun seed _ -> rate seed);
      ("rate 0.2", Parqo.Recovery.retry_task (), fun seed _ -> rate seed);
      ("brownout + outage", Parqo.Recovery.Restart_from_sync, outages);
    ];
  T.print ftbl;

  (* ---------------------------------------------------------------- *)
  (* the work-bound dual under contention.  Not every query exhibits
     the trade (partitioned sorts can make the parallel plan cheaper in
     total work too), so scan a few probe shapes for one whose low-work
     plan genuinely loses the empty machine. *)
  let probe_specs =
    let open Parqo.Query_gen in
    [
      default_spec Chain 5;
      default_spec Star 5;
      { (default_spec Chain 5) with card_skew = 1.0 };
      { (default_spec Star 5) with card_skew = 1.0 };
      default_spec Cycle 5;
      { (default_spec Chain 4) with base_card = 4000. };
    ]
  in
  let config = Parqo.Space.parallel_config machine in
  let try_spec spec =
    let probe_catalog, probe_query = Parqo.Query_gen.generate spec in
    let env =
      Parqo.Env.create ~machine ~catalog:probe_catalog ~query:probe_query ()
    in
    let rt_plan, rt_graph = optimize_graph ~budget env in
    (* low-work candidates: the sequential System R space (degree 1, no
       cloning/repartition overhead — the paper's §2 dual) and the
       parallel work phase *)
    let work_candidates =
      List.filter_map
        (fun (o : O.outcome) -> o.O.best)
        [
          O.minimize_work_with_orders ~config:Parqo.Space.default_config env;
          O.minimize_work ~config env;
        ]
    in
    let work_plan =
      match
        List.sort
          (fun (a : Cm.eval) b -> Float.compare a.Cm.work b.Cm.work)
          work_candidates
      with
      | w :: _ -> w
      | [] -> fail "work optimizer returned no plan"
    in
    let work_graph = TG.of_optree env work_plan.Cm.optree in
    let solo_rt = (Sim.run rt_graph).Sim.makespan in
    let solo_work = (Sim.run work_graph).Sim.makespan in
    if work_plan.Cm.work < rt_plan.Cm.work *. 0.98 && solo_rt < solo_work
    then Some (spec, env, rt_plan, rt_graph, work_plan, work_graph)
    else None
  in
  let spec, env, rt_plan, rt_graph, work_plan, work_graph =
    match List.find_map try_spec probe_specs with
    | Some p -> p
    | None ->
      fail "no probe shape exhibits the work/response dual: nothing to measure"
  in
  Printf.printf
    "probe: %s-%d (skew %.1f) — rt plan work %.1f, low-work plan work %.1f\n"
    (Parqo.Query_gen.shape_to_string spec.Parqo.Query_gen.shape)
    spec.Parqo.Query_gen.n spec.Parqo.Query_gen.card_skew rt_plan.Cm.work
    work_plan.Cm.work;
  (* background residents drawn from the probe's own family (slightly
     varied cardinalities, each on its solo-optimal plan) so their works
     interleave with the probe's two plans — SRW ranks by remaining
     work, so the work gap must buy real queue positions *)
  let bg_graphs =
    Array.map
      (fun b ->
        let c, q =
          Parqo.Query_gen.generate { spec with Parqo.Query_gen.base_card = b }
        in
        let benv = Parqo.Env.create ~machine ~catalog:c ~query:q () in
        snd (optimize_graph ~budget benv))
      [| 700.; 800.; 900.; 1100.; 1200.; 1300. |]
  in
  let levels = if smoke then [ 0; 24 ] else [ 0; 8; 24 ] in
  let xtbl =
    T.create ~title:"E22: low-work plan vs solo-optimal plan under contention"
      ~columns:
        [
          ("background", T.Right);
          ("pressure", T.Right);
          ("rt-plan resp", T.Right);
          ("work-plan resp", T.Right);
          ("winner", T.Left);
          ("chosen work", T.Right);
        ]
  in
  let xovers = ref [] in
  List.iter
    (fun k ->
      let background =
        Array.init k (fun i ->
            Sched.job ~job_id:(i + 1)
              bg_graphs.(i mod Array.length bg_graphs))
      in
      let probe_response g =
        let jobs = Array.append [| Sched.job ~job_id:0 g |] background in
        let o = Sched.run ~policy:Sched.Shortest_remaining_work jobs in
        check_conservation ~ctx:(Printf.sprintf "crossover k=%d" k) jobs o;
        (Array.get o.Sched.jobs 0).Sched.response
      in
      let rt_resp = probe_response rt_graph in
      let work_resp = probe_response work_graph in
      let pressure = Sched.expected_pressure ~n_resources:nr background in
      let peak = Array.fold_left Float.max 0. pressure in
      (* plan choice fed by the measured contention signal *)
      let chosen =
        match (O.minimize_under_contention ~config ~budget ~pressure env).O.best with
        | Some best -> best
        | None -> fail "contended optimizer returned no plan"
      in
      T.add_row xtbl
        [
          string_of_int k;
          Printf.sprintf "%.3f" peak;
          T.cell_float rt_resp;
          T.cell_float work_resp;
          (if work_resp < rt_resp then "low-work" else "solo-optimal");
          T.cell_float chosen.Cm.work;
        ];
      xovers :=
        {
          background = k;
          peak_pressure = peak;
          rt_response = rt_resp;
          work_response = work_resp;
          chosen_work = chosen.Cm.work;
          chosen_rt = chosen.Cm.response_time;
        }
        :: !xovers;
      if k = 0 && rt_resp > work_resp +. 1e-9 then
        fail "solo-optimal plan lost the empty-machine case (%.3f vs %.3f)"
          rt_resp work_resp;
      if k = List.fold_left max 0 levels then begin
        (* the measured crossover: under contention the low-work plan
           must beat the solo-optimal plan... *)
        if work_resp >= rt_resp then
          fail "no crossover at background %d (%.3f vs %.3f)" k work_resp
            rt_resp;
        (* ...and the contention-aware optimizer must choose low work *)
        if chosen.Cm.work > work_plan.Cm.work *. 1.05 then
          fail
            "contended optimizer kept a high-work plan (%.3f, low-work %.3f)"
            chosen.Cm.work work_plan.Cm.work
      end)
    levels;
  T.print xtbl;
  Common.write_results "BENCH_sched.json"
    ~what:
      (Printf.sprintf "%d cells, %d crossover levels" (List.length !cells)
         (List.length !xovers))
    (fun path ->
      write_json path ~probe_rt:rt_plan.Cm.work ~probe_work:work_plan.Cm.work
        (List.rev !cells) (List.rev !xovers))
