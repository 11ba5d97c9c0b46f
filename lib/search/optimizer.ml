module Cm = Parqo_cost.Costmodel
module Env = Parqo_cost.Env

let src = Logs.Src.create "parqo.optimizer" ~doc:"Top-level optimizer phases"

module Log = (val Logs.src_log src : Logs.LOG)

type tree_shape = Space.tree_shape = Left_deep | Bushy

type outcome = {
  best : Cm.eval option;
  work_optimal : Cm.eval option;
  cover : Cm.eval list;
  stats : Search_stats.t;
  work_stats : Search_stats.t option;
  gave_up : bool;
}

(* §6.3: keep the number of dimensions small.  The Single aggregation
   (first-tuple/residual time and total work, l = 4) plus interesting
   orders finds the same plans as finer aggregations on our workloads at a
   fraction of the cover-set size. *)
let default_metric (env : Env.t) =
  Metric.with_ordering
    (Metric.descriptor env.Env.machine Parqo_machine.Machine.Single)

let work (e : Cm.eval) = e.Cm.work

(* a search whose best plan is also its work-optimal one *)
let of_podp (r : Podp.result) =
  {
    best = r.Podp.best;
    work_optimal = r.Podp.best;
    cover = r.Podp.cover;
    stats = r.Podp.stats;
    work_stats = None;
    gave_up = r.Podp.gave_up;
  }

(* Figure 1.  Left-deep it runs on [Dp], whose incumbent bound rejects
   most candidates before they are composed; bushy it is PODP under the
   total order of work, which keeps the first least-work plan of each
   subset. *)
let work_phase ~config ~shape ?budget ?domains ?pool (env : Env.t) =
  match shape with
  | Left_deep ->
    let r = Dp.optimize ~config env in
    {
      best = r.Dp.best;
      work_optimal = r.Dp.best;
      cover = Option.to_list r.Dp.best;
      stats = r.Dp.stats;
      work_stats = None;
      gave_up = false;
    }
  | Bushy ->
    of_podp
      (Podp.optimize ~shape ~config ~metric:Metric.work ~rank:work ?budget
         ?domains ?pool env)

let minimize_work ?(config = Space.default_config) ?(shape = Left_deep)
    (env : Env.t) =
  work_phase ~config ~shape env

let minimize_work_with_orders ?(config = Space.default_config)
    ?(shape = Left_deep) ?(domains = 1) ?pool (env : Env.t) =
  of_podp
    (Podp.optimize ~shape ~config ~metric:(Metric.with_ordering Metric.work)
       ~rank:work ~domains ?pool env)

let minimize_response_time ?(config = Space.default_config)
    ?(shape = Left_deep) ?metric ?(bound = Bounds.Unbounded) ?rank
    ?(budget = Budget.unlimited) ?(domains = 1) ?pool (env : Env.t) =
  let metric = match metric with Some m -> m | None -> default_metric env in
  let rank =
    match rank with
    | Some r -> r
    | None -> fun (e : Cm.eval) -> e.Cm.response_time
  in
  let work_phase = work_phase ~config ~shape ~budget ~domains ?pool env in
  let work_optimal = work_phase.work_optimal in
  (match work_optimal with
  | Some w ->
    Log.debug (fun m ->
        m "work phase: W_o=%.3f T_o=%.3f plan=%s (%s)" w.Cm.work
          w.Cm.response_time
          (Parqo_plan.Join_tree.to_string w.Cm.tree)
          (Bounds.to_string bound))
  | None -> Log.warn (fun m -> m "work phase found no plan"));
  let work_cap, final_filter =
    match (bound, work_optimal) with
    | Bounds.Unbounded, _ | _, None -> (None, fun _ -> true)
    | _, Some wo ->
      let work_opt = wo.Cm.work and rt_opt = wo.Cm.response_time in
      ( Bounds.partial_work_cap bound ~work_opt ~rt_opt,
        Bounds.admits bound ~work_opt ~rt_opt )
  in
  let { Podp.best; cover; stats; gave_up; _ } =
    Podp.optimize ~shape ~config ?work_cap ~final_filter ~rank ~budget
      ~domains ?pool ~metric env
  in
  let gave_up = gave_up || work_phase.gave_up in
  (* A truncated search may have missed (or degraded) the answer: degrade
     gracefully to the greedy plan rather than failing or returning a
     poor partial result. *)
  let best =
    if gave_up || best = None then begin
      if gave_up then
        Log.info (fun m ->
            m "search budget exhausted: falling back to greedy");
      let greedy = (Greedy.greedy ~config ~objective:rank env).Greedy.best in
      match (best, greedy) with
      | None, g -> g
      | Some b, Some g when rank g < rank b -> Some g
      | b, _ -> b
    end
    else best
  in
  (* The work-optimal plan is always admissible: fall back to it if the
     bounded search somehow lost every candidate, and prefer it when it
     already ranks best. *)
  let best =
    match (best, work_optimal) with
    | None, wo -> wo
    | Some b, Some wo when rank wo < rank b -> Some wo
    | b, _ -> b
  in
  (* ORDER BY: re-price the final candidates with the required output
     ordering (adding the final sort where an interesting order does not
     already deliver it) and re-select under the adjusted bound *)
  (match best with
  | Some b ->
    Log.debug (fun m ->
        m "response-time phase: RT=%.3f work=%.3f cover=%d plan=%s"
          b.Cm.response_time b.Cm.work (List.length cover)
          (Parqo_plan.Join_tree.to_string b.Cm.tree))
  | None -> Log.warn (fun m -> m "response-time phase found no plan"));
  let required = Cm.required_order env in
  if required = Parqo_plan.Ordering.none then
    { best; work_optimal; cover; stats; work_stats = Some work_phase.stats;
      gave_up }
  else begin
    let adjust (e : Cm.eval) = Cm.evaluate ~required_order:required env e.Cm.tree in
    let work_optimal = Option.map adjust work_optimal in
    let cover = List.map adjust cover in
    let admits =
      match (bound, work_optimal) with
      | Bounds.Unbounded, _ | _, None -> fun _ -> true
      | _, Some wo ->
        Bounds.admits bound ~work_opt:wo.Cm.work ~rt_opt:wo.Cm.response_time
    in
    let best =
      List.filter admits cover
      |> List.fold_left
           (fun acc e ->
             match acc with
             | None -> Some e
             | Some b -> if rank e < rank b then Some e else acc)
           None
    in
    let best = (match best with None -> work_optimal | b -> b) in
    { best; work_optimal; cover; stats; work_stats = Some work_phase.stats;
      gave_up }
  end

let minimize_under_contention ?config ?shape ?bound ?budget ?domains ?pool
    ~pressure (env : Env.t) =
  minimize_response_time ?config ?shape
    ~metric:(Metric.with_ordering (Metric.contended ~pressure))
    ?bound
    ~rank:(Metric.contention_rank ~pressure)
    ?budget ?domains ?pool env
