module Env = Parqo_cost.Env
module Cm = Parqo_cost.Costmodel
module Sim = Parqo_sim.Simulator
module TG = Parqo_sim.Task_graph
module Recovery = Parqo_sim.Recovery
module Fault = Parqo_sim.Fault
module Residual = Parqo_cost.Residual
module Optimizer = Parqo_search.Optimizer
module Stats = Parqo_search.Search_stats
module M = Parqo_machine.Machine
module R = Parqo_machine.Resource
module Parqo_error = Parqo_util.Parqo_error

type replan_record = {
  at : float;
  trigger : Sim.replan_trigger;
  plan_key : string;
  considered : int;
  gave_up : bool;
  n_relations : int;
  n_checkpoints : int;
}

type result = { outcome : Sim.outcome; records : replan_record list }

let simulate ?faults ?(recovery = Recovery.replan ()) ?(domains = 1)
    ?(max_replans = 4) (env : Env.t) tree =
  let optree =
    Parqo_optree.Expand.expand ~config:env.Env.expand_config
      env.Env.estimator tree
  in
  let g = TG.of_optree env optree in
  match recovery with
  | Recovery.Replan { max_expansions; max_seconds; _ } ->
    let records = ref [] in
    (* the environment the current graph was planned in: survivors'
       op roots speak its relation ids, so each round's residual is
       built against the previous round's environment *)
    let cur_env = ref env in
    let down = ref [] in
    (* observed brownouts, resource id -> most pessimistic factor seen;
       the re-planner treats a brownout as permanent (it cannot know the
       remaining duration), so residual plans are costed — and lowered —
       on the rescaled machine.  Work a residual plan still places on a
       slowed resource is double-discounted while the window lasts; that
       pessimism is exactly what steers placement away from it. *)
    let slows = ref [] in
    (* grown dimensions take ids [base_nr + i] in onset (stable) order,
       matching the simulator's bookkeeping *)
    let grow_schedule =
      match faults with
      | None -> [||]
      | Some fc ->
        Array.of_list
          (List.stable_sort
             (fun (a : Fault.grow) b -> Float.compare a.Fault.g_at b.Fault.g_at)
             fc.Fault.grows)
    in
    let base_nr = M.n_resources env.Env.machine in
    (* the machine as observed at time [at]: base topology, plus every
       grow event online by then, minus lost resources, browned-out ones
       rescaled.  None when the surviving census cannot host a plan. *)
    let machine_at at =
      match
        let m = ref env.Env.machine in
        Array.iteri
          (fun i (gr : Fault.grow) ->
            if gr.Fault.g_at <= at +. 1e-12 then
              m :=
                M.grow ~speed:gr.Fault.g_speed !m
                  [
                    ( gr.Fault.g_kind,
                      Printf.sprintf "%s+%d"
                        (R.kind_to_string gr.Fault.g_kind)
                        (base_nr + i),
                      gr.Fault.g_node );
                  ])
          grow_schedule;
        (match !down with [] -> () | ids -> m := M.degrade !m ~down:ids);
        (match !slows with
        | [] -> ()
        | speeds -> m := M.rescale !m ~speeds);
        !m
      with
      | m -> Some m
      | exception Parqo_error.Error _ -> None
    in
    let round = ref 0 in
    let replanner (s : Sim.snapshot) =
      if !round >= max_replans then None
      else begin
        (match s.Sim.s_trigger with
        | Sim.Checkpoint_loss { resource } -> down := resource :: !down
        | Sim.Slowdown { resource; factor } ->
          let factor =
            match List.assoc_opt resource !slows with
            | None -> factor
            | Some f -> Float.min f factor
          in
          slows := (resource, factor) :: List.remove_assoc resource !slows
        | Sim.Work_inflation _ | Sim.Scale_out _ -> ());
        let survivors =
          List.filter_map
            (fun id -> s.Sim.s_graph.TG.stages.(id).TG.op_root)
            s.Sim.s_survivors
        in
        (* a graph not lowered from an operator tree cannot seed a
           residual query; decline and let Restart_from_sync handle it *)
        if List.length survivors <> List.length s.Sim.s_survivors then None
        else
          match
            match machine_at s.Sim.s_at with
            | None -> Error "machine census cannot host a plan"
            | Some machine ->
              Residual.construct !cur_env ~survivors ~machine ~round:!round
          with
          | Error _ -> None
          | Ok r -> (
            let renv = r.Residual.env in
            let budget =
              { Parqo_search.Budget.max_expansions; max_seconds; deadline = None }
            in
            let config =
              Parqo_search.Space.parallel_config renv.Env.machine
            in
            let outcome =
              Optimizer.minimize_response_time ~config ~budget ~domains renv
            in
            match outcome.Optimizer.best with
            | None -> None
            | Some best ->
              incr round;
              cur_env := renv;
              let plan_key = Parqo_plan.Join_tree.key best.Cm.tree in
              let considered =
                outcome.Optimizer.stats.Stats.considered
              in
              records :=
                {
                  at = s.Sim.s_at;
                  trigger = s.Sim.s_trigger;
                  plan_key;
                  considered;
                  gave_up = outcome.Optimizer.gave_up;
                  n_relations = r.Residual.n_relations;
                  n_checkpoints = List.length r.Residual.checkpoints;
                }
                :: !records;
              Some
                {
                  Sim.new_graph = TG.of_optree renv best.Cm.optree;
                  plan_key;
                  info =
                    Printf.sprintf
                      "%d rels, %d checkpoints, %d considered%s"
                      r.Residual.n_relations
                      (List.length r.Residual.checkpoints)
                      considered
                      (if outcome.Optimizer.gave_up then ", greedy fallback"
                       else "");
                })
      end
    in
    let outcome = Sim.run ?faults ~recovery ~replanner g in
    { outcome; records = List.rev !records }
  | _ -> { outcome = Sim.run ?faults ~recovery g; records = [] }
