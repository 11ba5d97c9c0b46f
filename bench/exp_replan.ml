(* E19 — adaptive re-planning vs static re-execution under outages.

   For each workload we optimize once, simulate cleanly, then inject a
   single full-loss disk outage timed to destroy the checkpoint of the
   earliest-finished non-root stage, at several severities (outage
   duration as a multiple of the clean makespan).  The static baseline
   recovers with Restart_from_sync: it re-executes the lost checkpoint
   and stalls on the dead disk until the outage expires.  The adaptive
   run ([Recovery.Replan] via {!Parqo.Adaptive.simulate}) re-optimizes
   the residual query on the degraded machine — placement avoids the
   down disk — and splices the new plan in.

   Two invariants are enforced, not just reported:
   - without faults, the Replan policy is bit-identical to the clean
     simulator (same makespan and busy bits);
   - on every workload, at least one severity has the adaptive makespan
     strictly below the static one.

   Results go to BENCH_replan.json.  PARQO_SMOKE=1 shrinks the sweep
   (chain only, one severity) so CI gates stay fast, and writes
   nothing. *)

module T = Parqo.Tableau
module Cm = Parqo.Costmodel
module TG = Parqo.Task_graph
module Sim = Parqo.Simulator

let smoke = Common.smoke

type run = {
  workload : string;
  n_relations : int;
  severity : float;  (** outage duration / clean makespan *)
  outage_resource : int;
  clean_makespan : float;
  static_makespan : float;  (** Restart_from_sync *)
  adaptive_makespan : float;  (** Replan *)
  improvement : float;  (** static / adaptive *)
  n_replans : int;
}

let json_of_run r =
  Printf.sprintf
    "  {\"workload\": %S, \"n_relations\": %d, \"severity\": %.2f, \
     \"outage_resource\": %d, \"clean_makespan\": %.3f, \
     \"static_makespan\": %.3f, \"adaptive_makespan\": %.3f, \
     \"improvement\": %.3f, \"n_replans\": %d}"
    r.workload r.n_relations r.severity r.outage_resource r.clean_makespan
    r.static_makespan r.adaptive_makespan r.improvement r.n_replans

let write_json path runs =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\"schema\": [\"workload\", \"n_relations\", \"severity\", \
     \"outage_resource\", \"clean_makespan\", \"static_makespan\", \
     \"adaptive_makespan\", \"improvement\", \"n_replans\"],\n\
     \"smoke\": %b,\n\"runs\": [\n%s\n]}\n"
    smoke
    (String.concat ",\n" (List.map json_of_run runs));
  close_out oc

let optimize env =
  let config = Parqo.Space.parallel_config env.Parqo.Env.machine in
  match (Parqo.Optimizer.minimize_response_time ~config env).Parqo.Optimizer.best with
  | Some b -> b
  | None -> failwith "E19: no plan found"

(* the checkpointed stage whose loss the outage engineers: earliest
   finished non-root stage that put work on some disk *)
let pick_target machine (g : TG.t) (clean : Sim.outcome) =
  let disk_ids = Parqo.Machine.disk_ids machine in
  let stage_disk (s : TG.stage) =
    List.find_opt
      (fun d ->
        List.exists
          (fun (t : TG.task) ->
            Array.length t.TG.demands > d && t.TG.demands.(d) > 0.)
          s.TG.tasks)
      disk_ids
  in
  let candidates =
    List.filter_map
      (fun (sid, fin) ->
        if sid = g.TG.root_stage then None
        else
          let s = g.TG.stages.(sid) in
          if s.TG.op_root = None then None
          else Option.map (fun d -> (sid, fin, d)) (stage_disk s))
      clean.Sim.stage_finish
  in
  match
    List.sort (fun (_, a, _) (_, b, _) -> compare a b) candidates
  with
  | [] -> None
  | (sid, fin, d) :: _ -> Some (sid, fin, d)

let bits = Int64.bits_of_float

let check_identity name (clean : Sim.outcome) (r : Parqo.Adaptive.result) =
  let o = r.Parqo.Adaptive.outcome in
  let same =
    bits o.Sim.makespan = bits clean.Sim.makespan
    && Array.for_all2 (fun a b -> bits a = bits b) o.Sim.busy clean.Sim.busy
    && o.Sim.n_replans = 0
  in
  if not same then
    failwith
      (Printf.sprintf
         "E19: %s fault-free Replan diverged from the clean simulator" name)

let run () =
  Common.header "E19 — adaptive re-planning vs static recovery (outage sweep)"
    [
      "A full-loss disk outage destroys a finished checkpoint.  static:";
      "Restart_from_sync re-executes it, stalling on the dead disk until";
      "the outage expires.  adaptive: Recovery.Replan re-optimizes the";
      "residual query on the degraded machine and splices the plan in.";
      "severity = outage duration / clean makespan.";
      (if smoke then "[smoke mode]" else "");
    ];
  let workloads =
    if smoke then [ ("chain", Parqo.Query_gen.Chain, 6) ]
    else
      [
        ("chain", Parqo.Query_gen.Chain, 6);
        ("star", Parqo.Query_gen.Star, 6);
        ("clique", Parqo.Query_gen.Clique, 5);
      ]
  in
  let severities = if smoke then [ 2.0 ] else [ 0.5; 1.0; 2.0 ] in
  let tbl =
    T.create ~title:"R19. makespan: static Restart_from_sync vs adaptive Replan"
      ~columns:
        [
          ("workload", T.Left);
          ("sev", T.Right);
          ("clean", T.Right);
          ("static", T.Right);
          ("adaptive", T.Right);
          ("static/adapt", T.Right);
          ("replans", T.Right);
        ]
  in
  let runs = ref [] in
  List.iter
    (fun (name, shape, n) ->
      let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
      let env = Common.shape_env ~nodes:4 shape n in
      let best = optimize env in
      let optree =
        Parqo.Expand.expand ~config:env.Parqo.Env.expand_config
          env.Parqo.Env.estimator best.Cm.tree
      in
      let g = TG.of_optree env optree in
      let clean = Sim.run g in
      check_identity name clean
        (Parqo.Adaptive.simulate ~recovery:(Parqo.Recovery.replan ()) env
           best.Cm.tree);
      match pick_target machine g clean with
      | None -> failwith (Printf.sprintf "E19: %s has no checkpointed stage" name)
      | Some (_sid, fin, disk) ->
        let improved = ref false in
        List.iter
          (fun severity ->
            let outage =
              {
                Parqo.Fault.resource = disk;
                at = fin +. (0.01 *. clean.Sim.makespan);
                duration = severity *. clean.Sim.makespan;
                factor = 0.;
              }
            in
            let faults = { Parqo.Fault.none with Parqo.Fault.outages = [ outage ] } in
            let static_sim =
              Sim.run ~faults ~recovery:Parqo.Recovery.Restart_from_sync g
            in
            let adaptive =
              Parqo.Adaptive.simulate ~faults
                ~recovery:(Parqo.Recovery.replan ()) env best.Cm.tree
            in
            let a = adaptive.Parqo.Adaptive.outcome in
            if a.Sim.makespan < static_sim.Sim.makespan then improved := true;
            let row =
              {
                workload = name;
                n_relations = n;
                severity;
                outage_resource = disk;
                clean_makespan = clean.Sim.makespan;
                static_makespan = static_sim.Sim.makespan;
                adaptive_makespan = a.Sim.makespan;
                improvement = static_sim.Sim.makespan /. a.Sim.makespan;
                n_replans = a.Sim.n_replans;
              }
            in
            runs := row :: !runs;
            T.add_row tbl
              [
                name;
                Common.cell ~decimals:1 severity;
                Common.cell row.clean_makespan;
                Common.cell row.static_makespan;
                Common.cell row.adaptive_makespan;
                Common.cell ~decimals:3 row.improvement;
                Common.celli row.n_replans;
              ])
          severities;
        T.add_rule tbl;
        if not !improved then
          failwith
            (Printf.sprintf
               "E19: adaptive never beat static recovery on %s" name))
    workloads;
  T.print tbl;
  Common.write_results "BENCH_replan.json"
    ~what:(Printf.sprintf "%d runs" (List.length !runs))
    (fun path -> write_json path (List.rev !runs))
