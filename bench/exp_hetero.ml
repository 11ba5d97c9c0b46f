(* E23 — heterogeneous degradation and elastic recovery.

   Machines do not only fail: they slow down (brownouts) and grow back
   (scale-out).  This experiment measures both halves of the elastic
   story against the adaptive re-planner:

   - slowdown sweep: a long brownout throttles the busiest CPU to a
     range of remaining-capacity factors.  The static baseline
     (Restart_from_sync) grinds through the slow window; the adaptive
     run replans on the Slowdown trigger, re-placing work on the
     machine rescaled to the observed speeds.
   - scale-out sweep: a fast CPU joins mid-run at a range of onsets.
     The static baseline cannot use a resource its plan never named;
     the adaptive run replans on the Scale_out trigger and splices a
     plan whose placement covers the grown id — measured directly as
     delivered work (busy) on the new resource.

   Three invariants are enforced, not just reported:
   - with no machine events, the Replan policy is bit-identical to the
     clean simulator, and an all-nominal rescale ([speed 1.0]
     everywhere) leaves the optimizer's chosen cost bit-identical;
   - adaptive beats static on at least one slowdown severity;
   - at least one scale-out scenario delivers work on the grown
     resource (post-splice utilization > 0).

   A fourth check is analytic: on a heterogeneous machine every costed
   operator's CPU demand obeys the balance bound — the largest
   per-resource time coordinate equals [(W/k) / s_min] over the k
   fastest CPUs and is never below [W / sum of chosen speeds] (the
   AM-HM lower bound; slowest-clone-dominates).

   Results go to BENCH_hetero.json.  PARQO_SMOKE=1 shrinks the sweep
   (chain only, one severity, one onset) so CI gates stay fast, and
   writes nothing. *)

module T = Parqo.Tableau
module Cm = Parqo.Costmodel
module TG = Parqo.Task_graph
module Sim = Parqo.Simulator
module M = Parqo.Machine
module R = Parqo.Resource
module F = Parqo.Fault

let smoke = Common.smoke

type run = {
  part : string;  (** ["slowdown"] or ["scaleout"] *)
  workload : string;
  param : float;  (** brownout factor, or grow onset / clean makespan *)
  clean_makespan : float;
  static_makespan : float;
  adaptive_makespan : float;
  improvement : float;  (** static / adaptive *)
  grown_busy : float;  (** delivered work on the grown resource *)
  n_replans : int;
}

let json_of_run r =
  Printf.sprintf
    "  {\"part\": %S, \"workload\": %S, \"param\": %.3f, \
     \"clean_makespan\": %.3f, \"static_makespan\": %.3f, \
     \"adaptive_makespan\": %.3f, \"improvement\": %.3f, \
     \"grown_busy\": %.3f, \"n_replans\": %d}"
    r.part r.workload r.param r.clean_makespan r.static_makespan
    r.adaptive_makespan r.improvement r.grown_busy r.n_replans

let write_json path runs =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\"schema\": [\"part\", \"workload\", \"param\", \"clean_makespan\", \
     \"static_makespan\", \"adaptive_makespan\", \"improvement\", \
     \"grown_busy\", \"n_replans\"],\n\
     \"smoke\": %b,\n\"runs\": [\n%s\n]}\n"
    smoke
    (String.concat ",\n" (List.map json_of_run runs));
  close_out oc

let optimize env =
  let config = Parqo.Space.parallel_config env.Parqo.Env.machine in
  match
    (Parqo.Optimizer.minimize_response_time ~config env).Parqo.Optimizer.best
  with
  | Some b -> b
  | None -> failwith "E23: no plan found"

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
         "E23: %s event-free Replan diverged from the clean simulator" name)

(* the compatibility contract: rescaling every resource to 1.0 is a
   no-op down to the bit — same chosen plan cost, same total work *)
let check_nominal_rescale name machine catalog query (best : Cm.eval) =
  let nominal =
    M.rescale machine
      ~speeds:(List.init (M.n_resources machine) (fun i -> (i, 1.0)))
  in
  let env = Parqo.Env.create ~machine:nominal ~catalog ~query () in
  let best' = optimize env in
  if
    bits best'.Cm.response_time <> bits best.Cm.response_time
    || bits best'.Cm.work <> bits best.Cm.work
  then
    failwith
      (Printf.sprintf
         "E23: %s all-nominal rescale changed the optimizer's answer" name)

(* Frisk et al.'s balance bound, checked over every operator of a plan
   costed on a heterogeneous machine: CPU demand lands on the k fastest
   CPUs in equal work shares, so the largest time coordinate is
   [(W/k) / s_min] — and the AM-HM inequality says no placement of the
   same work on the same CPUs finishes faster than [W / sum of speeds]. *)
let check_balance_bound env machine root =
  let cpu_ids = M.cpu_ids machine in
  let checked = ref 0 in
  let rec walk (node : Parqo.Op.node) =
    let d =
      Parqo.Opcost.base env.Parqo.Env.placement env.Parqo.Env.estimator node
    in
    let wv = Parqo.Descriptor.work_vector d in
    let coords =
      List.filter_map
        (fun id ->
          let w = Parqo.Vecf.get wv id in
          if w > 1e-12 then Some (id, w) else None)
        cpu_ids
    in
    (match coords with
    | [] -> ()
    | _ ->
      let k = List.length coords in
      let total = List.fold_left (fun a (id, w) -> a +. (w *. M.speed machine id)) 0. coords in
      let sum_s = List.fold_left (fun a (id, _) -> a +. M.speed machine id) 0. coords in
      let s_min =
        List.fold_left (fun a (id, _) -> Float.min a (M.speed machine id))
          infinity coords
      in
      let max_t = List.fold_left (fun a (_, w) -> Float.max a w) 0. coords in
      let tol = 1e-6 *. Float.max 1. max_t in
      if max_t +. tol < total /. sum_s then
        failwith "E23: operator beat the heterogeneous balance bound";
      if Float.abs (max_t -. (total /. float_of_int k /. s_min)) > tol then
        failwith "E23: slowest chosen clone does not dominate the stage";
      incr checked);
    List.iter walk node.Parqo.Op.children
  in
  walk root;
  !checked

let run () =
  Common.header
    "E23 — heterogeneous degradation and elastic recovery (speed sweep)"
    [
      "slowdown: a long brownout throttles the busiest CPU; static grinds";
      "through the slow window, adaptive replans on the Slowdown trigger";
      "with work re-placed on the rescaled machine.  scaleout: a fast CPU";
      "joins mid-run; adaptive replans on Scale_out and splices a plan";
      "that delivers work on the grown resource (static cannot).";
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
  let factors = if smoke then [ 0.1 ] else [ 0.5; 0.25; 0.1 ] in
  let onsets = if smoke then [ 0.3 ] else [ 0.2; 0.5 ] in
  let tbl =
    T.create
      ~title:"R23. makespan: static vs adaptive under brownouts and scale-out"
      ~columns:
        [
          ("part", T.Left);
          ("workload", T.Left);
          ("param", T.Right);
          ("clean", T.Right);
          ("static", T.Right);
          ("adaptive", T.Right);
          ("static/adapt", T.Right);
          ("grown busy", T.Right);
          ("replans", T.Right);
        ]
  in
  let runs = ref [] in
  let slow_improved = ref false in
  let grown_used = ref false in
  List.iter
    (fun (name, shape, n) ->
      let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
      let catalog, query =
        Parqo.Query_gen.generate (Parqo.Query_gen.default_spec shape n)
      in
      let env = Common.env_for ~machine catalog query in
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
      check_nominal_rescale name machine catalog query best;
      (* the CPU the clean run leaned on hardest: browning it out is the
         worst case for a static plan and the best case for re-placement *)
      let target =
        List.fold_left
          (fun acc id ->
            match acc with
            | Some a when clean.Sim.busy.(a) >= clean.Sim.busy.(id) -> acc
            | _ -> Some id)
          None (M.cpu_ids machine)
      in
      let target = Option.get target in
      let record part param static_mk (a : Parqo.Adaptive.result) grown_busy =
        let o = a.Parqo.Adaptive.outcome in
        let row =
          {
            part;
            workload = name;
            param;
            clean_makespan = clean.Sim.makespan;
            static_makespan = static_mk;
            adaptive_makespan = o.Sim.makespan;
            improvement = static_mk /. o.Sim.makespan;
            grown_busy;
            n_replans = o.Sim.n_replans;
          }
        in
        runs := row :: !runs;
        T.add_row tbl
          [
            part;
            name;
            Common.cell ~decimals:2 param;
            Common.cell row.clean_makespan;
            Common.cell row.static_makespan;
            Common.cell row.adaptive_makespan;
            Common.cell ~decimals:3 row.improvement;
            Common.cell row.grown_busy;
            Common.celli row.n_replans;
          ];
        row
      in
      List.iter
        (fun factor ->
          let outage =
            F.brownout ~resource:target ~at:(0.1 *. clean.Sim.makespan)
              ~duration:(2.0 *. clean.Sim.makespan) ~factor
          in
          let faults = { F.none with F.outages = [ outage ] } in
          let static_sim =
            Sim.run ~faults ~recovery:Parqo.Recovery.Restart_from_sync g
          in
          let adaptive =
            Parqo.Adaptive.simulate ~faults
              ~recovery:(Parqo.Recovery.replan ()) env best.Cm.tree
          in
          let row = record "slowdown" factor static_sim.Sim.makespan adaptive 0. in
          if row.adaptive_makespan < row.static_makespan then
            slow_improved := true)
        factors;
      List.iter
        (fun onset ->
          let grow =
            {
              F.g_at = onset *. clean.Sim.makespan;
              g_kind = R.Cpu;
              g_node = 0;
              (* a faster replacement joining: placement ranks it first,
                 so any replanned clone covers it *)
              g_speed = 2.0;
            }
          in
          let faults = { F.none with F.grows = [ grow ] } in
          let static_sim =
            Sim.run ~faults ~recovery:Parqo.Recovery.Restart_from_sync g
          in
          let adaptive =
            Parqo.Adaptive.simulate ~faults
              ~recovery:(Parqo.Recovery.replan ()) env best.Cm.tree
          in
          let grown_id = M.n_resources machine in
          let o = adaptive.Parqo.Adaptive.outcome in
          let grown_busy =
            if Array.length o.Sim.busy > grown_id then o.Sim.busy.(grown_id)
            else 0.
          in
          let row =
            record "scaleout" onset static_sim.Sim.makespan adaptive grown_busy
          in
          if row.grown_busy > 0. then grown_used := true)
        onsets;
      T.add_rule tbl)
    workloads;
  (* the analytic check runs on a deliberately skewed machine *)
  let name, shape, n = List.hd workloads in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let hetero =
    M.rescale machine
      ~speeds:
        (List.mapi
           (fun i id -> (id, [| 1.0; 0.8; 0.5; 0.25 |].(i mod 4)))
           (M.cpu_ids machine))
  in
  let catalog, query =
    Parqo.Query_gen.generate (Parqo.Query_gen.default_spec shape n)
  in
  let envh = Common.env_for ~machine:hetero catalog query in
  let besth = optimize envh in
  let optreeh =
    Parqo.Expand.expand ~config:envh.Parqo.Env.expand_config
      envh.Parqo.Env.estimator besth.Cm.tree
  in
  let checked = check_balance_bound envh hetero optreeh in
  Printf.printf
    "balance bound verified on %s over %d CPU-bearing operators \
     (cpu speeds 1.0/0.8/0.5/0.25)\n"
    name checked;
  T.print tbl;
  if not !slow_improved then
    failwith "E23: adaptive never beat static under any brownout";
  if not !grown_used then
    failwith "E23: no scale-out scenario delivered work on the grown resource";
  Common.write_results "BENCH_hetero.json"
    ~what:(Printf.sprintf "%d runs" (List.length !runs))
    (fun path -> write_json path (List.rev !runs))
