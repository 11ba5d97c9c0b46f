(* simulate: what-if simulation of plans optimized during set-up, in a
   closed loop.  Each op co-schedules a seeded batch with
   [Scheduler.run] (policies in rotation, Poisson arrivals, a brownout
   machine-event list), then replays a few of the batch's jobs alone
   through [Simulator.run] under seeded faults and a recovery policy
   that does not replan.  It is the only workload where [lib/sim] does
   most of the work. *)

open Common
module Sched = Parqo.Scheduler
module Sim = Parqo.Simulator
module TG = Parqo.Task_graph

let name = "simulate"

type state = {
  graphs : TG.t array;  (** the pooled plans, lowered *)
  gap : float;  (** mean inter-arrival, in model time units *)
  batches : Oplist.batch array;
}

(* One pass, as for [W_optimize]. *)
let passes = 1

(* About 12 ms per batch on a 2-vCPU 2.1 GHz Xeon. *)
let batches_for seconds = blocks ~seconds ~passes ~per:0.012 ~min:100

let bits = Int64.bits_of_float

(* The brownouts of [b] as timed machine events over its arrival span. *)
let events st (b : Oplist.batch) =
  let horizon = b.Oplist.arrivals.(Array.length b.Oplist.arrivals - 1) *. st.gap in
  List.concat_map
    (fun (on, off, r) ->
      [
        { Sched.ev_at = on *. horizon; ev_resource = r; ev_speed = 0.5 };
        { Sched.ev_at = off *. horizon; ev_resource = r; ev_speed = 1.0 };
      ])
    b.Oplist.brownouts
  |> List.stable_sort (fun x y -> Float.compare x.Sched.ev_at y.Sched.ev_at)

let jobs st (b : Oplist.batch) =
  Array.mapi
    (fun j p ->
      Sched.job ~arrival:(b.Oplist.arrivals.(j) *. st.gap) ~priority:b.Oplist.priorities.(j)
        ~job_id:j st.graphs.(p))
    b.Oplist.plans

(* Per-resource work the jobs offer. *)
let offered n_resources (jobs : Sched.job array) =
  let o = Array.make n_resources 0. in
  Array.iter
    (fun (j : Sched.job) ->
      Array.iter
        (fun (s : TG.stage) ->
          List.iter
            (fun (t : TG.task) -> Array.iteri (fun r d -> o.(r) <- o.(r) +. d) t.TG.demands)
            s.TG.tasks)
        j.Sched.graph.TG.stages)
    jobs;
  o

(* Returns the modelled (response, work) of each completed job of one
   batch, the problems found in it and its event count. *)
let run_op span st (b : Oplist.batch) =
  let jobs = jobs st b in
  let o =
    Span.record span "Scheduler.run" (fun () ->
        Sched.run ~policy:b.Oplist.policy ~events:(events st b) jobs)
  in
  let probs = ref [] in
  if Sched.utilization o > 1. +. 1e-9 then
    probs := Printf.sprintf "utilization %.6f > 1" (Sched.utilization o) :: !probs;
  let off = offered (Array.length o.Sched.busy) jobs in
  Array.iteri
    (fun r busy ->
      if Float.abs (busy -. off.(r)) > 1e-6 *. Float.max 1. off.(r) then
        probs := Printf.sprintf "busy time not conserved on resource %d" r :: !probs)
    o.Sched.busy;
  let events = ref (List.length o.Sched.trace) in
  Array.iteri
    (fun k j ->
      let faults = Parqo.Fault.default ~seed:(b.Oplist.fault_seed + k) ~fault_rate:0.2 () in
      let s =
        Span.record span "Simulator.run" (fun () ->
            Sim.run ~faults ~recovery:Parqo.Recovery.Restart_stage
              st.graphs.(b.Oplist.plans.(j)))
      in
      if not (s.Sim.makespan > 0. && Float.is_finite s.Sim.makespan) then
        probs := "replay without a finite makespan" :: !probs;
      events := !events + List.length s.Sim.trace)
    b.Oplist.replay;
  let answers =
    Array.to_list o.Sched.jobs
    |> List.filter_map (fun (j : Sched.job_outcome) ->
           if j.Sched.disposition = Sched.Completed then Some (j.Sched.response, j.Sched.work)
           else None)
  in
  (answers, !probs, !events)

let setup ~seed ~seconds span =
  let catalog, pool = Oplist.serve_pool () in
  let queries = Array.append (Oplist.pool_class pool 2) (Oplist.pool_class pool 3) in
  let graphs =
    Array.map
      (fun q ->
        let env, plan = session_plan ~span ~catalog q in
        Span.record span "Task_graph.of_optree" (fun () ->
            TG.of_optree env plan.Cm.optree))
      queries
  in
  let solo = Array.map (fun g -> (Sim.run g).Sim.makespan) graphs in
  (* two arrivals per mean solo makespan: jobs overlap and contend *)
  let gap = Parqo.Statsu.mean (Array.to_list solo) /. 2. in
  let batches =
    Oplist.simulate_batches ~seed ~n_plans:(Array.length graphs)
      ~count:(batches_for seconds)
  in
  let st = { graphs; gap; batches } in
  Array.iter (fun b -> ignore (run_op span st b)) (Array.sub batches 0 2);
  st

let release _ = ()

let run st span =
  let a = acc () in
  let n = Array.length st.batches in
  let events = ref 0 in
  let wall_s =
    timed_passes span a ~passes ~ops:n "op.simulate"
      (fun i -> run_op span st st.batches.(i))
      (fun i (answers, probs, ev) ->
        List.iter
          (fun (r, w) ->
            a.resp <- r :: a.resp;
            a.wk <- w :: a.wk)
          answers;
        events := !events + ev;
        match probs with
        | [] -> ()
        | p :: _ -> fail_op a (Printf.sprintf "batch %d: %s" i p))
  in
  (* a one-job workload is Simulator.run, bit for bit, under every policy *)
  Array.iteri
    (fun i g ->
      let solo = Sim.run g in
      List.iter
        (fun policy ->
          let o = Sched.run ~policy [| Sched.job ~job_id:0 g |] in
          if
            bits o.Sched.makespan <> bits solo.Sim.makespan
            || Array.exists2 (fun x y -> bits x <> bits y) o.Sched.busy solo.Sim.busy
          then
            problem a
              (Printf.sprintf "plan %d: one-job %s run differs from Simulator.run" i
                 (Sched.policy_to_string policy)))
        Sched.all_policies)
    st.graphs;
  finish a ~wall_s ~attempted:n
    ~counts:[ ("sim.events_per_op", float_of_int !events /. float_of_int n) ]

let extra _ ~untraced:_ = ([], [])

(* The policy each batch ran under, in op order. *)
let detail st =
  Jsonw.Arr
    (Array.to_list
       (Array.map
          (fun (b : Oplist.batch) -> Jsonw.Str (Sched.policy_to_string b.Oplist.policy))
          st.batches))
