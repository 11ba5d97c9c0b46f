(* The reference simulator: [Simulator.run]'s earlier loops, kept
   verbatim — the failure-free concurrent loop and the fault-injected one,
   with its recovery policies and re-plan splices.  The property test
   "simulator matches the reference loop" compares [Simulator.run]
   against [run] here, every outcome field Int64-exact, or the same
   error. *)

open Parqo.Simulator
module Task_graph = Parqo.Task_graph
module Fault = Parqo.Fault
module Recovery = Parqo.Recovery
module Parqo_error = Parqo.Parqo_error
module Parqo_machine = struct
  module Resource = Parqo.Resource
end

type stage_status = Pending | Running | Done

(* at most this many splices per run, even if the replanner keeps
   volunteering — a backstop against pathological callbacks *)
let max_replans_hard = 32

let eps = 1e-9

(* ------------------------------------------------------------------ *)
(* failure-free path                                                   *)

let run_clean (g : Task_graph.t) =
  let n_stages = Array.length g.Task_graph.stages in
  let nr = g.Task_graph.n_resources in
  let status = Array.make n_stages Pending in
  let remaining_deps =
    Array.map (fun s -> ref (List.length s.Task_graph.deps)) g.Task_graph.stages
  in
  let dependents = Array.make n_stages [] in
  Array.iter
    (fun (s : Task_graph.stage) ->
      List.iter
        (fun d ->
          dependents.(d) <- s.Task_graph.stage_id :: dependents.(d))
        s.Task_graph.deps)
    g.Task_graph.stages;
  (* remaining work per task, keyed by (stage, index) *)
  let remaining =
    Array.map
      (fun (s : Task_graph.stage) ->
        Array.of_list
          (List.map
             (fun (t : Task_graph.task) -> Array.copy t.Task_graph.demands)
             s.Task_graph.tasks))
      g.Task_graph.stages
  in
  let labels =
    Array.map
      (fun (s : Task_graph.stage) ->
        Array.of_list
          (List.map (fun (t : Task_graph.task) -> t.Task_graph.label) s.Task_graph.tasks))
      g.Task_graph.stages
  in
  let busy = Array.make nr 0. in
  let time = ref 0. in
  let trace = ref [] in
  let stage_start = ref [] in
  let stage_finish = ref [] in
  let emit what = trace := { at = !time; what } :: !trace in
  let stage_done id =
    Array.for_all
      (fun demands -> Array.for_all (fun d -> d <= eps) demands)
      remaining.(id)
  in
  let rec start_ready () =
    Array.iteri
      (fun id s ->
        if status.(id) = Pending && !(remaining_deps.(id)) = 0 then begin
          status.(id) <- Running;
          stage_start := (id, !time) :: !stage_start;
          emit (Printf.sprintf "stage %d start" id);
          (* a stage with no work completes immediately *)
          if stage_done id then complete id
        end;
        ignore s)
      g.Task_graph.stages
  and complete id =
    status.(id) <- Done;
    stage_finish := (id, !time) :: !stage_finish;
    emit (Printf.sprintf "stage %d done" id);
    List.iter
      (fun dep -> decr remaining_deps.(dep))
      dependents.(id);
    start_ready ()
  in
  start_ready ();
  let all_done () = Array.for_all (fun s -> s = Done) status in
  let guard = ref 0 in
  let max_events = 1000 * (1 + n_stages) * (1 + nr) in
  while (not (all_done ())) && !guard < max_events do
    incr guard;
    (* demand counts per resource over running tasks *)
    let count = Array.make nr 0 in
    for id = 0 to n_stages - 1 do
      if status.(id) = Running then
        Array.iter
          (fun demands ->
            Array.iteri
              (fun r d -> if d > eps then count.(r) <- count.(r) + 1)
              demands)
          remaining.(id)
    done;
    (* time to next demand exhaustion *)
    let dt = ref infinity in
    for id = 0 to n_stages - 1 do
      if status.(id) = Running then
        Array.iter
          (fun demands ->
            Array.iteri
              (fun r d ->
                if d > eps then
                  dt := Float.min !dt (d *. float_of_int count.(r)))
              demands)
          remaining.(id)
    done;
    if !dt = infinity then
      (* running stages but no demand: finish them *)
      Array.iteri
        (fun id s ->
          ignore s;
          if status.(id) = Running && stage_done id then complete id)
        g.Task_graph.stages
    else begin
      let dt = !dt in
      time := !time +. dt;
      for r = 0 to nr - 1 do
        if count.(r) > 0 then busy.(r) <- busy.(r) +. dt
      done;
      (* advance all running demands *)
      for id = 0 to n_stages - 1 do
        if status.(id) = Running then
          Array.iteri
            (fun ti demands ->
              Array.iteri
                (fun r d ->
                  if d > eps then begin
                    let d' = d -. (dt /. float_of_int count.(r)) in
                    demands.(r) <- (if d' <= eps then 0. else d');
                    if d' <= eps && Array.for_all (fun x -> x <= eps) demands
                    then
                      emit
                        (Printf.sprintf "task %s done" labels.(id).(ti))
                  end)
                demands)
            remaining.(id)
      done;
      (* completions *)
      Array.iteri
        (fun id s ->
          ignore s;
          if status.(id) = Running && stage_done id then complete id)
        g.Task_graph.stages
    end
  done;
  if not (all_done ()) then
    Parqo_error.fail ~subsystem:"simulator" "did not converge";
  {
    makespan = !time;
    busy;
    total_work = Task_graph.total_work g;
    stage_start = List.rev !stage_start;
    stage_finish = List.rev !stage_finish;
    trace = List.rev !trace;
    n_faults = 0;
    n_retries = 0;
    n_replans = 0;
    replans = [];
    faults = [];
  }

(* ------------------------------------------------------------------ *)
(* fault-injected concurrent path                                      *)

(* The faulty concurrent path runs as a sequence of {e segments}: one
   task graph simulated until it either completes or — under the
   [Replan] policy, with a [replanner] callback — a fault crosses a
   sync point and a new graph for the residual query is spliced in.
   The clock, per-resource busy times, traces, fault logs and outage
   boundary bookkeeping carry across segments; task/stage state is
   per-segment.  When no splice happens the control flow and float
   operations are exactly the single-graph simulator's, so every other
   policy — and [Replan] when it never triggers — is bit-identical to
   it. *)
let run_faulty_concurrent ?replanner (g0 : Task_graph.t) (fc : Fault.config)
    policy =
  let nr = g0.Task_graph.n_resources in
  let is_replan, replan_threshold =
    match policy with
    | Recovery.Replan { threshold; _ } -> (true, threshold)
    | _ -> (false, infinity)
  in
  (* scale-out events, in onset order: each appends one resource-vector
     dimension beyond the initial graph's [nr].  A grown dimension
     delivers no capacity before its onset and nominal capacity after —
     its static speed is already folded into the demands of any graph
     lowered on the grown machine. *)
  let grows =
    Array.of_list
      (List.stable_sort
         (fun (a : Fault.grow) b -> Float.compare a.Fault.g_at b.Fault.g_at)
         fc.Fault.grows)
  in
  let n_grows = Array.length grows in
  let nr_total = nr + n_grows in
  let grow_seen = Array.make n_grows false in
  (* dimension of the current machine: [nr] plus processed grows — what
     a spliced graph must be lowered against *)
  let live_dims = ref nr in
  (* state shared across segments *)
  let busy = Array.make nr_total 0. in
  let time = ref 0. in
  let trace = ref [] in
  let faults_log = ref [] in
  let n_faults = ref 0 in
  let n_retries = ref 0 in
  let n_replans = ref 0 in
  let replans_log = ref [] in
  let total_base = ref (Task_graph.total_work g0) in
  let outages = Array.of_list fc.Fault.outages in
  let onset_seen = Array.make (Array.length outages) false in
  let expiry_seen = Array.make (Array.length outages) false in
  let emit what = trace := { at = !time; what } :: !trace in
  let log_fault f_kind ?stage ?task ?resource f_attempt =
    incr n_faults;
    faults_log :=
      {
        f_at = !time;
        f_kind;
        f_stage = stage;
        f_task = task;
        f_resource = resource;
        f_attempt;
      }
      :: !faults_log
  in
  let total_of = Array.fold_left ( +. ) 0. in
  let exception Splice of Task_graph.t in
  (* one segment; body shared verbatim with the pre-replan simulator *)
  let run_segment (g : Task_graph.t) =
  let n_stages = Array.length g.Task_graph.stages in
  let nr_seg = g.Task_graph.n_resources in
  let base =
    Array.map
      (fun (s : Task_graph.stage) ->
        Array.of_list
          (List.map (fun (t : Task_graph.task) -> t.Task_graph.demands)
             s.Task_graph.tasks))
      g.Task_graph.stages
  in
  let labels =
    Array.map
      (fun (s : Task_graph.stage) ->
        Array.of_list
          (List.map (fun (t : Task_graph.task) -> t.Task_graph.label)
             s.Task_graph.tasks))
      g.Task_graph.stages
  in
  let task_ids =
    Array.map
      (fun (s : Task_graph.stage) ->
        Array.of_list
          (List.map (fun (t : Task_graph.task) -> t.Task_graph.task_id)
             s.Task_graph.tasks))
      g.Task_graph.stages
  in
  (* a fixed absolute epsilon breaks down when demands dwarf float
     precision: at 1e11 units of work one ulp is ~1e-5, so a 1e-9
     done/failure tolerance can never be met and the event loop spins
     on sub-ulp steps until the guard trips.  Scale the tolerance to
     the segment (one part in 1e12), floored at the global [eps] so
     graphs of ordinary magnitude behave bit-identically. *)
  let eps_w = Float.max eps (1e-12 *. Task_graph.total_work g) in
  let remaining = Array.map (Array.map Array.copy) base in
  let attempt = Array.map (Array.map (fun _ -> 0)) base in
  let attempt_total = Array.map (Array.map (fun _ -> 0.)) base in
  (* work-done threshold at which the current attempt fail-stops *)
  let fail_after : float option array array =
    Array.map (Array.map (fun _ -> None)) base
  in
  let suspended_until = Array.map (Array.map (fun _ -> 0.)) base in
  let status = Array.make n_stages Pending in
  let start_t : float option array = Array.make n_stages None in
  let finish_t : float option array = Array.make n_stages None in
  (* cumulative rework this segment: straggler inflation plus work lost
     to fail-stops — feeds the [Replan] inflation trigger only *)
  let rework = ref 0. in
  let seg_base = Task_graph.total_work g in
  let stage_base_work id =
    List.fold_left
      (fun acc (t : Task_graph.task) -> acc +. total_of t.Task_graph.demands)
      0. g.Task_graph.stages.(id).Task_graph.tasks
  in
  let try_replan s_trigger ~survivors =
    match replanner with
    | Some rp when !n_replans < max_replans_hard -> (
      match
        rp { s_at = !time; s_trigger; s_graph = g; s_survivors = survivors }
      with
      | Some { new_graph; plan_key; info } ->
        incr n_replans;
        replans_log :=
          {
            rp_at = !time;
            rp_trigger = s_trigger;
            rp_plan = plan_key;
            rp_info = info;
          }
          :: !replans_log;
        emit
          (Printf.sprintf "replan %d after %s -> %s" !n_replans
             (trigger_to_string s_trigger) plan_key);
        (* keep only the surviving checkpoints' work in the useful-work
           total; the residual graph replaces the rest *)
        let survived =
          List.fold_left (fun acc id -> acc +. stage_base_work id) 0. survivors
        in
        total_base :=
          !total_base
          -. (Task_graph.total_work g -. survived)
          +. Task_graph.total_work new_graph;
        raise (Splice new_graph)
      | None -> ())
    | _ -> ()
  in
  let start_attempt sid ti =
    let a = attempt.(sid).(ti) + 1 in
    attempt.(sid).(ti) <- a;
    if a > 1 then incr n_retries;
    let d = Fault.draw fc ~stage:sid ~task:task_ids.(sid).(ti) ~attempt:a in
    let dem = Array.map (fun x -> x *. d.Fault.slowdown) base.(sid).(ti) in
    remaining.(sid).(ti) <- dem;
    let tot = total_of dem in
    attempt_total.(sid).(ti) <- tot;
    let base_tot = total_of base.(sid).(ti) in
    if tot > base_tot +. eps_w then rework := !rework +. (tot -. base_tot);
    suspended_until.(sid).(ti) <- 0.;
    fail_after.(sid).(ti) <-
      (if d.Fault.fails && tot > eps_w then Some (d.Fault.fail_point *. tot)
       else None);
    if d.Fault.slowdown > 1. +. eps then begin
      log_fault Fault.Straggler ~stage:sid ~task:labels.(sid).(ti) a;
      emit
        (Printf.sprintf "task %s straggles x%.1f (attempt %d)"
           labels.(sid).(ti) d.Fault.slowdown a)
    end
  in
  let stage_done id =
    Array.for_all (fun dem -> Array.for_all (fun d -> d <= eps_w) dem) remaining.(id)
  in
  let deps_done id =
    List.for_all
      (fun d -> status.(d) = Done)
      g.Task_graph.stages.(id).Task_graph.deps
  in
  let all_done () = Array.for_all (fun s -> s = Done) status in
  let rec start_ready () =
    for id = 0 to n_stages - 1 do
      if status.(id) = Pending && deps_done id then begin
        status.(id) <- Running;
        (match start_t.(id) with
        | None ->
          start_t.(id) <- Some !time;
          emit (Printf.sprintf "stage %d start" id)
        | Some _ -> emit (Printf.sprintf "stage %d restart" id));
        Array.iteri (fun ti _ -> start_attempt id ti) base.(id);
        if stage_done id then complete id
      end
    done
  and complete id =
    status.(id) <- Done;
    finish_t.(id) <- Some !time;
    emit (Printf.sprintf "stage %d done" id);
    start_ready ()
  in
  let work_done sid ti =
    attempt_total.(sid).(ti) -. total_of remaining.(sid).(ti)
  in
  let due_failure sid ti =
    match fail_after.(sid).(ti) with
    | Some thresh -> work_done sid ti >= thresh -. eps_w
    | None -> false
  in
  let inject_due_failures () =
    let fired = ref false in
    for id = 0 to n_stages - 1 do
      Array.iteri
        (fun ti _ ->
          if status.(id) = Running && due_failure id ti then begin
            fired := true;
            let a = attempt.(id).(ti) in
            log_fault Fault.Task_failure ~stage:id ~task:labels.(id).(ti) a;
            emit
              (Printf.sprintf "task %s fault (attempt %d)" labels.(id).(ti) a);
            match policy with
            | Recovery.Retry_task _ ->
              rework := !rework +. work_done id ti;
              start_attempt id ti;
              suspended_until.(id).(ti) <-
                !time +. Recovery.backoff_delay policy ~attempt:a
            | Recovery.Restart_stage | Recovery.Restart_from_sync
            | Recovery.Replan _ ->
              Array.iteri
                (fun tj _ -> rework := !rework +. work_done id tj)
                base.(id);
              emit (Printf.sprintf "stage %d restart" id);
              Array.iteri (fun tj _ -> start_attempt id tj) base.(id)
          end)
        base.(id)
    done;
    !fired
  in
  let uses_resource sid r =
    Array.exists (fun dem -> r < Array.length dem && dem.(r) > eps_w) base.(sid)
  in
  let process_outage_boundaries () =
    Array.iteri
      (fun i (o : Fault.outage) ->
        if (not onset_seen.(i)) && o.Fault.at <= !time +. 1e-12 then begin
          onset_seen.(i) <- true;
          emit
            (Printf.sprintf "resource %d down x%.2f for %.1f" o.Fault.resource
               o.Fault.factor o.Fault.duration);
          log_fault Fault.Resource_outage ~resource:o.Fault.resource 0;
          if
            o.Fault.factor <= eps
            && (policy = Recovery.Restart_from_sync || is_replan)
          then begin
            (if is_replan then begin
               (* recovery is about to cross a sync point: offer the
                  surviving checkpoint frontier to the re-planner *)
               let destroyed = ref [] and survivors = ref [] in
               for id = n_stages - 1 downto 0 do
                 if status.(id) = Done then
                   if uses_resource id o.Fault.resource then
                     destroyed := id :: !destroyed
                   else survivors := id :: !survivors
               done;
               if !destroyed <> [] then
                 try_replan
                   (Checkpoint_loss { resource = o.Fault.resource })
                   ~survivors:!survivors
             end);
            (* full loss destroys checkpoints resident on the resource:
               completed stages there re-execute, and running consumers
               of a lost checkpoint restart with them (also the [Replan]
               fallback when the re-planner declines) *)
            for id = 0 to n_stages - 1 do
              if status.(id) = Done && uses_resource id o.Fault.resource
              then begin
                status.(id) <- Pending;
                finish_t.(id) <- None;
                emit
                  (Printf.sprintf "stage %d checkpoint lost (resource %d)" id
                     o.Fault.resource)
              end
            done;
            for id = 0 to n_stages - 1 do
              if
                status.(id) = Running
                && List.exists
                     (fun d -> status.(d) = Pending)
                     g.Task_graph.stages.(id).Task_graph.deps
              then begin
                status.(id) <- Pending;
                emit (Printf.sprintf "stage %d waits (input lost)" id)
              end
            done;
            start_ready ()
          end
          else if
            is_replan && o.Fault.factor > eps
            && o.Fault.factor < 1. -. eps
            && o.Fault.duration > eps
          then begin
            (* a brownout destroys nothing, but a re-planner may prefer
               to steer the residual work away from the slowed resource *)
            let survivors = ref [] in
            for id = n_stages - 1 downto 0 do
              if status.(id) = Done then survivors := id :: !survivors
            done;
            try_replan
              (Slowdown
                 { resource = o.Fault.resource; factor = o.Fault.factor })
              ~survivors:!survivors
          end
        end;
        if
          (not expiry_seen.(i))
          && o.Fault.at +. o.Fault.duration <= !time +. 1e-12
        then begin
          expiry_seen.(i) <- true;
          emit (Printf.sprintf "resource %d restored" o.Fault.resource)
        end)
      outages
  in
  let process_grow_boundaries () =
    let newly = ref 0 in
    Array.iteri
      (fun i (gr : Fault.grow) ->
        if (not grow_seen.(i)) && gr.Fault.g_at <= !time +. 1e-12 then begin
          grow_seen.(i) <- true;
          incr newly;
          live_dims := !live_dims + 1;
          emit
            (Printf.sprintf "resource %d joins (%s, speed %.2f)" (nr + i)
               (Parqo_machine.Resource.kind_to_string gr.Fault.g_kind)
               gr.Fault.g_speed);
          log_fault Fault.Scale_out ~resource:(nr + i) 0
        end)
      grows;
    (* new capacity is useless to the in-flight plan — only a re-planner
       can route work onto it; batch same-instant grows into one offer *)
    if !newly > 0 && is_replan then begin
      let survivors = ref [] in
      for id = n_stages - 1 downto 0 do
        if status.(id) = Done then survivors := id :: !survivors
      done;
      try_replan (Scale_out { n_new = !newly }) ~survivors:!survivors
    end
  in
  let maybe_inflation_replan () =
    if
      is_replan
      && Option.is_some replanner
      && replan_threshold < infinity
      && seg_base > eps_w
      && !rework > replan_threshold *. seg_base
    then begin
      let survivors = ref [] in
      for id = n_stages - 1 downto 0 do
        if status.(id) = Done then survivors := id :: !survivors
      done;
      (* at least one checkpoint must anchor the residual — otherwise
         the restart policies already do the best possible thing *)
      if !survivors <> [] then
        try_replan
          (Work_inflation { ratio = !rework /. seg_base })
          ~survivors:!survivors
    end
  in
  (* grows first: a replan triggered by a same-instant outage must
     already see the grown machine dimension *)
  process_grow_boundaries ();
  process_outage_boundaries ();
  start_ready ();
  let guard = ref 0 in
  let max_events =
    1000 * (1 + n_stages) * (1 + nr) * (2 + fc.Fault.max_fail_attempts)
    + (10 * Array.length outages)
    + (10 * n_grows)
  in
  let starved = ref false in
  while (not (all_done ())) && (not !starved) && !guard < max_events do
    incr guard;
    process_grow_boundaries ();
    process_outage_boundaries ();
    maybe_inflation_replan ();
    if inject_due_failures () then ()
    else begin
      (* complete exhausted stages before looking for timed events *)
      let completed = ref false in
      for id = 0 to n_stages - 1 do
        if status.(id) = Running && stage_done id then begin
          complete id;
          completed := true
        end
      done;
      if not !completed then begin
        let cap =
          Array.init nr_seg (fun r ->
              if r >= nr && not grow_seen.(r - nr) then 0.
              else Fault.capacity fc ~time:!time ~resource:r)
        in
        let active =
          Array.mapi
            (fun id tasks ->
              Array.mapi
                (fun ti dem ->
                  status.(id) = Running
                  && suspended_until.(id).(ti) <= !time +. 1e-12
                  && Array.exists (fun d -> d > eps_w) dem)
                tasks)
            remaining
        in
        let count = Array.make nr_seg 0 in
        Array.iteri
          (fun id tasks ->
            Array.iteri
              (fun ti dem ->
                if active.(id).(ti) then
                  Array.iteri
                    (fun r d -> if d > eps_w then count.(r) <- count.(r) + 1)
                    dem;
                ignore ti)
              tasks)
          remaining;
        let dt = ref infinity in
        let consider x = if x > 1e-12 && x < !dt then dt := x in
        Array.iteri
          (fun id tasks ->
            Array.iteri
              (fun ti dem ->
                if active.(id).(ti) then begin
                  Array.iteri
                    (fun r d ->
                      if d > eps_w && cap.(r) > eps then
                        consider (d *. float_of_int count.(r) /. cap.(r)))
                    dem;
                  match fail_after.(id).(ti) with
                  | Some thresh ->
                    let rate = ref 0. in
                    Array.iteri
                      (fun r d ->
                        if d > eps_w && cap.(r) > eps then
                          rate := !rate +. (cap.(r) /. float_of_int count.(r)))
                      dem;
                    if !rate > eps then
                      consider ((thresh -. work_done id ti) /. !rate)
                  | None -> ()
                end
                else if
                  status.(id) = Running
                  && suspended_until.(id).(ti) > !time +. 1e-12
                  && Array.exists (fun d -> d > eps) dem
                then consider (suspended_until.(id).(ti) -. !time))
              tasks)
          remaining;
        (match Fault.next_capacity_change fc ~after:!time with
        | Some t -> consider (t -. !time)
        | None -> ());
        if !dt = infinity then
          (* remaining demand but no possible progress and no future
             capacity change: a permanently lost resource *)
          starved := true
        else begin
          let dt = !dt in
          time := !time +. dt;
          for r = 0 to nr_seg - 1 do
            if count.(r) > 0 && cap.(r) > eps then
              busy.(r) <- busy.(r) +. (cap.(r) *. dt)
          done;
          Array.iteri
            (fun id tasks ->
              Array.iteri
                (fun ti dem ->
                  if active.(id).(ti) then begin
                    Array.iteri
                      (fun r d ->
                        if d > eps_w && cap.(r) > eps then begin
                          let d' =
                            d -. (dt *. cap.(r) /. float_of_int count.(r))
                          in
                          dem.(r) <- (if d' <= eps_w then 0. else d')
                        end)
                      dem;
                    if
                      Array.for_all (fun d -> d <= eps_w) dem
                      && not (due_failure id ti)
                    then
                      emit (Printf.sprintf "task %s done" labels.(id).(ti))
                  end)
                tasks)
            remaining
        end
      end
    end
  done;
  if !starved then
    Parqo_error.failf ~subsystem:"simulator"
      "starved at t=%.2f: demand on a permanently lost resource" !time;
  if not (all_done ()) then
    Parqo_error.fail ~subsystem:"simulator" "did not converge under faults";
  (start_t, finish_t)
  in
  let rec drive g =
    match run_segment g with
    | res -> res
    | exception Splice g' ->
      if g'.Task_graph.n_resources <> !live_dims then
        Parqo_error.fail ~subsystem:"simulator"
          "replanned graph resource-dimension mismatch";
      (match Task_graph.validate g' with
      | Ok () -> ()
      | Error msg ->
        Parqo_error.fail ~subsystem:"simulator"
          ("invalid replanned task graph: " ^ msg));
      drive g'
  in
  let start_t, finish_t = drive g0 in
  let collect arr =
    let entries = ref [] in
    Array.iteri
      (fun id t -> match t with Some t -> entries := (id, t) :: !entries | None -> ())
      arr;
    List.sort
      (fun (i1, t1) (i2, t2) ->
        match Float.compare t1 t2 with 0 -> compare i1 i2 | c -> c)
      !entries
  in
  {
    makespan = !time;
    busy;
    total_work = !total_base;
    stage_start = collect start_t;
    stage_finish = collect finish_t;
    trace = List.rev !trace;
    n_faults = !n_faults;
    n_retries = !n_retries;
    n_replans = !n_replans;
    replans = List.rev !replans_log;
    faults = List.rev !faults_log;
  }

let run ?faults ?(recovery = Recovery.default) ?replanner (g : Task_graph.t) =
  (match Task_graph.validate g with
  | Ok () -> ()
  | Error msg ->
    Parqo_error.fail ~subsystem:"simulator" ("invalid task graph: " ^ msg));
  (match faults with
  | None -> ()
  | Some fc -> (
    match Fault.validate fc with
    | Ok () -> ()
    | Error msg ->
      Parqo_error.fail ~subsystem:"simulator" ("invalid fault config: " ^ msg)));
  match faults with
  | Some fc when Fault.is_active fc -> run_faulty_concurrent ?replanner g fc recovery
  | _ -> run_clean g
