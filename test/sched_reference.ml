(* The reference co-scheduler: [Scheduler.run]'s earlier event loop,
   which rescans every job and builds per-resource lists at each event.
   It differs from that loop in one line only: in the arrival and
   machine-event branch the clock moves to the boundary before the drain,
   so a task the drain exhausts is stamped with the boundary instant.
   The property tests compare [Scheduler.run] against it field by field,
   Int64-exact.  Inputs are assumed valid: [Scheduler.run] validates
   them first. *)

open Parqo.Scheduler
module Task_graph = Parqo.Task_graph
module Parqo_error = Parqo.Parqo_error

let eps = 1e-9

type stage_status = Pending | Running | Done

let validate_events ~nr (events : machine_event list) =
  let evs = Array.of_list events in
  (* stable sort: same-instant events on one resource apply in list
     order, so the last one given wins *)
  let order = Array.init (Array.length evs) Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare evs.(a).ev_at evs.(b).ev_at with
      | 0 -> compare a b
      | c -> c)
    order;
  let sorted = Array.map (fun i -> evs.(i)) order in
  (* drop no-op events: an event that leaves the resource at its current
     speed does not change the piecewise-constant capacity, and keeping
     it would still split a drain segment at its instant — so an
     all-nominal event list must reduce to no events for the bit-identity
     contract to hold *)
  let cur = Array.make nr 1. in
  Array.to_list sorted
  |> List.filter (fun e ->
         if e.ev_speed = cur.(e.ev_resource) then false
         else begin
           cur.(e.ev_resource) <- e.ev_speed;
           true
         end)
  |> Array.of_list

let run ?(policy = Fair_share) ?(events = []) (jobs_in : job array) =
  let nr = jobs_in.(0).graph.Task_graph.n_resources in
  let mevents = validate_events ~nr events in
  let n_mev = Array.length mevents in
  let nj = Array.length jobs_in in
  let jobs = Array.copy jobs_in in
  (* deterministic processing order: (arrival, job_id) *)
  let order = Array.init nj Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare jobs.(a).arrival jobs.(b).arrival with
      | 0 -> compare jobs.(a).job_id jobs.(b).job_id
      | c -> c)
    order;
  let n_stages =
    Array.map (fun (j : job) -> Array.length j.graph.Task_graph.stages) jobs
  in
  let status =
    Array.map
      (fun (j : job) -> Array.make (Array.length j.graph.Task_graph.stages) Pending)
      jobs
  in
  let remaining_deps =
    Array.map
      (fun (j : job) ->
        Array.map
          (fun (s : Task_graph.stage) -> ref (List.length s.Task_graph.deps))
          j.graph.Task_graph.stages)
      jobs
  in
  let dependents =
    Array.map
      (fun (j : job) -> Array.make (Array.length j.graph.Task_graph.stages) [])
      jobs
  in
  Array.iteri
    (fun p (j : job) ->
      Array.iter
        (fun (s : Task_graph.stage) ->
          List.iter
            (fun d ->
              dependents.(p).(d) <- s.Task_graph.stage_id :: dependents.(p).(d))
            s.Task_graph.deps)
        j.graph.Task_graph.stages)
    jobs;
  let remaining =
    Array.map
      (fun (j : job) ->
        Array.map
          (fun (s : Task_graph.stage) ->
            Array.of_list
              (List.map
                 (fun (t : Task_graph.task) -> Array.copy t.Task_graph.demands)
                 s.Task_graph.tasks))
          j.graph.Task_graph.stages)
      jobs
  in
  let labels =
    Array.map
      (fun (j : job) ->
        Array.map
          (fun (s : Task_graph.stage) ->
            Array.of_list
              (List.map
                 (fun (t : Task_graph.task) -> t.Task_graph.label)
                 s.Task_graph.tasks))
          j.graph.Task_graph.stages)
      jobs
  in
  let busy = Array.make nr 0. in
  let time = ref 0. in
  let trace = ref [] in
  let emit what = trace := { at = !time; what } :: !trace in
  let jname p =
    if jobs.(p).label <> "" then jobs.(p).label
    else Printf.sprintf "q%d" jobs.(p).job_id
  in
  (* piecewise-constant effective speed per resource; events already
     sorted by instant, applied once their time comes *)
  let speed_now = Array.make nr 1. in
  let ev_idx = ref 0 in
  let apply_due_events () =
    while
      !ev_idx < n_mev && mevents.(!ev_idx).ev_at <= !time +. 1e-12
    do
      let e = mevents.(!ev_idx) in
      speed_now.(e.ev_resource) <- e.ev_speed;
      emit
        (Printf.sprintf "resource %d speed -> %.3g" e.ev_resource e.ev_speed);
      incr ev_idx
    done
  in
  (* next machine-event instant strictly in the future, if any *)
  let next_event_instant () =
    if !ev_idx < n_mev then mevents.(!ev_idx).ev_at else infinity
  in
  let arrived = Array.make nj false in
  let rejected = Array.make nj None in
  let finished_at = Array.make nj nan in
  let finished p = not (Float.is_nan finished_at.(p)) in
  let active p = arrived.(p) && not (finished p) in
  let stage_start = Array.make nj [] in
  let stage_finish = Array.make nj [] in
  let stage_done p id =
    Array.for_all
      (fun demands -> Array.for_all (fun d -> d <= eps) demands)
      remaining.(p).(id)
  in
  let rec start_ready p =
    Array.iteri
      (fun id s ->
        if status.(p).(id) = Pending && !(remaining_deps.(p).(id)) = 0 then begin
          status.(p).(id) <- Running;
          stage_start.(p) <- (id, !time) :: stage_start.(p);
          emit (Printf.sprintf "%s stage %d start" (jname p) id);
          if stage_done p id then complete p id
        end;
        ignore s)
      jobs.(p).graph.Task_graph.stages
  and complete p id =
    status.(p).(id) <- Done;
    stage_finish.(p) <- (id, !time) :: stage_finish.(p);
    emit (Printf.sprintf "%s stage %d done" (jname p) id);
    List.iter (fun dep -> decr remaining_deps.(p).(dep)) dependents.(p).(id);
    start_ready p
  in
  let job_done p = Array.for_all (fun s -> s = Done) status.(p) in
  let finish_jobs () =
    Array.iter
      (fun p ->
        if active p && job_done p then begin
          finished_at.(p) <- !time;
          emit (jname p ^ " done")
        end)
      order
  in
  (* next arrival instant strictly in the future, if any *)
  let next_arrival () =
    Array.fold_left
      (fun acc p ->
        if not arrived.(p) then Float.min acc jobs.(p).arrival else acc)
      infinity order
  in
  (* remaining work of an active job, for shortest-remaining-work *)
  let remaining_work p =
    let acc = ref 0. in
    for id = 0 to n_stages.(p) - 1 do
      if status.(p).(id) <> Done then
        Array.iter
          (fun demands -> Array.iter (fun d -> acc := !acc +. d) demands)
          remaining.(p).(id)
    done;
    !acc
  in
  (* admission estimate at arrival: (backlog + own work) over total
     effective speed — the processor-sharing completion bound.  [infinity]
     during a total blackout with work on offer. *)
  let estimated_response () =
    (* the candidate is already marked arrived, so the active sweep
       counts its full (undrained) work alongside the backlog *)
    let backlog = ref 0. in
    Array.iter (fun q -> if active q then backlog := !backlog +. remaining_work q) order;
    let cap = Array.fold_left ( +. ) 0. speed_now in
    if cap > eps then !backlog /. cap
    else if !backlog > eps then infinity
    else 0.
  in
  let activate p =
    arrived.(p) <- true;
    match jobs.(p).deadline with
    | Some dl when estimated_response () > dl +. 1e-12 ->
      let reason =
        Printf.sprintf "estimated response %.3g exceeds deadline %.3g"
          (estimated_response ()) dl
      in
      rejected.(p) <- Some reason;
      finished_at.(p) <- !time;
      emit (Printf.sprintf "%s rejected (%s)" (jname p) reason)
    | _ ->
      emit (jname p ^ " arrives");
      start_ready p
  in
  (* counts.(p).(r): running tasks of job p demanding r — the
     within-job sharing degree, exactly run_clean's [count] *)
  let counts = Array.make_matrix nj nr 0 in
  (* factor.(p).(r): per-task slowdown [count * n_eligible]; 0. when
     job p is not eligible on r (its tasks neither drain nor propose
     next-event candidates there) *)
  let factor = Array.make_matrix nj nr 0. in
  (* contended.(r): some eligible job demands r this step *)
  let contended = Array.make nr false in
  let compute_shares () =
    Array.iter
      (fun p ->
        Array.fill counts.(p) 0 nr 0;
        Array.fill factor.(p) 0 nr 0.)
      order;
    Array.fill contended 0 nr false;
    Array.iter
      (fun p ->
        if active p then
          for id = 0 to n_stages.(p) - 1 do
            if status.(p).(id) = Running then
              Array.iter
                (fun demands ->
                  Array.iteri
                    (fun r d ->
                      if d > eps then counts.(p).(r) <- counts.(p).(r) + 1)
                    demands)
                remaining.(p).(id)
          done)
      order;
    let srw =
      match policy with
      | Shortest_remaining_work ->
        Array.map (fun p -> if active p then remaining_work p else infinity)
          (Array.init nj Fun.id)
      | _ -> [||]
    in
    for r = 0 to nr - 1 do
      (* contenders on r, in deterministic order *)
      let contenders =
        Array.to_list order
        |> List.filter (fun p -> active p && counts.(p).(r) > 0)
      in
      match contenders with
      | [] -> ()
      | _ ->
        contended.(r) <- true;
        let eligible =
          match policy with
          | Fair_share -> contenders
          | Strict_priority ->
            let best =
              List.fold_left
                (fun acc p -> max acc jobs.(p).priority)
                min_int contenders
            in
            List.filter (fun p -> jobs.(p).priority = best) contenders
          | Shortest_remaining_work ->
            let winner =
              List.fold_left
                (fun acc p ->
                  match acc with
                  | None -> Some p
                  | Some q ->
                    if
                      srw.(p) < srw.(q)
                      || (srw.(p) = srw.(q) && jobs.(p).job_id < jobs.(q).job_id)
                    then Some p
                    else acc)
                None contenders
            in
            (match winner with Some p -> [ p ] | None -> [])
        in
        let n_elig = float_of_int (List.length eligible) in
        List.iter
          (fun p -> factor.(p).(r) <- float_of_int counts.(p).(r) *. n_elig)
          eligible
    done
  in
  let all_jobs_done () =
    Array.for_all (fun p -> finished p) order
  in
  let total_stages = Array.fold_left ( + ) 0 n_stages in
  let guard = ref 0 in
  let max_events =
    (1000 * (1 + total_stages) * (1 + nr)) + (10 * nj) + (10 * n_mev)
  in
  while (not (all_jobs_done ())) && !guard < max_events do
    incr guard;
    (* machine events first: admission at this instant must see the
       capacity the events just set *)
    apply_due_events ();
    (* activate everything due at the current instant *)
    Array.iter
      (fun p ->
        if (not arrived.(p)) && jobs.(p).arrival <= !time +. 1e-12 then
          activate p)
      order;
    finish_jobs ();
    if not (all_jobs_done ()) then begin
      compute_shares ();
      (* next demand exhaustion among eligible tasks *)
      let dt = ref infinity in
      Array.iter
        (fun p ->
          if active p then
            for id = 0 to n_stages.(p) - 1 do
              if status.(p).(id) = Running then
                Array.iter
                  (fun demands ->
                    Array.iteri
                      (fun r d ->
                        if d > eps && factor.(p).(r) > 0. && speed_now.(r) > 0.
                        then
                          dt :=
                            Float.min !dt (d *. factor.(p).(r) /. speed_now.(r)))
                      demands)
                  remaining.(p).(id)
            done)
        order;
      let na = next_arrival () in
      let nb = Float.min na (next_event_instant ()) in
      if nb -. !time < !dt then begin
        (* the next event is an arrival or a machine event: drain the
           gap, then land exactly on the boundary instant *)
        let dt = nb -. !time in
        time := nb;
        if dt > 0. then begin
          for r = 0 to nr - 1 do
            if contended.(r) then busy.(r) <- busy.(r) +. (dt *. speed_now.(r))
          done;
          Array.iter
            (fun p ->
              if active p then
                for id = 0 to n_stages.(p) - 1 do
                  if status.(p).(id) = Running then
                    Array.iteri
                      (fun ti demands ->
                        Array.iteri
                          (fun r d ->
                            if d > eps && factor.(p).(r) > 0. then begin
                              let d' =
                                d -. (dt *. speed_now.(r) /. factor.(p).(r))
                              in
                              demands.(r) <- (if d' <= eps then 0. else d');
                              if
                                d' <= eps
                                && Array.for_all (fun x -> x <= eps) demands
                              then
                                emit
                                  (Printf.sprintf "task %s done"
                                     labels.(p).(id).(ti))
                            end)
                          demands)
                      remaining.(p).(id)
                done)
            order
        end;
        Array.iter
          (fun p ->
            if active p then
              Array.iteri
                (fun id s ->
                  ignore s;
                  if status.(p).(id) = Running && stage_done p id then
                    complete p id)
                jobs.(p).graph.Task_graph.stages)
          order;
        finish_jobs ()
      end
      else if !dt = infinity then begin
        (* running stages but no drainable demand: finish them (a stage
           whose tasks all carry zero work, as in run_clean).  If nothing
           completes here — demand parked on zero-speed resources with no
           arrival and no machine event left to restore them — the
           workload is starved: raise rather than spin to the guard. *)
        let progressed = ref false in
        Array.iter
          (fun p ->
            if active p then
              Array.iteri
                (fun id s ->
                  ignore s;
                  if status.(p).(id) = Running && stage_done p id then begin
                    complete p id;
                    progressed := true
                  end)
                jobs.(p).graph.Task_graph.stages)
          order;
        finish_jobs ();
        if (not !progressed) && not (all_jobs_done ()) then
          Parqo_error.fail ~subsystem:"scheduler"
            "starved: remaining demand on zero-capacity resources with no \
             future machine event"
      end
      else begin
        let dt = !dt in
        time := !time +. dt;
        for r = 0 to nr - 1 do
          if contended.(r) then busy.(r) <- busy.(r) +. (dt *. speed_now.(r))
        done;
        Array.iter
          (fun p ->
            if active p then
              for id = 0 to n_stages.(p) - 1 do
                if status.(p).(id) = Running then
                  Array.iteri
                    (fun ti demands ->
                      Array.iteri
                        (fun r d ->
                          if d > eps && factor.(p).(r) > 0. then begin
                            let d' =
                              d -. (dt *. speed_now.(r) /. factor.(p).(r))
                            in
                            demands.(r) <- (if d' <= eps then 0. else d');
                            if
                              d' <= eps
                              && Array.for_all (fun x -> x <= eps) demands
                            then
                              emit
                                (Printf.sprintf "task %s done"
                                   labels.(p).(id).(ti))
                          end)
                        demands)
                    remaining.(p).(id)
              done)
          order;
        Array.iter
          (fun p ->
            if active p then
              Array.iteri
                (fun id s ->
                  ignore s;
                  if status.(p).(id) = Running && stage_done p id then
                    complete p id)
                jobs.(p).graph.Task_graph.stages)
          order;
        finish_jobs ()
      end
    end
  done;
  if not (all_jobs_done ()) then
    Parqo_error.fail ~subsystem:"scheduler" "did not converge";
  let by_id = Array.copy order in
  Array.sort (fun a b -> compare jobs.(a).job_id jobs.(b).job_id) by_id;
  let job_outcomes =
    Array.map
      (fun p ->
        {
          job_id = jobs.(p).job_id;
          label = jobs.(p).label;
          arrival = jobs.(p).arrival;
          started = jobs.(p).arrival;
          finished = finished_at.(p);
          response = finished_at.(p) -. jobs.(p).arrival;
          work = Task_graph.total_work jobs.(p).graph;
          disposition =
            (match rejected.(p) with
            | None -> Completed
            | Some reason -> Rejected reason);
          stage_start = List.rev stage_start.(p);
          stage_finish = List.rev stage_finish.(p);
        })
      by_id
  in
  {
    policy;
    jobs = job_outcomes;
    makespan = !time;
    busy;
    total_work =
      (* shed jobs never ran: their offered work is not part of the
         delivered total, keeping busy conservation exact *)
      Array.fold_left
        (fun acc p ->
          match rejected.(p) with
          | Some _ -> acc
          | None -> acc +. Task_graph.total_work jobs.(p).graph)
        0. order;
    trace = List.rev !trace;
  }
