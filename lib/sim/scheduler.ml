module Parqo_error = Parqo_util.Parqo_error
module Statsu = Parqo_util.Statsu

type policy = Fair_share | Strict_priority | Shortest_remaining_work

let policy_to_string = function
  | Fair_share -> "fair"
  | Strict_priority -> "priority"
  | Shortest_remaining_work -> "srw"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "fair" | "fair-share" | "fair_share" | "ps" -> Ok Fair_share
  | "priority" | "strict-priority" | "strict_priority" -> Ok Strict_priority
  | "srw" | "srpt" | "shortest-remaining-work" | "shortest_remaining_work" ->
    Ok Shortest_remaining_work
  | _ ->
    Error
      (Printf.sprintf "unknown policy %S (valid: fair, priority, srw)" s)

let all_policies = [ Fair_share; Strict_priority; Shortest_remaining_work ]

type job = {
  job_id : int;
  label : string;
  arrival : float;
  priority : int;
  deadline : float option;
  graph : Task_graph.t;
}

let job ?(label = "") ?(priority = 0) ?(arrival = 0.) ?deadline ~job_id graph =
  { job_id; label; arrival; priority; deadline; graph }

type event = { at : float; what : string }

type machine_event = { ev_at : float; ev_resource : int; ev_speed : float }

type disposition = Completed | Rejected of string

type job_outcome = {
  job_id : int;
  label : string;
  arrival : float;
  started : float;
  finished : float;
  response : float;
  work : float;
  disposition : disposition;
  stage_start : (int * float) list;
  stage_finish : (int * float) list;
}

type outcome = {
  policy : policy;
  jobs : job_outcome array;
  makespan : float;
  busy : float array;
  total_work : float;
  trace : event list;
}

type summary = {
  n_jobs : int;
  n_rejected : int;
  makespan : float;
  utilization : float;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let eps = 1e-9

let utilization (o : outcome) =
  if o.makespan <= 0. then 1.
  else o.total_work /. (o.makespan *. float_of_int (Array.length o.busy))

let summarize (o : outcome) =
  (* response-time statistics cover completed jobs only: a shed job never
     ran, so folding its zero response in would flatter the tail *)
  let rs =
    Array.to_list o.jobs
    |> List.filter_map (fun j ->
           match j.disposition with
           | Completed -> Some j.response
           | Rejected _ -> None)
  in
  let n_rejected =
    Array.fold_left
      (fun acc j ->
        match j.disposition with Rejected _ -> acc + 1 | Completed -> acc)
      0 o.jobs
  in
  let quantile q = match rs with [] -> 0. | l -> Statsu.quantile q l in
  {
    n_jobs = Array.length o.jobs;
    n_rejected;
    makespan = o.makespan;
    utilization = utilization o;
    mean =
      (match rs with
      | [] -> 0.
      | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l));
    p50 = quantile 0.5;
    p95 = quantile 0.95;
    p99 = quantile 0.99;
    max = List.fold_left Float.max 0. rs;
  }

let effective_speeds machine =
  let module M = Parqo_machine.Machine in
  Array.init (M.n_resources machine) (M.speed machine)

let expected_pressure ?horizon ?speeds ~n_resources (jobs : job array) =
  (match speeds with
  | Some s when Array.length s <> n_resources ->
    invalid_arg "Scheduler.expected_pressure: speeds length <> n_resources"
  | _ -> ());
  let totals = Array.make n_resources 0. in
  Array.iter
    (fun j ->
      Array.iter
        (fun (s : Task_graph.stage) ->
          List.iter
            (fun (t : Task_graph.task) ->
              Array.iteri
                (fun r d ->
                  if r < n_resources then totals.(r) <- totals.(r) +. d)
                t.Task_graph.demands)
            s.Task_graph.tasks)
        j.graph.Task_graph.stages)
    jobs;
  if Array.length jobs = 0 then totals
  else begin
    let h =
      match horizon with
      | Some h ->
        if h <= 0. then
          invalid_arg "Scheduler.expected_pressure: horizon <= 0";
        h
      | None ->
        (* arrival span plus the mean job's solo drain time: the window
           over which the offered work actually lands on the machine *)
        let lo = ref infinity and hi = ref neg_infinity in
        Array.iter
          (fun (j : job) ->
            lo := Float.min !lo j.arrival;
            hi := Float.max !hi j.arrival)
          jobs;
        let total = Array.fold_left ( +. ) 0. totals in
        let mean_work = total /. float_of_int (Array.length jobs) in
        Float.max eps (!hi -. !lo +. mean_work)
    in
    (* pressure is offered load against {e effective} capacity: a
       half-speed resource saturates at half the work, so its pressure
       doubles.  The [None] branch is the pre-speed expression verbatim
       (all-nominal callers stay bit-identical); a zero-speed resource
       with offered work reads as infinitely loaded. *)
    match speeds with
    | None -> Array.map (fun w -> w /. h) totals
    | Some s ->
      Array.mapi
        (fun r w ->
          if s.(r) > 0. then w /. (h *. s.(r))
          else if w > eps then infinity
          else 0.)
        totals
  end

type stage_status = Pending | Running | Done

let validate_jobs (jobs : job array) =
  let nj = Array.length jobs in
  if nj = 0 then
    Parqo_error.fail ~subsystem:"scheduler" "empty job set";
  let nr = jobs.(0).graph.Task_graph.n_resources in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (j : job) ->
      if Hashtbl.mem seen j.job_id then
        Parqo_error.failf ~subsystem:"scheduler" "duplicate job id %d" j.job_id;
      Hashtbl.add seen j.job_id ();
      if j.graph.Task_graph.n_resources <> nr then
        Parqo_error.failf ~subsystem:"scheduler"
          "job %d resource-dimension mismatch (%d vs %d)" j.job_id
          j.graph.Task_graph.n_resources nr;
      if (not (Float.is_finite j.arrival)) || j.arrival < 0. then
        Parqo_error.failf ~subsystem:"scheduler"
          "job %d has invalid arrival" j.job_id;
      (match j.deadline with
      | Some d when (not (Float.is_finite d)) || d <= 0. ->
        Parqo_error.failf ~subsystem:"scheduler"
          "job %d has invalid deadline" j.job_id
      | _ -> ());
      match Task_graph.validate j.graph with
      | Ok () -> ()
      | Error msg ->
        Parqo_error.failf ~subsystem:"scheduler" "invalid task graph (job %d): %s"
          j.job_id msg)
    jobs;
  nr

let validate_events ~nr (events : machine_event list) =
  let evs = Array.of_list events in
  Array.iter
    (fun e ->
      if (not (Float.is_finite e.ev_at)) || e.ev_at < 0. then
        Parqo_error.failf ~subsystem:"scheduler"
          "machine event has invalid instant %g" e.ev_at;
      if e.ev_resource < 0 || e.ev_resource >= nr then
        Parqo_error.failf ~subsystem:"scheduler"
          "machine event resource %d out of range (workload has %d)"
          e.ev_resource nr;
      if (not (Float.is_finite e.ev_speed)) || e.ev_speed < 0. then
        Parqo_error.failf ~subsystem:"scheduler"
          "machine event has invalid speed %g" e.ev_speed)
    evs;
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

(* The event loop is [Simulator.run_clean ~mode:Concurrent] lifted to a
   set of jobs.  Per resource and instant, the policy selects the
   {e eligible} jobs among those demanding it; a running task of an
   eligible job drains at rate [1 / (count * n)], where [count] is its
   own job's demanding-task count on the resource (processor sharing
   within the job, as in the single-query simulator) and [n] is the
   number of eligible jobs (processor sharing — or preemption — across
   jobs).  The per-task slowdown factor is [f = count * n]: candidate
   next-event times are [d *. f] and advances [d -. dt /. f], so with a
   single job [n = 1] and multiplication by [1.0] being IEEE-exact the
   arithmetic is bit-for-bit the single-query simulator's — the
   degenerate case is Int64-identical by construction, and the total
   drain rate on a demanded resource is exactly 1, so per-resource busy
   time equals delivered work (busy conservation).

   [events] makes the machine itself time-varying: each event sets a
   resource's absolute speed from its instant on (piecewise-constant
   capacity).  A task draining resource [r] then drains at
   [speed(r) / factor] and busy accrues [dt * speed(r)] — delivered
   work, so busy conservation holds against {e effective} capacity.
   With no events every speed is [1.0] and multiplication/division by
   [1.0] is IEEE-exact, so the no-event run is bit-identical to the
   pre-speed scheduler.  A speed-0 window simply parks the demand until
   a later event restores capacity; demand parked on a dead resource
   with no future event is starvation and raises rather than spinning.

   [deadline] is admission control: at a job's arrival instant the
   scheduler estimates its response as (backlog work + its own work)
   divided by total effective speed — a processor-sharing bound that
   ignores placement, so it is optimistic per-resource but monotone in
   load — and sheds the job ([Rejected]) when the estimate exceeds its
   deadline.  Shed jobs never run: no stage starts, no busy accrues.

   Cost.  The loop keeps the {e active} jobs (arrived, neither finished
   nor shed) in (arrival, job_id) order, a cursor on the next arrival
   and counters of finished stages and jobs, so an event visits only
   the running tasks of active jobs: once to count demand, once for the
   next exhaustion and once to drain.  Live-cell and live-task counters
   replace rescans of drained demand vectors.  Buffers are sized once
   per run, and an event allocates only its trace records.  Each float
   operation must keep its operands and order: a property test compares
   every outcome field, Int64-exact, with the reference loop in
   test/sched_reference.ml. *)
let run ?(policy = Fair_share) ?(events = []) (jobs_in : job array) =
  let nr = validate_jobs jobs_in in
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
  let per_stage f =
    Array.map (fun (j : job) -> Array.map f j.graph.Task_graph.stages) jobs
  in
  let per_task f =
    per_stage (fun (s : Task_graph.stage) ->
        Array.of_list (List.map f s.Task_graph.tasks))
  in
  let n_stages =
    Array.map (fun (j : job) -> Array.length j.graph.Task_graph.stages) jobs
  in
  let status = per_stage (fun _ -> Pending) in
  let remaining_deps =
    per_stage (fun (s : Task_graph.stage) -> List.length s.Task_graph.deps)
  in
  let dependents = per_stage (fun _ -> []) in
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
    per_task (fun (t : Task_graph.task) -> Array.copy t.Task_graph.demands)
  in
  let labels = per_task (fun (t : Task_graph.task) -> t.Task_graph.label) in
  (* live_cells.(p).(id).(ti): demand cells of a task still above [eps];
     the task is done when it reaches 0, and its stage is done when
     live_tasks.(p).(id) does *)
  let live_cells =
    Array.map
      (Array.map
         (Array.map
            (Array.fold_left (fun n d -> if d > eps then n + 1 else n) 0)))
      remaining
  in
  let live_tasks =
    Array.map
      (Array.map (Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0))
      live_cells
  in
  let names =
    Array.map
      (fun (j : job) ->
        if j.label <> "" then j.label else "q" ^ string_of_int j.job_id)
      jobs
  in
  let busy = Array.make nr 0. in
  let time = ref 0. in
  let trace = ref [] in
  let emit what = trace := { at = !time; what } :: !trace in
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
  let rejected = Array.make nj None in
  let finished_at = Array.make nj nan in
  let stage_start = Array.make nj [] in
  let stage_finish = Array.make nj [] in
  let stages_done = Array.make nj 0 in
  let n_finished = ref 0 in
  (* the active jobs, in (arrival, job_id) order: arrivals are taken
     from [order] in that order, so each one joins at the end *)
  let active = Array.make nj 0 in
  let n_active = ref 0 in
  let next_arrival = ref 0 in
  (* exhausted.(p): a drain has emptied one of job p's running stages *)
  let exhausted = Array.make nj false in
  let rec start_ready p =
    for id = 0 to n_stages.(p) - 1 do
      if status.(p).(id) = Pending && remaining_deps.(p).(id) = 0 then begin
        status.(p).(id) <- Running;
        stage_start.(p) <- (id, !time) :: stage_start.(p);
        emit (names.(p) ^ " stage " ^ string_of_int id ^ " start");
        if live_tasks.(p).(id) = 0 then complete p id
      end
    done
  and complete p id =
    status.(p).(id) <- Done;
    stages_done.(p) <- stages_done.(p) + 1;
    stage_finish.(p) <- (id, !time) :: stage_finish.(p);
    emit (names.(p) ^ " stage " ^ string_of_int id ^ " done");
    List.iter
      (fun dep -> remaining_deps.(p).(dep) <- remaining_deps.(p).(dep) - 1)
      dependents.(p).(id);
    start_ready p
  in
  let finish_jobs () =
    let kept = ref 0 in
    for k = 0 to !n_active - 1 do
      let p = active.(k) in
      if stages_done.(p) = n_stages.(p) then begin
        finished_at.(p) <- !time;
        incr n_finished;
        emit (names.(p) ^ " done")
      end
      else begin
        active.(!kept) <- p;
        incr kept
      end
    done;
    n_active := !kept
  in
  (* rem_work.(p): the remaining work of job p, for shortest-remaining-
     work and admission *)
  let rem_work = Array.make nj 0. in
  let measure_remaining p =
    let acc = ref 0. in
    for id = 0 to n_stages.(p) - 1 do
      if status.(p).(id) <> Done then begin
        let tasks = remaining.(p).(id) in
        for ti = 0 to Array.length tasks - 1 do
          let cells = tasks.(ti) in
          for r = 0 to Array.length cells - 1 do
            acc := !acc +. cells.(r)
          done
        done
      end
    done;
    rem_work.(p) <- !acc
  in
  (* admission estimate at arrival: (backlog + own work) over total
     effective speed — the processor-sharing completion bound.  [infinity]
     during a total blackout with work on offer.  The candidate is
     already active, so its full (undrained) work counts alongside the
     backlog. *)
  let estimated_response () =
    let backlog = ref 0. in
    for k = 0 to !n_active - 1 do
      let q = active.(k) in
      measure_remaining q;
      backlog := !backlog +. rem_work.(q)
    done;
    let cap = ref 0. in
    for r = 0 to nr - 1 do
      cap := !cap +. speed_now.(r)
    done;
    if !cap > eps then !backlog /. !cap
    else if !backlog > eps then infinity
    else 0.
  in
  let activate p =
    active.(!n_active) <- p;
    incr n_active;
    let shed =
      match jobs.(p).deadline with
      | None -> None
      | Some dl ->
        let est = estimated_response () in
        if est > dl +. 1e-12 then
          Some
            (Printf.sprintf "estimated response %.3g exceeds deadline %.3g" est
               dl)
        else None
    in
    match shed with
    | Some reason ->
      rejected.(p) <- shed;
      finished_at.(p) <- !time;
      decr n_active;
      incr n_finished;
      emit (names.(p) ^ " rejected (" ^ reason ^ ")")
    | None ->
      emit (names.(p) ^ " arrives");
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
    Array.fill contended 0 nr false;
    for k = 0 to !n_active - 1 do
      let p = active.(k) in
      let cnt = counts.(p) in
      Array.fill cnt 0 nr 0;
      Array.fill factor.(p) 0 nr 0.;
      let demanding = ref false in
      for id = 0 to n_stages.(p) - 1 do
        if status.(p).(id) = Running then begin
          let tasks = remaining.(p).(id) and live = live_cells.(p).(id) in
          for ti = 0 to Array.length tasks - 1 do
            if live.(ti) > 0 then begin
              let cells = tasks.(ti) in
              for r = 0 to Array.length cells - 1 do
                if cells.(r) > eps then begin
                  cnt.(r) <- cnt.(r) + 1;
                  demanding := true
                end
              done
            end
          done
        end
      done;
      if !demanding && policy = Shortest_remaining_work then measure_remaining p
    done;
    for r = 0 to nr - 1 do
      (* the contenders on r, in active order, and the policy's pick *)
      let n = ref 0 and best = ref min_int and n_best = ref 0 in
      let winner = ref (-1) in
      for k = 0 to !n_active - 1 do
        let p = active.(k) in
        if counts.(p).(r) > 0 then begin
          incr n;
          match policy with
          | Fair_share -> ()
          | Strict_priority ->
            let pr = jobs.(p).priority in
            if pr > !best then begin
              best := pr;
              n_best := 1
            end
            else if pr = !best then incr n_best
          | Shortest_remaining_work ->
            let w = !winner in
            if
              w < 0
              || rem_work.(p) < rem_work.(w)
              || rem_work.(p) = rem_work.(w)
                 && jobs.(p).job_id < jobs.(w).job_id
            then winner := p
        end
      done;
      if !n > 0 then begin
        contended.(r) <- true;
        let n_elig =
          float_of_int
            (match policy with
            | Fair_share -> !n
            | Strict_priority -> !n_best
            | Shortest_remaining_work -> 1)
        in
        for k = 0 to !n_active - 1 do
          let p = active.(k) in
          let c = counts.(p).(r) in
          if
            c > 0
            &&
            match policy with
            | Fair_share -> true
            | Strict_priority -> jobs.(p).priority = !best
            | Shortest_remaining_work -> p = !winner
          then factor.(p).(r) <- float_of_int c *. n_elig
        done
      end
    done
  in
  (* next demand exhaustion among eligible tasks *)
  let next_exhaustion () =
    let dt = ref infinity in
    for k = 0 to !n_active - 1 do
      let p = active.(k) in
      let fac = factor.(p) in
      for id = 0 to n_stages.(p) - 1 do
        if status.(p).(id) = Running then begin
          let tasks = remaining.(p).(id) and live = live_cells.(p).(id) in
          for ti = 0 to Array.length tasks - 1 do
            if live.(ti) > 0 then begin
              let cells = tasks.(ti) in
              for r = 0 to Array.length cells - 1 do
                let d = cells.(r) in
                if d > eps && fac.(r) > 0. && speed_now.(r) > 0. then begin
                  let c = d *. fac.(r) /. speed_now.(r) in
                  if c < !dt then dt := c
                end
              done
            end
          done
        end
      done
    done;
    !dt
  in
  (* The one drain-and-complete path: move the clock to [until], drain
     [dt] of service, then complete the stages the drain emptied (in
     active order, then stage id) and finish the jobs they complete.  A
     task that the drain exhausts is stamped with [until], as its stage
     is. *)
  let advance ~until dt =
    time := until;
    for r = 0 to nr - 1 do
      if contended.(r) then busy.(r) <- busy.(r) +. (dt *. speed_now.(r))
    done;
    for k = 0 to !n_active - 1 do
      let p = active.(k) in
      let fac = factor.(p) in
      for id = 0 to n_stages.(p) - 1 do
        if status.(p).(id) = Running then begin
          let tasks = remaining.(p).(id) and live = live_cells.(p).(id) in
          for ti = 0 to Array.length tasks - 1 do
            if live.(ti) > 0 then begin
              let cells = tasks.(ti) in
              for r = 0 to Array.length cells - 1 do
                let d = cells.(r) in
                if d > eps && fac.(r) > 0. then begin
                  let d' = d -. (dt *. speed_now.(r) /. fac.(r)) in
                  if d' <= eps then begin
                    cells.(r) <- 0.;
                    live.(ti) <- live.(ti) - 1
                  end
                  else cells.(r) <- d'
                end
              done;
              if live.(ti) = 0 then begin
                emit ("task " ^ labels.(p).(id).(ti) ^ " done");
                live_tasks.(p).(id) <- live_tasks.(p).(id) - 1;
                if live_tasks.(p).(id) = 0 then exhausted.(p) <- true
              end
            end
          done
        end
      done
    done;
    for k = 0 to !n_active - 1 do
      let p = active.(k) in
      if exhausted.(p) then begin
        exhausted.(p) <- false;
        for id = 0 to n_stages.(p) - 1 do
          if status.(p).(id) = Running && live_tasks.(p).(id) = 0 then
            complete p id
        done
      end
    done;
    finish_jobs ()
  in
  let total_stages = Array.fold_left ( + ) 0 n_stages in
  let guard = ref 0 in
  let max_events =
    (1000 * (1 + total_stages) * (1 + nr)) + (10 * nj) + (10 * n_mev)
  in
  while !n_finished < nj && !guard < max_events do
    incr guard;
    (* machine events first: admission at this instant must see the
       capacity the events just set *)
    apply_due_events ();
    (* activate everything due at the current instant *)
    while
      !next_arrival < nj
      && jobs.(order.(!next_arrival)).arrival <= !time +. 1e-12
    do
      let p = order.(!next_arrival) in
      incr next_arrival;
      activate p
    done;
    finish_jobs ();
    if !n_finished < nj then begin
      compute_shares ();
      let dt = next_exhaustion () in
      let na =
        if !next_arrival < nj then jobs.(order.(!next_arrival)).arrival
        else infinity
      in
      let nb =
        Float.min na
          (if !ev_idx < n_mev then mevents.(!ev_idx).ev_at else infinity)
      in
      let gap = nb -. !time in
      (* the next event is an arrival or a machine event: drain the gap
         and land exactly on the boundary instant *)
      if gap < dt then advance ~until:nb gap
      else if dt < infinity then advance ~until:(!time +. dt) dt
      else
        (* a stage with no drainable demand completes when it starts, so
           running demand with nothing to drain it is parked on
           zero-capacity resources with no arrival or machine event left
           to restore them *)
        Parqo_error.fail ~subsystem:"scheduler"
          "starved: remaining demand on zero-capacity resources with no \
           future machine event"
    end
  done;
  if !n_finished < nj then
    Parqo_error.fail ~subsystem:"scheduler" "did not converge";
  let by_id = Array.copy order in
  Array.sort (fun a b -> compare jobs.(a).job_id jobs.(b).job_id) by_id;
  let work = Array.map (fun (j : job) -> Task_graph.total_work j.graph) jobs in
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
          work = work.(p);
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
          match rejected.(p) with Some _ -> acc | None -> acc +. work.(p))
        0. order;
    trace = List.rev !trace;
  }
