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

(* What a one-job run reports, faults and re-plans included: the
   simulator's vocabulary, which [Simulator] includes. *)
module Solo = struct
  type nonrec event = event = { at : float; what : string }

  type fault_event = {
    f_at : float;
    f_kind : Fault.kind;
    f_stage : int option;
    f_task : string option;
    f_resource : int option;
    f_attempt : int;
  }

  type replan_trigger =
    | Checkpoint_loss of { resource : int }
    | Work_inflation of { ratio : float }
    | Slowdown of { resource : int; factor : float }
    | Scale_out of { n_new : int }

  type replan_event = {
    rp_at : float;
    rp_trigger : replan_trigger;
    rp_plan : string;
    rp_info : string;
  }

  type snapshot = {
    s_at : float;
    s_trigger : replan_trigger;
    s_graph : Task_graph.t;
    s_survivors : int list;
  }

  type replan = { new_graph : Task_graph.t; plan_key : string; info : string }
  type replanner = snapshot -> replan option

  let trigger_to_string = function
    | Checkpoint_loss { resource } ->
      Printf.sprintf "checkpoint loss (resource %d)" resource
    | Work_inflation { ratio } -> Printf.sprintf "work inflation x%.2f" ratio
    | Slowdown { resource; factor } ->
      Printf.sprintf "slowdown (resource %d at x%.2f)" resource factor
    | Scale_out { n_new } ->
      Printf.sprintf "scale-out (%d new resource%s)" n_new
        (if n_new = 1 then "" else "s")

  type outcome = {
    makespan : float;
    busy : float array;
    total_work : float;
    stage_start : (int * float) list;
    stage_finish : (int * float) list;
    trace : event list;
    n_faults : int;
    n_retries : int;
    n_replans : int;
    replans : replan_event list;
    faults : fault_event list;
  }
end

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

(* at most this many splices per run, even if the replanner keeps
   volunteering — a backstop against pathological callbacks *)
let max_replans_hard = 32

(* [Array.fold_left ( +. ) 0.], summed in the same order without boxing
   each partial sum *)
let total_of a =
  let s = ref 0. in
  for i = 0 to Array.length a - 1 do
    s := !s +. a.(i)
  done;
  !s

(* [dt], or [x] when it comes sooner and more than 1e-12 ahead *)
let earlier x dt = if x > 1e-12 && x < dt then x else dt

(* A faulted job's task: its fault-free demands and its current
   attempt. *)
type ftask = {
  base : float array;
  task_id : int;
  mutable attempt : int;  (* attempts started so far; the first is 1 *)
  mutable attempt_work : float;  (* the current attempt's total demand *)
  mutable fail_at : float;
      (* work done at which the attempt fail-stops; [infinity]: never *)
  mutable resume_at : float;  (* end of the task's retry backoff *)
}

(* A faulted job's fault state.  The schedules, flags, counters and logs
   last the run; the fields from [tasks] on belong to the job's current
   graph, and a splice replaces them. *)
type faulted = {
  fc : Fault.config;
  recovery : Recovery.policy;
  replanner : Solo.replanner option;
  nr0 : int;  (* the first graph's dimension; grown resources follow it *)
  grows : Fault.grow array;  (* in onset order *)
  grow_seen : bool array;
  outages : Fault.outage array;
  bounds : float array;  (* [Fault.boundaries fc] *)
  mutable next_bound : int;
      (* [bounds]' first entry after the clock; the clock never goes back *)
  onset_seen : bool array;
  expiry_seen : bool array;
  mutable live_dims : int;  (* [nr0] plus the grows seen *)
  mutable n_faults : int;
  mutable n_retries : int;
  mutable n_replans : int;
  mutable faults_log : Solo.fault_event list;
  mutable replans_log : Solo.replan_event list;
  mutable tasks : ftask array array;
  mutable first_start : float array;  (* per stage; [nan] until it starts *)
  mutable last_finish : float array;  (* per stage; [nan] unless done *)
  mutable seg_base : float;  (* the graph's fault-free work *)
  mutable rework : float;
      (* straggler inflation plus work lost to fail-stops, on this graph *)
  mutable passes : int;
  mutable max_passes : int;
}

let faulted fc recovery replanner (g : Task_graph.t) =
  let grows =
    Array.of_list
      (List.stable_sort
         (fun (a : Fault.grow) b -> Float.compare a.Fault.g_at b.Fault.g_at)
         fc.Fault.grows)
  in
  let outages = Array.of_list fc.Fault.outages in
  let nr0 = g.Task_graph.n_resources in
  {
    fc;
    recovery;
    replanner;
    nr0;
    grows;
    grow_seen = Array.make (Array.length grows) false;
    outages;
    bounds = Fault.boundaries fc;
    next_bound = 0;
    onset_seen = Array.make (Array.length outages) false;
    expiry_seen = Array.make (Array.length outages) false;
    live_dims = nr0;
    n_faults = 0;
    n_retries = 0;
    n_replans = 0;
    faults_log = [];
    replans_log = [];
    tasks = [||];
    first_start = [||];
    last_finish = [||];
    seg_base = 0.;
    rework = 0.;
    passes = 0;
    max_passes = 0;
  }

(* The event loop.  Per resource and instant, the policy selects the
   {e eligible} jobs among those demanding it; a running task of an
   eligible job drains at rate [1 / (count * n)], where [count] is its
   own job's demanding-task count on the resource (processor sharing
   within the job) and [n] is the number of eligible jobs (processor
   sharing — or preemption — across jobs).  The per-task slowdown factor
   is [f = count * n]: candidate next-event times are [d *. f] and
   advances [d -. dt /. f], so with a single job [n = 1] and
   multiplication by [1.0] being IEEE-exact, a one-job run is processor
   sharing within the job, bit for bit, whatever the policy.  The total
   drain rate on a demanded resource is exactly 1, so per-resource busy
   time equals delivered work (busy conservation).

   [mevents] makes the machine itself time-varying: each event sets a
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

   A job with a fault state ([fstate]) runs fail-stop attempts,
   stragglers, outages, grows, its recovery policy and re-plan splices.
   Only a one-job run has one (the simulator's): its outages and grows
   set the machine's capacity.  Such a job drains down to its own
   threshold, one part in 1e12 of its graph's work, floored at [eps]: a
   fixed [eps] cannot be met near 1e11 units, where one ulp is about
   1e-5.  It completes its emptied stages not in the drain but when it
   settles the next instant: grow boundaries, outage boundaries, the
   work-inflation trigger, due fail-stops, then completions, repeated
   until none fires.  Every outage onset or expiry and every grow onset
   ends a drain, even one that leaves capacity unchanged.

   Cost.  The loop keeps the {e active} jobs (arrived, neither finished
   nor shed) in (arrival, job_id) order, a cursor on the next arrival
   and counters of finished stages and jobs.  Each task attempt keeps
   the list of its live resources (demand above the threshold), so an
   event costs time in proportion to the live demand cells of the
   running tasks of active jobs plus the contenders per resource: the
   counting pass walks the lists, recording each resource's contending
   jobs and each job's least live demand there; the policy looks at a
   resource's contenders only; the next exhaustion is one candidate per
   eligible contender and resource, [least *. f /. speed], which is the
   least of that job's task candidates because IEEE rounding is
   monotone in [d]; and the drain walks the lists again.  Shortest
   remaining work is the exception: each of its events still sums every
   cell of every unfinished stage of each demanding job, pending stages
   included ([measure_remaining]), so it costs jobs x tasks x resources,
   as admission does once per arrival.  Live-cell and live-task
   counters replace rescans of drained demand vectors.  Buffers are
   sized once per run, and an event allocates only its trace records.
   A run without fault states reads one per-job option per drain.  Each
   float operation must keep its operands and order: property tests
   compare every outcome field, Int64-exact, with the reference loops
   in test/sched_reference.ml and test/sim_reference.ml. *)
let loop ~solo ~policy ~nr ~mevents ~(fstate : faulted option array)
    (jobs_in : job array) =
  let subsystem = if solo then "simulator" else "scheduler" in
  let fail msg = Parqo_error.fail ~subsystem msg in
  let any_faulted = Array.exists Option.is_some fstate in
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
  (* per-job graph state, built by [install] — and rebuilt by a splice *)
  let n_stages = Array.make nj 0 in
  let status = Array.make nj [||] in
  let remaining_deps = Array.make nj [||] in
  let dependents = Array.make nj [||] in
  let remaining = Array.make nj [||] in
  let labels = Array.make nj [||] in
  (* live_cells.(p).(id).(ti): demand cells of a task's attempt above
     its job's drain threshold [thresh.(p)], negated while the attempt is
     parked; the task is done when it reaches 0, and its stage is done
     when live_tasks.(p).(id) does.  live_res.(p).(id).(ti) holds those
     cells' resources in its first |live_cells| slots, in resource
     order: the drain removes a cell it empties. *)
  let live_cells = Array.make nj [||] in
  let live_res = Array.make nj [||] in
  let live_tasks = Array.make nj [||] in
  let thresh = Array.make nj eps in
  let stages_done = Array.make nj 0 in
  (* write the resources of job p's demand cells above its threshold
     into [res], in order, and return their number *)
  let fill_live p cells res =
    let e = thresh.(p) and n = ref 0 in
    for r = 0 to Array.length cells - 1 do
      if cells.(r) > e then begin
        res.(!n) <- r;
        incr n
      end
    done;
    !n
  in
  let install p (g : Task_graph.t) =
    let stages = g.Task_graph.stages in
    let n = Array.length stages in
    thresh.(p) <-
      (match fstate.(p) with
      | None -> eps
      | Some f ->
        let work = Task_graph.total_work g in
        f.tasks <-
          Array.map
            (fun (s : Task_graph.stage) ->
              Array.of_list
                (List.map
                   (fun (t : Task_graph.task) ->
                     {
                       base = t.Task_graph.demands;
                       task_id = t.Task_graph.task_id;
                       attempt = 0;
                       attempt_work = 0.;
                       fail_at = infinity;
                       resume_at = 0.;
                     })
                   s.Task_graph.tasks))
            stages;
        f.first_start <- Array.make n nan;
        f.last_finish <- Array.make n nan;
        f.seg_base <- work;
        f.rework <- 0.;
        f.passes <- 0;
        f.max_passes <-
          (1000 * (1 + n) * (1 + f.nr0) * (2 + f.fc.Fault.max_fail_attempts))
          + (10 * Array.length f.outages)
          + (10 * Array.length f.grows);
        Float.max eps (1e-12 *. work));
    let deps = Array.make n [] in
    Array.iter
      (fun (s : Task_graph.stage) ->
        List.iter
          (fun d -> deps.(d) <- s.Task_graph.stage_id :: deps.(d))
          s.Task_graph.deps)
      stages;
    n_stages.(p) <- n;
    status.(p) <- Array.make n Pending;
    remaining_deps.(p) <-
      Array.map (fun (s : Task_graph.stage) -> List.length s.Task_graph.deps) stages;
    dependents.(p) <- deps;
    remaining.(p) <-
      Array.map
        (fun (s : Task_graph.stage) ->
          Array.of_list
            (List.map
               (fun (t : Task_graph.task) -> Array.copy t.Task_graph.demands)
               s.Task_graph.tasks))
        stages;
    labels.(p) <-
      Array.map
        (fun (s : Task_graph.stage) ->
          Array.of_list
            (List.map (fun (t : Task_graph.task) -> t.Task_graph.label) s.Task_graph.tasks))
        stages;
    (* a threshold is positive and a slowdown only scales the base
       demands, so no attempt has more live cells than its task has
       nonzero ones *)
    live_res.(p) <-
      Array.map
        (Array.map (fun (cells : float array) ->
             let n = ref 0 in
             for r = 0 to Array.length cells - 1 do
               if cells.(r) > 0. then incr n
             done;
             Array.make !n 0))
        remaining.(p);
    live_cells.(p) <- Array.map2 (Array.map2 (fill_live p)) remaining.(p) live_res.(p);
    live_tasks.(p) <-
      Array.map
        (Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0)
        live_cells.(p);
    stages_done.(p) <- 0
  in
  Array.iteri (fun p (j : job) -> install p j.graph) jobs;
  let work = Array.map (fun (j : job) -> Task_graph.total_work j.graph) jobs in
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
  (* the simulator's trace names no job *)
  let stage_line p id what =
    emit
      (if solo then "stage " ^ string_of_int id ^ what
       else names.(p) ^ " stage " ^ string_of_int id ^ what)
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
  let rejected = Array.make nj None in
  let finished_at = Array.make nj nan in
  let stage_start = Array.make nj [] in
  let stage_finish = Array.make nj [] in
  let n_finished = ref 0 in
  (* the active jobs, in (arrival, job_id) order: arrivals are taken
     from [order] in that order, so each one joins at the end *)
  let active = Array.make nj 0 in
  let n_active = ref 0 in
  let next_arrival = ref 0 in
  (* exhausted.(p): a drain has emptied one of job p's running stages *)
  let exhausted = Array.make nj false in
  let log_fault f f_kind ?stage ?task ?resource f_attempt =
    f.n_faults <- f.n_faults + 1;
    f.faults_log <-
      {
        Solo.f_at = !time;
        f_kind;
        f_stage = stage;
        f_task = task;
        f_resource = resource;
        f_attempt;
      }
      :: f.faults_log
  in
  (* a new attempt of a faulted job's task: its fault draw, and its
     demands and live cells, refilled in place *)
  let start_attempt p f sid ti =
    let t = f.tasks.(sid).(ti) in
    let a = t.attempt + 1 in
    t.attempt <- a;
    if a > 1 then f.n_retries <- f.n_retries + 1;
    let d = Fault.draw f.fc ~stage:sid ~task:t.task_id ~attempt:a in
    let dem = remaining.(p).(sid).(ti) and slowdown = d.Fault.slowdown in
    for r = 0 to Array.length dem - 1 do
      dem.(r) <- t.base.(r) *. slowdown
    done;
    let e = thresh.(p) in
    let tot = total_of dem in
    t.attempt_work <- tot;
    let base_tot = total_of t.base in
    if tot > base_tot +. e then f.rework <- f.rework +. (tot -. base_tot);
    t.resume_at <- 0.;
    t.fail_at <-
      (if d.Fault.fails && tot > e then d.Fault.fail_point *. tot else infinity);
    let live = live_cells.(p).(sid) in
    let n = fill_live p dem live_res.(p).(sid).(ti) in
    live_tasks.(p).(sid) <-
      live_tasks.(p).(sid)
      + (if n > 0 then 1 else 0)
      - if live.(ti) <> 0 then 1 else 0;
    live.(ti) <- n;
    if d.Fault.slowdown > 1. +. eps then begin
      let label = labels.(p).(sid).(ti) in
      log_fault f Fault.Straggler ~stage:sid ~task:label a;
      emit
        (Printf.sprintf "task %s straggles x%.1f (attempt %d)" label
           d.Fault.slowdown a)
    end
  in
  let work_done p f sid ti =
    f.tasks.(sid).(ti).attempt_work -. total_of remaining.(p).(sid).(ti)
  in
  let due_failure p f sid ti =
    let fail_at = f.tasks.(sid).(ti).fail_at in
    fail_at < infinity && work_done p f sid ti >= fail_at -. thresh.(p)
  in
  let rec start_ready p =
    for id = 0 to n_stages.(p) - 1 do
      if status.(p).(id) = Pending && remaining_deps.(p).(id) = 0 then begin
        status.(p).(id) <- Running;
        (match fstate.(p) with
        | None ->
          stage_start.(p) <- (id, !time) :: stage_start.(p);
          stage_line p id " start"
        | Some f ->
          if Float.is_nan f.first_start.(id) then begin
            f.first_start.(id) <- !time;
            stage_line p id " start"
          end
          else stage_line p id " restart";
          for ti = 0 to Array.length f.tasks.(id) - 1 do
            start_attempt p f id ti
          done);
        if live_tasks.(p).(id) = 0 then complete p id
      end
    done
  and complete p id =
    status.(p).(id) <- Done;
    stages_done.(p) <- stages_done.(p) + 1;
    (match fstate.(p) with
    | None -> stage_finish.(p) <- (id, !time) :: stage_finish.(p)
    | Some f -> f.last_finish.(id) <- !time);
    stage_line p id " done";
    List.iter
      (fun dep -> remaining_deps.(p).(dep) <- remaining_deps.(p).(dep) - 1)
      dependents.(p).(id);
    start_ready p
  in
  (* complete job p's running stages with no live task, in stage order *)
  let complete_emptied p =
    let completed = ref false in
    for id = 0 to n_stages.(p) - 1 do
      if status.(p).(id) = Running && live_tasks.(p).(id) = 0 then begin
        complete p id;
        completed := true
      end
    done;
    !completed
  in
  let finish_jobs () =
    let kept = ref 0 in
    for k = 0 to !n_active - 1 do
      let p = active.(k) in
      if stages_done.(p) = n_stages.(p) then begin
        finished_at.(p) <- !time;
        incr n_finished;
        if not solo then emit (names.(p) ^ " done")
      end
      else begin
        active.(!kept) <- p;
        incr kept
      end
    done;
    n_active := !kept
  in
  (* ---------------------------------------------------------------- *)
  (* faulted jobs                                                      *)
  let exception Splice of Task_graph.t in
  let survivors p =
    let ids = ref [] in
    for id = n_stages.(p) - 1 downto 0 do
      if status.(p).(id) = Done then ids := id :: !ids
    done;
    !ids
  in
  let try_replan p f s_trigger ~survivors =
    match f.replanner with
    | Some rp when f.n_replans < max_replans_hard -> (
      let g = jobs.(p).graph in
      match
        rp { Solo.s_at = !time; s_trigger; s_graph = g; s_survivors = survivors }
      with
      | Some { Solo.new_graph; plan_key; info } ->
        f.n_replans <- f.n_replans + 1;
        f.replans_log <-
          { Solo.rp_at = !time; rp_trigger = s_trigger; rp_plan = plan_key; rp_info = info }
          :: f.replans_log;
        emit
          (Printf.sprintf "replan %d after %s -> %s" f.n_replans
             (Solo.trigger_to_string s_trigger) plan_key);
        (* keep only the surviving checkpoints' work in the useful-work
           total; the residual graph replaces the rest *)
        let stage_work id =
          List.fold_left
            (fun acc (t : Task_graph.task) -> acc +. total_of t.Task_graph.demands)
            0. g.Task_graph.stages.(id).Task_graph.tasks
        in
        let survived =
          List.fold_left (fun acc id -> acc +. stage_work id) 0. survivors
        in
        work.(p) <-
          work.(p)
          -. (Task_graph.total_work g -. survived)
          +. Task_graph.total_work new_graph;
        raise_notrace (Splice new_graph)
      | None -> ())
    | _ -> ()
  in
  let is_replan f =
    match f.recovery with Recovery.Replan _ -> true | _ -> false
  in
  let uses_resource p f sid r =
    Array.exists
      (fun (t : ftask) -> r < Array.length t.base && t.base.(r) > thresh.(p))
      f.tasks.(sid)
  in
  let process_grows p f =
    let newly = ref 0 in
    for i = 0 to Array.length f.grows - 1 do
      let gr = f.grows.(i) in
      if (not f.grow_seen.(i)) && gr.Fault.g_at <= !time +. 1e-12 then begin
        f.grow_seen.(i) <- true;
        incr newly;
        f.live_dims <- f.live_dims + 1;
        emit
          (Printf.sprintf "resource %d joins (%s, speed %.2f)" (f.nr0 + i)
             (Parqo_machine.Resource.kind_to_string gr.Fault.g_kind)
             gr.Fault.g_speed);
        log_fault f Fault.Scale_out ~resource:(f.nr0 + i) 0
      end
    done;
    (* new capacity is useless to the in-flight plan — only a re-planner
       can route work onto it; batch same-instant grows into one offer *)
    if !newly > 0 && is_replan f then
      try_replan p f (Solo.Scale_out { n_new = !newly }) ~survivors:(survivors p)
  in
  (* a full loss destroys the checkpoints resident on the resource:
     completed stages there re-execute, and running consumers of a lost
     checkpoint restart with them *)
  let lose_checkpoints p f r =
    for id = 0 to n_stages.(p) - 1 do
      if status.(p).(id) = Done && uses_resource p f id r then begin
        status.(p).(id) <- Pending;
        stages_done.(p) <- stages_done.(p) - 1;
        f.last_finish.(id) <- nan;
        List.iter
          (fun dep -> remaining_deps.(p).(dep) <- remaining_deps.(p).(dep) + 1)
          dependents.(p).(id);
        stage_line p id (Printf.sprintf " checkpoint lost (resource %d)" r)
      end
    done;
    for id = 0 to n_stages.(p) - 1 do
      if status.(p).(id) = Running && remaining_deps.(p).(id) > 0 then begin
        status.(p).(id) <- Pending;
        stage_line p id " waits (input lost)"
      end
    done;
    start_ready p
  in
  let process_outages p f =
    for i = 0 to Array.length f.outages - 1 do
      let o = f.outages.(i) in
      let r = o.Fault.resource in
      if (not f.onset_seen.(i)) && o.Fault.at <= !time +. 1e-12 then begin
        f.onset_seen.(i) <- true;
        emit
          (Printf.sprintf "resource %d down x%.2f for %.1f" r o.Fault.factor
             o.Fault.duration);
        log_fault f Fault.Resource_outage ~resource:r 0;
        if
          o.Fault.factor <= eps
          && (f.recovery = Recovery.Restart_from_sync || is_replan f)
        then begin
          (if is_replan f then
             (* recovery is about to cross a sync point: offer the
                surviving checkpoint frontier to the re-planner *)
             let destroyed, kept =
               List.partition (fun id -> uses_resource p f id r) (survivors p)
             in
             if destroyed <> [] then
               try_replan p f (Solo.Checkpoint_loss { resource = r }) ~survivors:kept);
          lose_checkpoints p f r
        end
        else if
          is_replan f && o.Fault.factor > eps
          && o.Fault.factor < 1. -. eps
          && o.Fault.duration > eps
        then
          (* a brownout destroys nothing, but a re-planner may prefer to
             steer the residual work away from the slowed resource *)
          try_replan p f
            (Solo.Slowdown { resource = r; factor = o.Fault.factor })
            ~survivors:(survivors p)
      end;
      if
        (not f.expiry_seen.(i))
        && o.Fault.at +. o.Fault.duration <= !time +. 1e-12
      then begin
        f.expiry_seen.(i) <- true;
        emit (Printf.sprintf "resource %d restored" r)
      end
    done
  in
  let maybe_inflation_replan p f =
    match f.recovery with
    | Recovery.Replan { threshold; _ }
      when Option.is_some f.replanner
           && threshold < infinity
           && f.seg_base > thresh.(p)
           && f.rework > threshold *. f.seg_base -> (
      (* at least one checkpoint must anchor the residual — otherwise
         the restart policies already do the best possible thing *)
      match survivors p with
      | [] -> ()
      | kept ->
        try_replan p f
          (Solo.Work_inflation { ratio = f.rework /. f.seg_base })
          ~survivors:kept)
    | _ -> ()
  in
  let inject_due_failures p f =
    let fired = ref false in
    for id = 0 to n_stages.(p) - 1 do
      let tasks = f.tasks.(id) in
      for ti = 0 to Array.length tasks - 1 do
        if status.(p).(id) = Running && due_failure p f id ti then begin
          fired := true;
          let a = tasks.(ti).attempt and label = labels.(p).(id).(ti) in
          log_fault f Fault.Task_failure ~stage:id ~task:label a;
          emit (Printf.sprintf "task %s fault (attempt %d)" label a);
          match f.recovery with
          | Recovery.Retry_task _ ->
            f.rework <- f.rework +. work_done p f id ti;
            start_attempt p f id ti;
            tasks.(ti).resume_at <-
              !time +. Recovery.backoff_delay f.recovery ~attempt:a
          | Recovery.Restart_stage | Recovery.Restart_from_sync
          | Recovery.Replan _ ->
            for tj = 0 to Array.length tasks - 1 do
              f.rework <- f.rework +. work_done p f id tj
            done;
            stage_line p id " restart";
            for tj = 0 to Array.length tasks - 1 do
              start_attempt p f id tj
            done
        end
      done
    done;
    !fired
  in
  (* One pass settles an instant for a faulted job, as one step of the
     simulator's loop: boundaries, the inflation trigger, then due
     fail-stops or else completions; it repeats while one fires.  A new
     graph's first pass starts its ready stages first.  A splice installs
     the new graph and starts over on it. *)
  let rec passes p f =
    if stages_done.(p) < n_stages.(p) then begin
      if f.passes >= f.max_passes then fail "did not converge under faults";
      f.passes <- f.passes + 1;
      process_grows p f;
      process_outages p f;
      maybe_inflation_replan p f;
      if inject_due_failures p f || complete_emptied p then passes p f
    end
  in
  let rec settle p f =
    match
      if f.passes = 0 then begin
        process_grows p f;
        process_outages p f;
        start_ready p
      end;
      passes p f
    with
    | () -> ()
    | exception Splice g ->
      if g.Task_graph.n_resources <> f.live_dims then
        fail "replanned graph resource-dimension mismatch";
      (match Task_graph.validate g with
      | Ok () -> ()
      | Error msg -> fail ("invalid replanned task graph: " ^ msg));
      jobs.(p) <- { (jobs.(p)) with graph = g };
      install p g;
      settle p f
  in
  (* Before a faulted job drains: the capacity of this instant, zero for
     a grown resource before its onset and at or below [eps]; and a task
     in its retry backoff is parked, its live count negated, so the
     drain, which looks only at positive counts, passes it by. *)
  let prepare_drain p f =
    Fault.capacities f.fc ~time:!time speed_now;
    for r = 0 to nr - 1 do
      if (r >= f.nr0 && not f.grow_seen.(r - f.nr0)) || not (speed_now.(r) > eps)
      then speed_now.(r) <- 0.
    done;
    for id = 0 to n_stages.(p) - 1 do
      if status.(p).(id) = Running then begin
        let live = live_cells.(p).(id) in
        for ti = 0 to Array.length live - 1 do
          let parked = f.tasks.(id).(ti).resume_at > !time +. 1e-12 in
          if (live.(ti) > 0 && parked) || (live.(ti) < 0 && not parked) then
            live.(ti) <- -live.(ti)
        done
      end
    done
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
      if not solo then emit (names.(p) ^ " arrives");
      (* a faulted job starts its stages when it settles *)
      if Option.is_none fstate.(p) then start_ready p
  in
  (* The counting pass fills counts.(p).(r), the live tasks of job p
     demanding r (the within-job sharing degree), and least.(p).(r), the
     least of their demands on r; contenders.(r) lists the jobs with a
     nonzero count on r, in active order, in its first n_cont.(r)
     slots.  The policy pass turns each count into factor.(p).(r), the
     per-task slowdown [count * n_eligible], 0. when job p is not
     eligible on r, and clears the count for the next event. *)
  let counts = Array.make_matrix nj nr 0 in
  let least = Array.make_matrix nj nr 0. in
  let factor = Array.make_matrix nj nr 0. in
  let contenders = Array.make_matrix nr nj 0 in
  let n_cont = Array.make nr 0 in
  let compute_shares () =
    Array.fill n_cont 0 nr 0;
    for k = 0 to !n_active - 1 do
      let p = active.(k) in
      let cnt = counts.(p) and low = least.(p) in
      let demanding = ref false in
      for id = 0 to n_stages.(p) - 1 do
        if status.(p).(id) = Running then begin
          let tasks = remaining.(p).(id) and live = live_cells.(p).(id) in
          for ti = 0 to Array.length tasks - 1 do
            let n = live.(ti) in
            if n > 0 then begin
              let cells = tasks.(ti) and res = live_res.(p).(id).(ti) in
              for i = 0 to n - 1 do
                let r = res.(i) in
                let d = cells.(r) and c = cnt.(r) in
                if c = 0 then begin
                  low.(r) <- d;
                  contenders.(r).(n_cont.(r)) <- p;
                  n_cont.(r) <- n_cont.(r) + 1
                end
                else if d < low.(r) then low.(r) <- d;
                cnt.(r) <- c + 1
              done;
              demanding := true
            end
          done
        end
      done;
      if !demanding && policy = Shortest_remaining_work then measure_remaining p
    done;
    for r = 0 to nr - 1 do
      let n = n_cont.(r) and cont = contenders.(r) in
      if n > 0 then begin
        (* the policy's pick among the contenders on r *)
        let best = ref min_int and n_best = ref 0 and winner = ref (-1) in
        (match policy with
        | Fair_share -> ()
        | Strict_priority ->
          for i = 0 to n - 1 do
            let pr = jobs.(cont.(i)).priority in
            if pr > !best then begin
              best := pr;
              n_best := 1
            end
            else if pr = !best then incr n_best
          done
        | Shortest_remaining_work ->
          for i = 0 to n - 1 do
            let p = cont.(i) and w = !winner in
            if
              w < 0
              || rem_work.(p) < rem_work.(w)
              || rem_work.(p) = rem_work.(w)
                 && jobs.(p).job_id < jobs.(w).job_id
            then winner := p
          done);
        let n_elig =
          float_of_int
            (match policy with
            | Fair_share -> n
            | Strict_priority -> !n_best
            | Shortest_remaining_work -> 1)
        in
        for i = 0 to n - 1 do
          let p = cont.(i) in
          factor.(p).(r) <-
            (if
               match policy with
               | Fair_share -> true
               | Strict_priority -> jobs.(p).priority = !best
               | Shortest_remaining_work -> p = !winner
             then float_of_int counts.(p).(r) *. n_elig
             else 0.);
          counts.(p).(r) <- 0
        done
      end
    done
  in
  (* The next demand exhaustion among eligible tasks, read from the
     least demands: [d *. f /. s] is monotone in [d] under IEEE
     rounding, so the least demand of a job on a resource gives the
     least candidate of all its tasks there. *)
  let next_exhaustion () =
    let dt = ref infinity in
    for r = 0 to nr - 1 do
      let s = speed_now.(r) and cont = contenders.(r) in
      if s > 0. then
        for i = 0 to n_cont.(r) - 1 do
          let p = cont.(i) in
          let f = factor.(p).(r) in
          if f > 0. then begin
            let c = least.(p).(r) *. f /. s in
            if c < !dt then dt := c
          end
        done
    done;
    !dt
  in
  (* A faulted job's other timed events before [dt]: a fail-stop, the end
     of a retry backoff, a capacity boundary — each only when more than
     1e-12 ahead.  (An exhaustion always is: capacity never exceeds 1.) *)
  let next_fault_event p f dt =
    let dt = ref dt in
    let fac = factor.(p) in
    for id = 0 to n_stages.(p) - 1 do
      if status.(p).(id) = Running then begin
        let tasks = remaining.(p).(id) and live = live_cells.(p).(id) in
        for ti = 0 to Array.length tasks - 1 do
          let t = f.tasks.(id).(ti) and cells = tasks.(ti) in
          let n = live.(ti) in
          if n > 0 then begin
            if t.fail_at < infinity then begin
              let res = live_res.(p).(id).(ti) and rate = ref 0. in
              for i = 0 to n - 1 do
                let r = res.(i) in
                if speed_now.(r) > 0. then
                  rate := !rate +. (speed_now.(r) /. fac.(r))
              done;
              if !rate > eps then
                dt := earlier ((t.fail_at -. work_done p f id ti) /. !rate) !dt
            end
          end
          else if
            t.resume_at > !time +. 1e-12 && Array.exists (fun d -> d > eps) cells
          then dt := earlier (t.resume_at -. !time) !dt
        done
      end
    done;
    let b = Fault.next_boundary f.bounds ~from:f.next_bound ~after:!time in
    f.next_bound <- b;
    if b < Array.length f.bounds then
      dt := earlier (f.bounds.(b) -. !time) !dt;
    !dt
  in
  (* The one drain path: move the clock to [until] and drain [dt] of
     service.  Then complete the stages the drain emptied (in active
     order, then stage id) and finish the jobs they complete; a faulted
     job completes its stages when it settles.  A task that the drain
     exhausts is stamped with [until], as its stage is. *)
  let advance ~until dt =
    time := until;
    for r = 0 to nr - 1 do
      if n_cont.(r) > 0 then busy.(r) <- busy.(r) +. (dt *. speed_now.(r))
    done;
    for k = 0 to !n_active - 1 do
      let p = active.(k) in
      let fac = factor.(p) and e = thresh.(p) and fs = fstate.(p) in
      for id = 0 to n_stages.(p) - 1 do
        if status.(p).(id) = Running then begin
          let tasks = remaining.(p).(id) and live = live_cells.(p).(id) in
          for ti = 0 to Array.length tasks - 1 do
            let n = live.(ti) in
            if n > 0 then begin
              let cells = tasks.(ti) and res = live_res.(p).(id).(ti) in
              (* the cells left live keep their order at the front *)
              let kept = ref 0 in
              for i = 0 to n - 1 do
                let r = res.(i) in
                let d = cells.(r) and f = fac.(r) in
                let d' = if f > 0. then d -. (dt *. speed_now.(r) /. f) else d in
                if d' <= e then cells.(r) <- 0.
                else begin
                  cells.(r) <- d';
                  res.(!kept) <- r;
                  incr kept
                end
              done;
              live.(ti) <- !kept;
              if !kept = 0 then begin
                live_tasks.(p).(id) <- live_tasks.(p).(id) - 1;
                match fs with
                | None ->
                  emit ("task " ^ labels.(p).(id).(ti) ^ " done");
                  if live_tasks.(p).(id) = 0 then exhausted.(p) <- true
                | Some f ->
                  (* an attempt whose fail-stop is due is not done *)
                  if not (due_failure p f id ti) then
                    emit ("task " ^ labels.(p).(id).(ti) ^ " done")
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
        ignore (complete_emptied p)
      end
    done;
    finish_jobs ()
  in
  let total_stages = Array.fold_left ( + ) 0 n_stages in
  let guard = ref 0 in
  (* a faulted job bounds its own passes *)
  let max_events =
    if any_faulted then max_int
    else (1000 * (1 + total_stages) * (1 + nr)) + (10 * nj) + (10 * n_mev)
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
    if any_faulted then
      for k = 0 to !n_active - 1 do
        let p = active.(k) in
        match fstate.(p) with
        | Some f ->
          settle p f;
          if stages_done.(p) < n_stages.(p) then prepare_drain p f
        | None -> ()
      done;
    finish_jobs ();
    if !n_finished < nj then begin
      compute_shares ();
      let dt = next_exhaustion () in
      let dt =
        if not any_faulted then dt
        else begin
          let dt = ref dt in
          for k = 0 to !n_active - 1 do
            let p = active.(k) in
            match fstate.(p) with
            | Some f -> dt := next_fault_event p f !dt
            | None -> ()
          done;
          !dt
        end
      in
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
      else if any_faulted then
        Parqo_error.failf ~subsystem
          "starved at t=%.2f: demand on a permanently lost resource" !time
      else
        (* a stage with no drainable demand completes when it starts, so
           running demand with nothing to drain it is parked on
           zero-capacity resources with no arrival or machine event left
           to restore them *)
        fail
          "starved: remaining demand on zero-capacity resources with no \
           future machine event"
    end
  done;
  if !n_finished < nj then fail "did not converge";
  let by_id = Array.copy order in
  Array.sort (fun a b -> compare jobs.(a).job_id jobs.(b).job_id) by_id;
  (* a faulted job reports each stage's first start and last finish, in
     (time, id) order *)
  let collect arr =
    let entries = ref [] in
    Array.iteri
      (fun id t -> if not (Float.is_nan t) then entries := (id, t) :: !entries)
      arr;
    List.sort
      (fun (i1, t1) (i2, t2) ->
        match Float.compare t1 t2 with 0 -> compare i1 i2 | c -> c)
      !entries
  in
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
          stage_start =
            (match fstate.(p) with
            | None -> List.rev stage_start.(p)
            | Some f -> collect f.first_start);
          stage_finish =
            (match fstate.(p) with
            | None -> List.rev stage_finish.(p)
            | Some f -> collect f.last_finish);
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

let run ?(policy = Fair_share) ?(events = []) (jobs : job array) =
  let nr = validate_jobs jobs in
  let mevents = validate_events ~nr events in
  loop ~solo:false ~policy ~nr ~mevents
    ~fstate:(Array.make (Array.length jobs) None)
    jobs

let run_solo ?faults ?(recovery = Recovery.default) ?replanner
    (g : Task_graph.t) =
  (match Task_graph.validate g with
  | Ok () -> ()
  | Error msg ->
    Parqo_error.fail ~subsystem:"simulator" ("invalid task graph: " ^ msg));
  let f =
    match faults with
    | None -> None
    | Some fc -> (
      match Fault.validate fc with
      | Error msg ->
        Parqo_error.fail ~subsystem:"simulator" ("invalid fault config: " ^ msg)
      | Ok () when Fault.is_active fc -> Some (faulted fc recovery replanner g)
      | Ok () -> None)
  in
  let nr =
    g.Task_graph.n_resources
    + match f with Some f -> Array.length f.grows | None -> 0
  in
  let o =
    loop ~solo:true ~policy:Fair_share ~nr ~mevents:[||] ~fstate:[| f |]
      [| job ~job_id:0 g |]
  in
  let j = o.jobs.(0) in
  let n_faults, n_retries, n_replans, replans, faults =
    match f with
    | None -> (0, 0, 0, [], [])
    | Some f ->
      ( f.n_faults,
        f.n_retries,
        f.n_replans,
        List.rev f.replans_log,
        List.rev f.faults_log )
  in
  {
    Solo.makespan = o.makespan;
    busy = o.busy;
    total_work = o.total_work;
    stage_start = j.stage_start;
    stage_finish = j.stage_finish;
    trace = o.trace;
    n_faults;
    n_retries;
    n_replans;
    replans;
    faults;
  }
