(** Workload co-scheduling: many task graphs sharing one machine.

    This module holds the one event loop of [lib/sim].  It runs a
    {e workload} — jobs with arrival instants drawn from a
    {!Workload.arrival} process — under a scheduling policy, and reports
    per-query response times plus workload-level statistics.  That makes
    the work-bound dual of the paper's §2 measurable: under contention,
    response time is governed by total work, so low-work plans beat
    solo-optimal (low-response-time) plans — see {!expected_pressure}
    and [Optimizer.minimize_under_contention].  {!Simulator.run}, which
    prices one plan against an idle machine under optional faults, is a
    one-job run of the same loop ({!run_solo}).

    Model: per resource and instant, the policy selects the {e eligible}
    jobs among those demanding the resource; eligible jobs split its
    unit capacity evenly, and within a job the share splits evenly over
    its demanding tasks (processor sharing).  Ineligible jobs are
    preempted on that resource.  With one job the per-task slowdown
    factor is [count * 1], and multiplication by [1.0] is IEEE-exact, so
    a one-job {!run} and a fault-free {!run_solo} agree bit for bit
    (Int64-bit float equality) under every policy.  On every demanded
    resource the eligible class drains exactly at capacity, so
    per-resource busy time equals delivered work (busy conservation) and
    utilization never exceeds 1. *)

type policy =
  | Fair_share
      (** processor sharing across all jobs demanding the resource *)
  | Strict_priority
      (** only the highest-priority demanding class runs (larger
          {!job.priority} wins); the class shares the resource evenly *)
  | Shortest_remaining_work
      (** the single demanding job with the least total remaining work
          (ties by lowest [job_id]) owns the resource — SRPT lifted to
          multi-resource DAGs *)

val policy_to_string : policy -> string
(** ["fair"] / ["priority"] / ["srw"]. *)

val policy_of_string : string -> (policy, string) result
(** Accepts the names above plus common aliases ([fair-share], [ps],
    [strict-priority], [srpt], [shortest-remaining-work]); the error
    lists valid names. *)

val all_policies : policy list

type job = {
  job_id : int;  (** unique within the workload *)
  label : string;  (** for traces; [""] shows as [q<id>] *)
  arrival : float;  (** time units from workload start; finite, >= 0 *)
  priority : int;  (** larger = more urgent; only [Strict_priority] reads it *)
  deadline : float option;
      (** response-time budget from arrival, finite and positive; [None]
          admits unconditionally.  At the arrival instant the scheduler
          estimates the job's response as (active backlog + its own
          work) / total effective speed and sheds the job ([Rejected])
          when the estimate exceeds the budget. *)
  graph : Task_graph.t;
}

val job :
  ?label:string -> ?priority:int -> ?arrival:float -> ?deadline:float ->
  job_id:int -> Task_graph.t -> job
(** [label] defaults to [""], [priority] to [0], [arrival] to [0.],
    [deadline] to [None]. *)

type event = { at : float; what : string }

type machine_event = { ev_at : float; ev_resource : int; ev_speed : float }
(** The machine changing under the workload: from instant [ev_at] on,
    resource [ev_resource] delivers capacity [ev_speed] (absolute, not a
    delta; [1.] is nominal, [0.] an outage, values in between a
    brownout, above [1.] a speed-up).  Same-instant events on one
    resource apply in list order — the last one wins.  An event that
    leaves a resource at its current speed is a no-op and is dropped, so
    an all-nominal ([1.0]) event list is bit-identical to no events at
    all. *)

type disposition =
  | Completed
  | Rejected of string
      (** shed at admission; the string says why (estimate vs deadline) *)

type job_outcome = {
  job_id : int;
  label : string;
  arrival : float;
  started : float;  (** instant the job was admitted (its arrival) *)
  finished : float;  (** instant its last stage completed *)
  response : float;  (** [finished - arrival]; [0.] for a rejected job *)
  work : float;  (** total work of its task graph (offered, even if shed) *)
  disposition : disposition;
  stage_start : (int * float) list;  (** empty for a rejected job *)
  stage_finish : (int * float) list;
}

type outcome = {
  policy : policy;
  jobs : job_outcome array;  (** ascending [job_id] *)
  makespan : float;  (** workload start to last completion *)
  busy : float array;
      (** per-resource busy time in delivered-work units: a contended
          resource accrues [dt * speed], so busy conservation holds
          against effective capacity *)
  total_work : float;  (** sum over admitted (non-rejected) jobs *)
  trace : event list;
}

type summary = {
  n_jobs : int;
  n_rejected : int;  (** jobs shed by admission control *)
  makespan : float;
  utilization : float;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;  (** response-time quantiles over completed jobs *)
  max : float;
}

val run : ?policy:policy -> ?events:machine_event list -> job array -> outcome
(** Co-schedule the jobs.  [policy] defaults to [Fair_share]; [events]
    (default none) is the timed machine-event list — per-resource speeds
    are piecewise-constant, starting at [1.] and switching at each
    event's instant.  Tasks drain a resource at [speed / factor] and a
    speed-0 window parks demand until capacity returns.  With no events
    and no deadlines the run is bit-identical (Int64-bit float equality)
    to the fixed-capacity scheduler — all speeds are [1.0] and
    multiplication/division by [1.0] is IEEE-exact.

    Raises {!Parqo_util.Parqo_error.Error} (subsystem ["scheduler"]) on
    an empty workload, duplicate job ids, resource-dimension mismatches,
    invalid arrivals, deadlines, or machine events, graphs rejected by
    {!Task_graph.validate}, or a starved workload (demand left on
    zero-capacity resources with no future machine event); never raises
    on a valid, non-starved workload. *)

val summarize : outcome -> summary

val utilization : outcome -> float
(** [total_work / (makespan * n_resources)]; [1.] for an empty span. *)

val effective_speeds : Parqo_machine.Machine.t -> float array
(** Per-resource speed of the machine, indexed by resource id — the
    [?speeds] argument {!expected_pressure} wants for a degraded or
    heterogeneous machine. *)

val expected_pressure :
  ?horizon:float -> ?speeds:float array -> n_resources:int ->
  job array -> float array
(** The contention signal: per-resource offered load of the active set —
    total demanded work on each resource divided by [horizon].  The
    default horizon is the arrival span plus the mean job's solo drain
    time (the window over which that work lands on the machine), so a
    burst of [k] unit jobs yields pressure ~[k ×] each job's per-resource
    share.  [speeds] (length [n_resources]) rescales each resource's
    pressure by its effective capacity — a half-speed resource is twice
    as loaded by the same work, and a zero-speed resource with offered
    work reads [infinity]; omitted, capacity is nominal and the result
    is bit-identical to the pre-speed signal.  Feed it to
    [Metric.contention_rank] / [Optimizer.minimize_under_contention] to
    re-rank plans for a loaded machine.  Raises [Invalid_argument] on a
    non-positive [horizon] or a mis-sized [speeds]. *)

(** {1 One job alone, under faults}

    What {!run_solo} reports.  [Simulator] includes this module: its
    outcome, fault and re-plan records are these. *)
module Solo : sig
  type nonrec event = event = {
    at : float;
    what : string;  (** e.g. ["task sort done"], ["stage 3 start"] *)
  }

  type fault_event = {
    f_at : float;
    f_kind : Fault.kind;
    f_stage : int option;  (** the affected stage, for task-level faults *)
    f_task : string option;  (** the affected task's label *)
    f_resource : int option;  (** the lost resource, for outages *)
    f_attempt : int;  (** which attempt faulted (from 1); [0] for outages *)
  }

  type replan_trigger =
    | Checkpoint_loss of { resource : int }
        (** a full-loss outage destroyed checkpoints on [resource] *)
    | Work_inflation of { ratio : float }
        (** cumulative rework reached [ratio] × the graph's base work *)
    | Slowdown of { resource : int; factor : float }
        (** a brownout began: [resource] runs at [factor] of its capacity
            — nothing is destroyed, but the residual work may be worth
            steering elsewhere *)
    | Scale_out of { n_new : int }
        (** [n_new] grown resources just came online; only a re-planned
            graph (lowered on the grown machine) can place work on them *)

  val trigger_to_string : replan_trigger -> string
  (** e.g. ["checkpoint loss (resource 3)"], ["work inflation x0.62"] *)

  type replan_event = {
    rp_at : float;  (** simulation time of the splice *)
    rp_trigger : replan_trigger;
    rp_plan : string;  (** canonical key of the chosen residual plan *)
    rp_info : string;  (** re-optimization summary (expansions, fallback…) *)
  }

  type snapshot = {
    s_at : float;  (** current simulation time *)
    s_trigger : replan_trigger;
    s_graph : Task_graph.t;  (** the graph being abandoned *)
    s_survivors : int list;
        (** stage ids of [s_graph] whose materialized outputs survive —
            the checkpoint frontier the residual query may build on *)
  }

  type replan = {
    new_graph : Task_graph.t;
        (** residual graph; its [n_resources] must equal the machine's
            {e current} dimension — the initial graph's plus every grow
            event already online *)
    plan_key : string;
    info : string;
  }

  type replanner = snapshot -> replan option
  (** Returning [None] declines — recovery falls back to
      [Restart_from_sync] semantics for this trigger. *)

  type outcome = {
    makespan : float;
        (** end-to-end completion time; includes recovery re-execution
            when faults were injected *)
    busy : float array;
        (** per-resource busy time; equals per-resource demand totals in
            a failure-free run, and includes re-executed and inflated work
            under faults.  With scale-out events the array covers the
            grown dimensions too (initial [n_resources] + one per grow
            event, in onset order). *)
    total_work : float;
        (** failure-free work of the graph; after a re-plan splice, the
            surviving checkpoints' work plus the residual graph's work *)
    stage_start : (int * float) list;
        (** first activation time per stage (restarts do not move it), in
            event order — or, under faults, in (time, stage id) order;
            stages of the {e final} graph when re-planning spliced one in *)
    stage_finish : (int * float) list;  (** final completion time per stage *)
    trace : event list;  (** chronological; includes fault events *)
    n_faults : int;
        (** injected faults: fail-stops + stragglers + outages + grows;
            [0] without fault injection *)
    n_retries : int;  (** task re-executions beyond each task's first attempt *)
    n_replans : int;  (** re-plan splices performed (0 unless [Replan]) *)
    replans : replan_event list;  (** chronological *)
    faults : fault_event list;  (** chronological *)
  }
end

val run_solo :
  ?faults:Fault.config -> ?recovery:Recovery.policy ->
  ?replanner:Solo.replanner -> Task_graph.t -> Solo.outcome
(** One job, arriving at 0 on an idle machine of the graph's dimension
    (plus any grown resources), under the simulator's conventions: the
    trace names no job and has no arrival or completion lines, and errors
    come from subsystem ["simulator"].  This is {!Simulator.run}; see
    there.  A faulted job drains down to one part in 1e12 of its graph's
    work (floored at 1e-9), and settles each instant in a fixed order:
    grow boundaries, outage boundaries, the work-inflation trigger, due
    fail-stops, then completions, repeated until none fires.  A splice
    replaces the job's graph state; the clock, busy time, logs and the
    outage and grow flags carry over. *)
