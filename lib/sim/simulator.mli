(** A fluid discrete-event simulator of parallel plan execution, with
    optional fault injection and recovery.

    Resources are preemptable and time-shared (the paper's §5.2.1
    assumptions, realized as processor sharing): at any instant, each
    resource divides its unit capacity equally among the tasks of running
    stages that still demand it; a task progresses on all its resources
    concurrently and finishes when every demand is exhausted; a stage
    finishes when all its tasks do, releasing dependent stages.  The
    makespan is the simulated response time.  The sequential-execution
    baseline of the §5 desiderata is the plan's
    {!Task_graph.total_work}.

    With a {!Fault.config} the simulator injects fail-stop task faults,
    stragglers and resource outages from a deterministic seed-driven
    schedule, and recovers per the {!Recovery.policy}: a stage is a
    pipelined segment, its dependency edges are materialized sync points,
    so recovery re-executes the failed segment back to its nearest
    checkpoint.  Without faults (or with an inactive config) behavior is
    bit-identical to the failure-free simulator.

    Under the {!Recovery.Replan} policy a [replanner] callback can be
    supplied: when recovery crosses a sync point (a full-loss outage
    destroys checkpoints, or cumulative rework exceeds the policy
    threshold), the simulator snapshots the surviving checkpoint
    frontier and asks the callback for a task graph of the {e residual}
    query; if one is returned it is spliced in and simulation continues
    on it, on the same clock and busy counters.  When the callback
    declines (or none is given), [Replan] behaves exactly like
    [Restart_from_sync].

    A simulation is a one-job run of {!Scheduler}'s event loop
    ({!Scheduler.run_solo}).  The outcome, fault and re-plan records are
    {!Scheduler.Solo}'s, documented there. *)

include module type of struct
  include Scheduler.Solo
end

val run :
  ?faults:Fault.config -> ?recovery:Recovery.policy ->
  ?replanner:replanner -> Task_graph.t -> outcome
(** [recovery] defaults to {!Recovery.default}.  When [faults] is absent
    or inactive, the result is bit-identical to the failure-free
    simulator (with the fault counters zero).  [replanner] is consulted
    only under the [Replan] policy.  Raises
    {!Parqo_util.Parqo_error.Error} on an invalid graph or fault config
    (task-graph validation per {!Task_graph.validate} also covers every
    spliced residual graph), and when every remaining demand sits on a
    permanently lost resource. *)

val simulate_plan :
  ?faults:Fault.config -> ?recovery:Recovery.policy ->
  Parqo_cost.Env.t -> Parqo_plan.Join_tree.t -> outcome
(** Expand, lower and simulate a join tree in one call. *)

val utilization : outcome -> float
(** [total_work / (makespan * n_resources)] — the fraction of machine
    capacity used; in (0, 1] for failure-free runs (re-execution under
    faults can only lower it). *)

val timeline : ?width:int -> outcome -> string
(** An ASCII Gantt chart of stage lifetimes, one row per stage:
    {v
    stage 1  |   ======                  | 12.0 .. 48.3
    stage 0  |         ================  | 48.3 .. 130.0  (2 faults)
    v}
    [width] (default 50) is the bar area in characters; rows of stages
    that suffered faults are annotated with the fault count, and one
    trailing line per re-plan splice records when and why it fired. *)
