(** Expected re-execution cost of a plan under fail-stop faults.

    The composition annotation of §4.2 is also a recovery choice: a
    [Materialized] edge checkpoints its producer, while a [Pipelined]
    segment must re-execute back to its nearest materialized ancestor
    after a failure.  This module prices that choice: decompose the
    operator tree into its pipelined segments (exactly the stages of
    [Task_graph.of_optree]), and charge each segment the expected work it
    re-executes when its tasks fail-stop at rate [fault_rate] per
    attempt.

    With [n] operators of total work [W] in a segment, each operator
    fails about [fault_rate] times in expectation and each failure loses
    on average half the segment's work under stage-restart recovery, so
    the segment's penalty is [fault_rate * n * W / 2].  More sync points
    mean smaller segments and a smaller penalty — at the price of the
    sync overhead the paper's calculus already charges.  The penalty is
    a pessimistic serial charge (re-execution is priced as time), which
    keeps the objective monotone in segment size. *)

val segments : Env.t -> Parqo_optree.Op.node -> (int * float) list
(** [(n_operators, total_work)] per pipelined segment, using the same
    decomposition (and the same nested-loops-inner exemption) as the
    simulator's task graph. *)

val expected_penalty : Env.t -> fault_rate:float -> Parqo_optree.Op.node -> float
(** [sum over segments of fault_rate * n * W / 2]; [0.] at rate [0.]. *)

val slowdown_penalty :
  Env.t -> rate:float -> factor:float -> Parqo_optree.Op.node -> float
(** Expected extra time from partial slowdowns (brownouts) rather than
    fail-stop loss: each segment operator browns out at [rate] per
    attempt to a remaining-capacity [factor], stretching the affected
    (half-segment, on average) work by [1/factor - 1] — so the charge is
    [sum over segments of rate * n * W * (1/factor - 1) / 2].  [0.] at
    rate [0.] or factor ≥ 1; raises [Invalid_argument] at factor ≤ 0
    (full loss is {!expected_penalty}'s regime). *)

val expected_response_time :
  ?slowdown:float * float ->
  Env.t ->
  fault_rate:float ->
  Costmodel.eval ->
  float
(** The failure-aware objective: calculus response time plus the
    expected re-execution penalty of the plan's operator tree, plus —
    when [slowdown = Some (rate, factor)] is given — the
    {!slowdown_penalty} of pricing brownouts at that rate.  Omitting
    [slowdown] leaves the objective bit-identical to the fail-stop-only
    form. *)
