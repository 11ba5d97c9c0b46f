(** Deterministic, seed-driven fault injection for the execution
    simulator.

    Three fault kinds, mirroring the failure modes a shared-nothing
    machine actually exhibits:

    - {e fail-stop task faults}: a task attempt dies after completing a
      random fraction of its work; the lost work must be re-executed
      under a {!Recovery.policy};
    - {e stragglers}: an attempt runs with all demands inflated by a
      slowdown factor (a slow disk, a contended node);
    - {e resource outages}: a whole resource loses (factor [0.]) or
      degrades — {e browns out} — (factor in [(0,1)]) its capacity over a
      time window — an injection {e schedule}, fixed before the run;
    - {e scale-out}: a new resource joins the machine at a given time
      ({!grow}) — the recovery dual of an outage.  Grown resources extend
      the resource-vector dimension; they deliver nothing before their
      onset and nominal capacity after it (their static speed is folded
      into demand vectors when a replanned graph is lowered on the grown
      machine).

    Every random decision is a pure function of [(seed, stage, task,
    attempt)] via {!Parqo_util.Rng}, so the injected fault sequence is
    independent of simulator event ordering: the same seed and config
    reproduce the same faults, retries and makespan bit-for-bit. *)

type kind = Task_failure | Straggler | Resource_outage | Scale_out

val kind_name : kind -> string

type outage = {
  resource : int;
  at : float;  (** onset time *)
  duration : float;
  factor : float;  (** remaining capacity in [0,1]; [0.] = full loss *)
}

type grow = {
  g_at : float;  (** time the new resource comes online *)
  g_kind : Parqo_machine.Resource.kind;
  g_node : int;  (** hosting site; [-1] for an interconnect *)
  g_speed : float;  (** static relative speed of the new resource, > 0 *)
}

type config = {
  seed : int;
  task_fail_rate : float;  (** per-attempt fail-stop probability, [0,1) *)
  max_fail_attempts : int;
      (** attempts beyond this never fail — bounds re-execution and
          guarantees simulation termination *)
  straggler_rate : float;  (** per-attempt straggler probability *)
  straggler_factor : float;  (** demand inflation for straggler attempts, >= 1 *)
  outages : outage list;  (** the resource-loss injection schedule *)
  grows : grow list;  (** the scale-out schedule *)
}

val none : config
(** All rates zero, no outages: {!is_active} is [false]. *)

val default : ?seed:int -> ?straggler:bool -> fault_rate:float -> unit -> config
(** Fail-stop rate [fault_rate] with up to 8 failing attempts per task;
    when [straggler] (default [false]), also stragglers at half that
    rate with a 4x slowdown.  [seed] defaults to 0. *)

val brownout :
  resource:int -> at:float -> duration:float -> factor:float -> outage
(** An {!outage} that throttles rather than kills: raises
    [Invalid_argument] unless [factor] is strictly inside [(0, 1)]. *)

val is_active : config -> bool
(** Whether the config can inject anything at all. *)

val validate : config -> (unit, string) result
(** Rates in range, factor sanity, outage times non-negative. *)

type draw = {
  fails : bool;
  fail_point : float;
      (** fraction of the attempt's work completed when it dies, in
          [(0.05, 0.95)]; meaningful only when [fails] *)
  slowdown : float;  (** [1.] or [straggler_factor] *)
}

val draw : config -> stage:int -> task:int -> attempt:int -> draw
(** The fault decision for one task attempt (attempts count from 1).
    Pure: equal arguments give equal draws. *)

val random_outages :
  Parqo_util.Rng.t ->
  n_resources:int ->
  horizon:float ->
  rate:float ->
  mean_duration:float ->
  outage list
(** A Poisson-ish schedule: each resource suffers full-loss outages at
    exponential inter-arrival times of mean [horizon /. rate] within
    [[0, horizon)], each lasting an exponential [mean_duration]. *)

val random_rescales :
  Parqo_util.Rng.t ->
  n_resources:int ->
  horizon:float ->
  rate:float ->
  mean_duration:float ->
  factor:float ->
  outage list
(** Like {!random_outages} but the windows are brownouts at the given
    remaining-capacity [factor] (strictly inside [(0, 1)]). *)

val capacity : config -> time:float -> resource:int -> float
(** Available capacity of [resource] at [time]: the product of the
    factors of all outages covering [time] (clamped to [0]). [1.] when
    no outage applies. *)

val capacities : config -> time:float -> float array -> unit
(** [capacities c ~time caps] sets each [caps.(r)] to
    [capacity c ~time ~resource:r] and allocates nothing: the event loop
    asks it on every drain. *)

val next_capacity_change : config -> after:float -> float option
(** The earliest outage onset or expiry — or grow onset — more than
    [1e-12] later than [after]: the simulator's piecewise-constant
    capacity boundaries. *)

val boundaries : config -> float array
(** Every outage onset and expiry and every grow onset, ascending
    ({!Float.compare} order): the instants {!next_capacity_change}
    chooses from. *)

val next_boundary : float array -> from:int -> after:float -> int
(** The index of the first entry of ascending [b], from index [from]
    on, more than [1e-12] later than [after]; [Array.length b] if none.
    [b.(next_boundary b ~from:0 ~after)] is
    [next_capacity_change c ~after] for [b = boundaries c], and a
    caller whose [after] never decreases may pass the last index back
    as [from]; neither allocates. *)

val pp : Format.formatter -> config -> unit
