module Rng = Parqo_util.Rng

type kind = Task_failure | Straggler | Resource_outage | Scale_out

let kind_name = function
  | Task_failure -> "task-failure"
  | Straggler -> "straggler"
  | Resource_outage -> "resource-outage"
  | Scale_out -> "scale-out"

type outage = { resource : int; at : float; duration : float; factor : float }

type grow = {
  g_at : float;
  g_kind : Parqo_machine.Resource.kind;
  g_node : int;
  g_speed : float;
}

type config = {
  seed : int;
  task_fail_rate : float;
  max_fail_attempts : int;
  straggler_rate : float;
  straggler_factor : float;
  outages : outage list;
  grows : grow list;
}

let none =
  {
    seed = 0;
    task_fail_rate = 0.;
    max_fail_attempts = 0;
    straggler_rate = 0.;
    straggler_factor = 1.;
    outages = [];
    grows = [];
  }

let default ?(seed = 0) ?(straggler = false) ~fault_rate () =
  {
    seed;
    task_fail_rate = fault_rate;
    max_fail_attempts = 8;
    straggler_rate = (if straggler then fault_rate /. 2. else 0.);
    straggler_factor = 4.;
    outages = [];
    grows = [];
  }

let brownout ~resource ~at ~duration ~factor =
  if not (factor > 0. && factor < 1.) then
    invalid_arg "Fault.brownout: factor must be in (0, 1)";
  { resource; at; duration; factor }

let is_active c =
  c.task_fail_rate > 0. || c.straggler_rate > 0. || c.outages <> []
  || c.grows <> []

let validate c =
  let in_unit ~strict_hi x = x >= 0. && if strict_hi then x < 1. else x <= 1. in
  if not (in_unit ~strict_hi:true c.task_fail_rate) then
    Error "task_fail_rate must be in [0, 1)"
  else if not (in_unit ~strict_hi:false c.straggler_rate) then
    Error "straggler_rate must be in [0, 1]"
  else if c.straggler_factor < 1. then Error "straggler_factor must be >= 1"
  else if c.max_fail_attempts < 0 then Error "max_fail_attempts must be >= 0"
  else if
    List.exists
      (fun o ->
        o.at < 0. || o.duration < 0. || o.factor < 0. || o.factor > 1.
        || o.resource < 0)
      c.outages
  then Error "outage fields out of range"
  else if
    List.exists
      (fun g ->
        (not (Float.is_finite g.g_at))
        || g.g_at < 0.
        || (not (Float.is_finite g.g_speed))
        || g.g_speed <= 0. || g.g_node < -1)
      c.grows
  then Error "grow fields out of range"
  else Ok ()

type draw = { fails : bool; fail_point : float; slowdown : float }

(* One independent generator per (seed, stage, task, attempt): the draw
   depends only on the identity of the attempt, never on simulation
   order.  The multipliers are large odd constants; Rng.create finishes
   the job with a SplitMix64 mix. *)
let draw c ~stage ~task ~attempt =
  let key =
    (((c.seed * 0x2545F491) + stage) * 0x9E3779B1)
    + (task * 0x85EBCA77) + (attempt * 0xC2B2AE35)
  in
  let rng = Rng.create key in
  let u_fail = Rng.float rng 1. in
  let u_point = Rng.float rng 1. in
  let u_strag = Rng.float rng 1. in
  {
    fails = attempt <= c.max_fail_attempts && u_fail < c.task_fail_rate;
    fail_point = 0.05 +. (0.9 *. u_point);
    slowdown =
      (if u_strag < c.straggler_rate then c.straggler_factor else 1.);
  }

let random_outages rng ~n_resources ~horizon ~rate ~mean_duration =
  if rate <= 0. then []
  else begin
    let out = ref [] in
    for r = 0 to n_resources - 1 do
      let t = ref (Rng.exponential rng ~mean:(horizon /. rate)) in
      while !t < horizon do
        let duration = Rng.exponential rng ~mean:mean_duration in
        out := { resource = r; at = !t; duration; factor = 0. } :: !out;
        t := !t +. duration +. Rng.exponential rng ~mean:(horizon /. rate)
      done
    done;
    List.rev !out
  end

let random_rescales rng ~n_resources ~horizon ~rate ~mean_duration ~factor =
  if not (factor > 0. && factor < 1.) then
    invalid_arg "Fault.random_rescales: factor must be in (0, 1)";
  if rate <= 0. then []
  else begin
    let out = ref [] in
    for r = 0 to n_resources - 1 do
      let t = ref (Rng.exponential rng ~mean:(horizon /. rate)) in
      while !t < horizon do
        let duration = Rng.exponential rng ~mean:mean_duration in
        out := { resource = r; at = !t; duration; factor } :: !out;
        t := !t +. duration +. Rng.exponential rng ~mean:(horizon /. rate)
      done
    done;
    List.rev !out
  end

(* each outage covering [time] scales its resource's cell, in list
   order; a top-level function, so that a lookup allocates no closure *)
let rec scale ~time caps = function
  | [] -> ()
  | o :: rest ->
    if
      o.resource < Array.length caps
      && time >= o.at -. 1e-12
      && time < o.at +. o.duration -. 1e-12
    then caps.(o.resource) <- caps.(o.resource) *. o.factor;
    scale ~time caps rest

let capacities c ~time caps =
  Array.fill caps 0 (Array.length caps) 1.;
  scale ~time caps c.outages;
  (* [Float.max 0.], without boxing *)
  for r = 0 to Array.length caps - 1 do
    if caps.(r) <= 0. then caps.(r) <- 0.
  done

let capacity c ~time ~resource =
  let caps = Array.make (resource + 1) 1. in
  capacities c ~time caps;
  caps.(resource)

let boundaries c =
  let b =
    Array.of_list
      (List.concat_map (fun o -> [ o.at; o.at +. o.duration ]) c.outages
      @ List.map (fun g -> g.g_at) c.grows)
  in
  Array.sort Float.compare b;
  b

let next_boundary b ~from ~after =
  let i = ref from in
  while !i < Array.length b && not (b.(!i) > after +. 1e-12) do
    incr i
  done;
  !i

let next_capacity_change c ~after =
  let b = boundaries c in
  let i = next_boundary b ~from:0 ~after in
  if i < Array.length b then Some b.(i) else None

let pp ppf c =
  Format.fprintf ppf
    "faults{seed=%d fail=%.3f(max %d) straggler=%.3f(x%.1f) outages=%d grows=%d}"
    c.seed c.task_fail_rate c.max_fail_attempts c.straggler_rate
    c.straggler_factor (List.length c.outages) (List.length c.grows)
