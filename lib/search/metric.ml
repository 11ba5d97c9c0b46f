module Cm = Parqo_cost.Costmodel
module D = Parqo_cost.Descriptor
module M = Parqo_machine.Machine

(* [Vecf.fmax], restated so that it inlines into the per-candidate [fill]
   below: a call into another library is never inlined when that library
   is compiled opaque (dune's default dev profile), and a float function
   that is called rather than inlined boxes its arguments *)
let fmax (a : float) (b : float) = if a >= b then a else b

type t = {
  name : string;
  arity : int;
  lead : int;
  fill : Cm.view -> float array -> unit;
  refines : (Cm.key -> Cm.key -> bool) option;
  total_work : bool;
}

let dominates m (a : Cm.eval) (b : Cm.eval) =
  let da = Array.make m.arity 0. and db = Array.make m.arity 0. in
  m.fill (Cm.eval_view a) da;
  m.fill (Cm.eval_view b) db;
  let rec go i = i >= m.arity || (da.(i) <= db.(i) && go (i + 1)) in
  go 0
  &&
  match m.refines with
  | None -> true
  | Some r -> r (Cm.key_of a) (Cm.key_of b)

let n_dims m _ = m.arity

(* A view's first-tuple row and time: a twin's are its last-tuple
   ones. *)
let first_row (v : Cm.view) = if v.Cm.twin then v.Cm.rows.D.lw else v.Cm.rows.D.fw

let work =
  {
    name = "work";
    arity = 1;
    lead = 0;
    fill = (fun v dst -> dst.(0) <- v.Cm.rows.D.m.D.work);
    refines = None;
    total_work = true;
  }

let response_time =
  {
    name = "response-time";
    arity = 1;
    lead = 0;
    fill = (fun v dst -> dst.(0) <- v.Cm.rows.D.m.D.last_time);
    refines = None;
    total_work = false;
  }

(* [M.aggregate]'s groups, and each resource's, computed once: some
   aggregations' group functions allocate per call *)
let groups machine agg =
  let groups, group_of = M.aggregate machine agg in
  (groups, Array.init (M.n_resources machine) group_of)

let resource_vector machine agg =
  let groups, group_of = groups machine agg in
  {
    name = Printf.sprintf "resource-vector/%d" groups;
    arity = 1 + groups;
    lead = 0;
    fill =
      (fun v dst ->
        let m = v.Cm.rows.D.m in
        dst.(0) <- m.D.last_time;
        if groups = 1 then dst.(1) <- m.D.work
        else begin
          for g = 0 to groups - 1 do
            dst.(1 + g) <- 0.
          done;
          let w = v.Cm.rows.D.lw in
          for i = 0 to Array.length w - 1 do
            let g = 1 + group_of.(i) in
            dst.(g) <- dst.(g) +. w.(i)
          done
        end);
    refines = None;
    total_work = false;
  }

(* One group: the kernel's measures are the coordinates.  Several: a
   pass over the rows takes per-group first-tuple work and residual work
   (clamped subtraction with [fmax], the same float ops as
   [Rvec.residual], and no boxing) and the residual's busiest
   coordinate, staged in [dst.(1)]. *)
let descriptor machine agg =
  let groups, group_of = groups machine agg in
  {
    name = Printf.sprintf "descriptor/%d" groups;
    arity = 2 + (2 * groups);
    lead = 1;
    fill =
      (fun v dst ->
        let m = v.Cm.rows.D.m and twin = v.Cm.twin in
        let first_time = if twin then m.D.last_time else m.D.first_time in
        dst.(0) <- first_time;
        let busiest =
          if groups = 1 then begin
            dst.(2) <- (if twin then m.D.work else m.D.first_work);
            dst.(3) <- (if twin then m.D.twin_residual else m.D.residual);
            if twin then m.D.twin_busiest else m.D.busiest
          end
          else begin
            for g = 0 to groups - 1 do
              dst.(2 + g) <- 0.;
              dst.(2 + groups + g) <- 0.
            done;
            let wf = first_row v and wl = v.Cm.rows.D.lw in
            dst.(1) <- neg_infinity;
            for i = 0 to Array.length wf - 1 do
              let f = wf.(i) in
              let res = fmax 0. (wl.(i) -. f) in
              let g = group_of.(i) in
              dst.(2 + g) <- dst.(2 + g) +. f;
              dst.(2 + groups + g) <- dst.(2 + groups + g) +. res;
              dst.(1) <- fmax dst.(1) res
            done;
            dst.(1)
          end
        in
        dst.(1) <- fmax busiest (fmax 0. (m.D.last_time -. first_time)));
    refines = None;
    total_work = false;
  }

(* the one fill that walks the operator tree: a join's is expanded on
   demand *)
let expected_makespan (env : Parqo_cost.Env.t) ~fault_rate =
  {
    name = Printf.sprintf "expected-makespan/f=%.3f" fault_rate;
    arity = 2;
    lead = 0;
    fill =
      (fun v dst ->
        let m = v.Cm.rows.D.m in
        dst.(0) <-
          m.D.last_time
          +. Parqo_cost.Faultcost.expected_penalty env ~fault_rate
               (Cm.view_optree v);
        dst.(1) <- m.D.work);
    refines = None;
    total_work = false;
  }

(* [Σ_r pressure_r · work_r] added to [time] over the work row [w] *)
let[@inline] contention ~pressure (w : float array) time =
  let n = min (Array.length pressure) (Array.length w) in
  let acc = ref time in
  for r = 0 to n - 1 do
    acc := !acc +. (pressure.(r) *. w.(r))
  done;
  !acc

let contention_rank ~pressure (e : Cm.eval) =
  contention ~pressure
    (Parqo_util.Vecf.unsafe_raw (D.work_vector e.Cm.descriptor))
    e.Cm.response_time

let contended ~pressure =
  let peak = Array.fold_left Float.max 0. pressure in
  {
    name = Printf.sprintf "contended/%.2f" peak;
    arity = 2;
    lead = 0;
    fill =
      (fun v dst ->
        let m = v.Cm.rows.D.m in
        dst.(0) <- contention ~pressure v.Cm.rows.D.lw m.D.last_time;
        dst.(1) <- m.D.work);
    refines = None;
    total_work = false;
  }

let with_partitioning m =
  let same (a : Cm.key) (b : Cm.key) =
    a.Cm.partition = b.Cm.partition && a.Cm.clone = b.Cm.clone
  in
  let refines =
    match m.refines with
    | None -> same
    | Some r -> fun a b -> r a b && same a b
  in
  {
    m with
    name = m.name ^ "+partitioning";
    refines = Some refines;
    total_work = false;
  }

let with_ordering m =
  let subsumes (a : Cm.key) (b : Cm.key) =
    Parqo_plan.Ordering.subsumes a.Cm.ordering b.Cm.ordering
  in
  let refines =
    match m.refines with
    | None -> subsumes
    | Some r -> fun a b -> r a b && subsumes a b
  in
  {
    m with
    name = m.name ^ "+ordering";
    refines = Some refines;
    total_work = false;
  }

let pp ppf m = Format.pp_print_string ppf m.name
