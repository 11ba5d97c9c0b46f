module Cm = Parqo_cost.Costmodel
module M = Parqo_machine.Machine
module Vecf = Parqo_util.Vecf

(* [Vecf.fmax], restated so that it inlines into the per-candidate [fill]
   below: a call into another library is never inlined when that library
   is compiled opaque (dune's default dev profile), and a float function
   that is called rather than inlined boxes its arguments *)
let fmax (a : float) (b : float) = if a >= b then a else b

type t = {
  name : string;
  arity : int;
  fill : 'tree. 'tree Cm.priced -> float array -> unit;
  refines : (Cm.candidate -> Cm.candidate -> bool) option;
}

let dominates m a b =
  let da = Array.make m.arity 0. and db = Array.make m.arity 0. in
  m.fill a da;
  m.fill b db;
  let rec go i = i >= m.arity || (da.(i) <= db.(i) && go (i + 1)) in
  go 0
  &&
  match m.refines with
  | None -> true
  | Some r -> r (Cm.without_tree a) (Cm.without_tree b)

let n_dims m _ = m.arity

let work =
  {
    name = "work";
    arity = 1;
    fill = (fun e dst -> dst.(0) <- e.Cm.work);
    refines = None;
  }

let response_time =
  {
    name = "response-time";
    arity = 1;
    fill = (fun e dst -> dst.(0) <- e.Cm.response_time);
    refines = None;
  }

let resource_vector machine agg =
  let groups, group_of = M.aggregate machine agg in
  {
    name = Printf.sprintf "resource-vector/%d" groups;
    arity = 1 + groups;
    fill =
      (fun e dst ->
        let d = e.Cm.descriptor in
        dst.(0) <- Parqo_cost.Descriptor.response_time d;
        for g = 0 to groups - 1 do
          dst.(1 + g) <- 0.
        done;
        let w = Parqo_cost.Descriptor.work_vector d in
        for i = 0 to Vecf.dim w - 1 do
          let g = 1 + group_of i in
          dst.(g) <- dst.(g) +. Vecf.get w i
        done);
    refines = None;
  }

let descriptor machine agg =
  let groups, group_of = M.aggregate machine agg in
  {
    name = Printf.sprintf "descriptor/%d" groups;
    arity = 2 + (2 * groups);
    fill =
      (* single pass over the resources: per-group first-tuple work,
         per-group residual work (clamped subtraction with [fmax], the
         same float ops as [Rvec.residual], and no boxing) and the
         residual's busiest coordinate, staged in [dst.(1)] *)
      (fun e dst ->
        let d = e.Cm.descriptor in
        let rf = d.Parqo_cost.Descriptor.rf
        and rl = d.Parqo_cost.Descriptor.rl in
        for g = 0 to groups - 1 do
          dst.(2 + g) <- 0.;
          dst.(2 + groups + g) <- 0.
        done;
        let wf = Vecf.unsafe_raw rf.Parqo_cost.Rvec.work
        and wl = Vecf.unsafe_raw rl.Parqo_cost.Rvec.work in
        dst.(1) <- neg_infinity;
        for i = 0 to Array.length wf - 1 do
          let f = wf.(i) in
          let res = fmax 0. (wl.(i) -. f) in
          let g = group_of i in
          dst.(2 + g) <- dst.(2 + g) +. f;
          dst.(2 + groups + g) <- dst.(2 + groups + g) +. res;
          dst.(1) <- fmax dst.(1) res
        done;
        dst.(0) <- rf.Parqo_cost.Rvec.time;
        dst.(1) <-
          fmax dst.(1)
            (fmax 0. (rl.Parqo_cost.Rvec.time -. rf.Parqo_cost.Rvec.time)));
    refines = None;
  }

let expected_makespan (env : Parqo_cost.Env.t) ~fault_rate =
  let dim e =
    Parqo_cost.Faultcost.expected_response_time env ~fault_rate e
  in
  {
    name = Printf.sprintf "expected-makespan/f=%.3f" fault_rate;
    arity = 2;
    fill =
      (fun e dst ->
        dst.(0) <- dim e;
        dst.(1) <- e.Cm.work);
    refines = None;
  }

let contention_rank ~pressure (e : _ Cm.priced) =
  let w = Vecf.unsafe_raw (Parqo_cost.Descriptor.work_vector e.Cm.descriptor) in
  let n = min (Array.length pressure) (Array.length w) in
  let acc = ref e.Cm.response_time in
  for r = 0 to n - 1 do
    acc := !acc +. (pressure.(r) *. w.(r))
  done;
  !acc

let contended ~pressure =
  let peak = Array.fold_left Float.max 0. pressure in
  {
    name = Printf.sprintf "contended/%.2f" peak;
    arity = 2;
    fill =
      (fun e dst ->
        dst.(0) <- contention_rank ~pressure e;
        dst.(1) <- e.Cm.work);
    refines = None;
  }

let with_partitioning m =
  let key (e : Cm.candidate) =
    let root = e.Cm.optree in
    (root.Parqo_optree.Op.partition, root.Parqo_optree.Op.clone)
  in
  let same a b = key a = key b in
  let refines =
    match m.refines with
    | None -> same
    | Some r -> fun a b -> r a b && same a b
  in
  { m with name = m.name ^ "+partitioning"; refines = Some refines }

let with_ordering m =
  let subsumes a b =
    Parqo_plan.Ordering.subsumes a.Cm.ordering b.Cm.ordering
  in
  let refines =
    match m.refines with
    | None -> subsumes
    | Some r -> fun a b -> r a b && subsumes a b
  in
  { m with name = m.name ^ "+ordering"; refines = Some refines }

let pp ppf m = Format.pp_print_string ppf m.name
