module Op = Parqo_optree.Op

let node_work (env : Env.t) node =
  let d = Opcost.base env.Env.placement env.Env.estimator node in
  Parqo_util.Vecf.sum (Descriptor.work_vector d)

let segments (env : Env.t) root =
  let out = ref [] in
  (* accumulate (n, work) for the segment rooted at [node] *)
  let rec assign (node : Op.node) (n, w) =
    let acc = (n + 1, w +. node_work env node) in
    let children =
      if Opcost.nl_inner_is_free node then [ List.hd node.Op.children ]
      else node.Op.children
    in
    List.fold_left
      (fun acc (c : Op.node) ->
        match c.Op.composition with
        | Op.Pipelined -> assign c acc
        | Op.Materialized ->
          out := assign c (0, 0.) :: !out;
          acc)
      acc children
  in
  let root_segment = assign root (0, 0.) in
  root_segment :: List.rev !out

let expected_penalty env ~fault_rate root =
  if fault_rate <= 0. then 0.
  else
    List.fold_left
      (fun acc (n, w) -> acc +. (fault_rate *. float_of_int n *. w /. 2.))
      0. (segments env root)

(* A brownout does not destroy work, it stretches it: a segment caught
   by a factor-[f] window delivers at rate [f], so the affected work
   costs [1/f - 1] extra time units per unit of work.  With [n]
   operators per segment, each browning out at [rate] per attempt and
   catching on average half the segment (the same half-segment argument
   as [expected_penalty]), the charge is [rate * n * W * (1/f - 1) / 2].
   Fail-stop ([f = 0]) is priced by [expected_penalty], not here — the
   formulas meet at neither end on purpose: losing work and slowing work
   are different regimes. *)
let slowdown_penalty env ~rate ~factor root =
  if rate <= 0. || factor >= 1. then 0.
  else if factor <= 0. then
    invalid_arg "Faultcost.slowdown_penalty: factor must be in (0, 1)"
  else
    let stretch = (1. /. factor) -. 1. in
    List.fold_left
      (fun acc (n, w) ->
        acc +. (rate *. float_of_int n *. w *. stretch /. 2.))
      0. (segments env root)

let expected_response_time ?slowdown env ~fault_rate (e : Costmodel.eval) =
  let base =
    e.Costmodel.response_time
    +. expected_penalty env ~fault_rate e.Costmodel.optree
  in
  match slowdown with
  | None -> base
  | Some (rate, factor) ->
    base +. slowdown_penalty env ~rate ~factor e.Costmodel.optree
