module Vecf = Parqo_util.Vecf

type t = { time : float; work : Vecf.t }

let zero dim = { time = 0.; work = Vecf.zero dim }

let make ~time ~work =
  if time +. 1e-9 < Vecf.max_coord work then
    invalid_arg "Rvec.make: time below busiest resource";
  { time; work }

(* [Vecf.fmax], local so that it inlines: a call into another module
   compiled [-opaque] is not inlined, and then it boxes its floats *)
let fmax (a : float) (b : float) = if a >= b then a else b

(* [work] is adopted, not copied: the caller hands over a freshly
   accumulated per-resource array (see {!of_demands} and
   [Opcost]'s scratch accumulation) and must not write it again.  One
   pass takes the sum and the busiest coordinate, with the float
   operations of [Vecf.sum] and [Vecf.max_coord]. *)
let of_accumulated (work : float array) ~lanes ~overhead =
  if lanes < 1 then invalid_arg "Rvec.of_accumulated: lanes < 1";
  let total = ref 0. and busiest = ref neg_infinity in
  for i = 0 to Array.length work - 1 do
    let w = work.(i) in
    total := !total +. w;
    busiest := fmax !busiest w
  done;
  let cloned =
    !total /. float_of_int lanes
    *. (1. +. (overhead *. float_of_int (lanes - 1)))
  in
  { time = fmax !busiest cloned; work = Vecf.unsafe_adopt work }

let of_demands dim demands ~lanes ~overhead =
  if lanes < 1 then invalid_arg "Rvec.of_demands: lanes < 1";
  let work = Array.make dim 0. in
  List.iter
    (fun (id, w) ->
      if id < 0 || id >= dim then invalid_arg "Rvec.of_demands: bad resource id";
      if w < 0. then invalid_arg "Rvec.of_demands: negative work";
      work.(id) <- work.(id) +. w)
    demands;
  of_accumulated work ~lanes ~overhead

let seq a b = { time = a.time +. b.time; work = Vecf.add a.work b.work }

let par a b =
  let work = Vecf.add a.work b.work in
  { time = Vecf.fmax (Vecf.fmax a.time b.time) (Vecf.max_coord work); work }

let residual whole front =
  let work = Vecf.clamp_non_negative (Vecf.sub whole.work front.work) in
  (* the remaining work still needs at least its busiest resource's time *)
  {
    time = Vecf.fmax (Vecf.max_coord work) (Vecf.fmax 0. (whole.time -. front.time));
    work;
  }

let stretch m r =
  if m < 1. then invalid_arg "Rvec.stretch: factor < 1";
  { r with time = m *. r.time }

let scale_all m r = { time = m *. r.time; work = Vecf.scale m r.work }
let response_time r = r.time
let total_work r = Vecf.sum r.work
let is_zero r = r.time = 0. && Vecf.sum r.work = 0.

let add_work r id w =
  let work = Vecf.set r.work id (Vecf.get r.work id +. w) in
  { time = Vecf.fmax r.time (Vecf.max_coord work); work }

let equal ?(eps = 1e-9) a b =
  Float.abs (a.time -. b.time) <= eps && Vecf.equal ~eps a.work b.work

let pp ppf r = Format.fprintf ppf "(t=%.3g, w=%a)" r.time Vecf.pp r.work
