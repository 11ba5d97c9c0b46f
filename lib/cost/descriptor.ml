module Vecf = Parqo_util.Vecf

type t = { rf : Rvec.t; rl : Rvec.t }

type delta_mode = Stretch_time | Scale_all

type params = { delta_k : float; delta_mode : delta_mode }

let params ?(delta_mode = Stretch_time) delta_k =
  if delta_k < 0. then invalid_arg "Descriptor.params: delta_k < 0";
  { delta_k; delta_mode }

let of_machine (m : Parqo_machine.Machine.t) =
  params
    ~delta_mode:
      (if m.params.delta_scales_work then Scale_all else Stretch_time)
    m.params.pipeline_delta_k

let make ~rf ~rl =
  if rf.Rvec.time > rl.Rvec.time +. 1e-9 then
    invalid_arg "Descriptor.make: first tuple after last";
  { rf; rl }

let zero dim = { rf = Rvec.zero dim; rl = Rvec.zero dim }

let atomic usage =
  { rf = Rvec.zero (Parqo_util.Vecf.dim usage.Rvec.work); rl = usage }

let atomic_with ~zero usage = { rf = zero; rl = usage }

let blocking usage = { rf = usage; rl = usage }
let sync d = { rf = d.rl; rl = d.rl }

(* ---------------------------------------------------------------- *)
(* Scratch-buffer composition.

   [pipe]/[tree] are evaluated once per candidate operator in the DP hot
   path.  The kernels below run the calculus on caller-owned scratch
   rows, allocating only the two vectors that escape into the result
   descriptor, and each is a single pass over the resources (plus one
   more to add the penalized overlap, whose factor needs every maximum):
   maxima and sums are kept in local float variables, which the compiler
   keeps unboxed.  Every coordinate gets the same float operations, in
   the same order, as the allocating [Rvec] forms ([Rvec.par],
   [Rvec.residual], [Rvec.seq]), so results are bit-identical to them.

   The float helpers are this module's own: under [-opaque] (dune's dev
   profile) a call into another module is never inlined, and a float
   passed to or returned from a call that is not inlined is boxed.  For
   the same reason [pipe_core] takes and returns its times through the
   scratch's [times] slots rather than as arguments. *)

let fmax (a : float) (b : float) = if a >= b then a else b
let fmin (a : float) (b : float) = if a <= b then a else b

type scratch = {
  sdim : int;
  ov : float array;  (* [pipe_core]: overlap (par of the residuals) work *)
  szero : Rvec.t;  (* shared all-zero vector of the right dimension *)
  front : float array;  (* tree: par of the children's first-tuple work *)
  rl_l : float array;  (* tree: left child's residual work *)
  rl_r : float array;  (* tree: right child's residual work *)
  i_rf : float array;  (* tree: residual-pipe first-tuple work *)
  i_rl : float array;  (* tree: residual-pipe last-tuple work *)
  t2_rf : float array;  (* tree: front ; residual-pipe, first-tuple *)
  t2_rl : float array;  (* tree: front ; residual-pipe, last-tuple *)
  times : float array;
      (* [pipe_core]'s times: producer rf, rl, consumer rf, rl in 0-3;
         the result's rf, rl in 4-5 *)
}

let scratch dim =
  {
    sdim = dim;
    ov = Array.make dim 0.;
    szero = Rvec.zero dim;
    front = Array.make dim 0.;
    rl_l = Array.make dim 0.;
    rl_r = Array.make dim 0.;
    i_rf = Array.make dim 0.;
    i_rl = Array.make dim 0.;
    t2_rf = Array.make dim 0.;
    t2_rl = Array.make dim 0.;
    times = Array.make 6 0.;
  }

let scratch_dim s = s.sdim
let scratch_zero s = s.szero
let raw = Vecf.unsafe_raw

let[@inline] delta_factor p ~rp_t ~rc_t ~ov_t =
  let hi = rp_t +. rc_t and lo = fmax rp_t rc_t in
  if hi -. lo <= 1e-12 then 1.
  else
    let factor = 1. +. (p.delta_k *. (ov_t -. lo) /. (hi -. lo)) in
    fmin (1. +. p.delta_k) (fmax 1. factor)

let delta p r1 r2 =
  delta_factor p ~rp_t:r1.Rvec.time ~rc_t:r2.Rvec.time
    ~ov_t:(Rvec.par r1 r2).Rvec.time

(* the arithmetic core of [pipe]: producer/consumer given as raw work rows
   with their times in [s.times.(0..3)], results written into the
   caller's [orf_w]/[orl_w] with their times in [s.times.(4..5)] — so
   intermediate pipes (inside [tree_s]) can target scratch rows and only
   escaping results pay for fresh arrays.  Per coordinate: rf = producer
   rf + consumer rf; each side's residual clamped at zero; the overlap
   their sum; rl = rf + the overlap, scaled by the penalty under
   [Scale_all]. *)
let pipe_core s p ~(prf_w : float array) ~(prl_w : float array)
    ~(crf_w : float array) ~(crl_w : float array) ~(orf_w : float array)
    ~(orl_w : float array) =
  let t = s.times and ov = s.ov in
  let rp_max = ref neg_infinity
  and rc_max = ref neg_infinity
  and ov_max = ref neg_infinity in
  for i = 0 to s.sdim - 1 do
    let pf = prf_w.(i) and cf = crf_w.(i) in
    orf_w.(i) <- pf +. cf;
    let rp = fmax 0. (prl_w.(i) -. pf) and rc = fmax 0. (crl_w.(i) -. cf) in
    let o = rp +. rc in
    ov.(i) <- o;
    rp_max := fmax !rp_max rp;
    rc_max := fmax !rc_max rc;
    ov_max := fmax !ov_max o
  done;
  let rp_t = fmax !rp_max (fmax 0. (t.(1) -. t.(0)))
  and rc_t = fmax !rc_max (fmax 0. (t.(3) -. t.(2))) in
  let ov_t = fmax (fmax rp_t rc_t) !ov_max in
  let factor = delta_factor p ~rp_t ~rc_t ~ov_t in
  (match p.delta_mode with
  | Stretch_time ->
    for i = 0 to s.sdim - 1 do
      orl_w.(i) <- orf_w.(i) +. ov.(i)
    done
  | Scale_all ->
    for i = 0 to s.sdim - 1 do
      orl_w.(i) <- orf_w.(i) +. (factor *. ov.(i))
    done);
  let rf_t = t.(0) +. t.(2) in
  t.(4) <- rf_t;
  t.(5) <- rf_t +. (factor *. ov_t)

let pipe_of_core s rf_w rl_w =
  {
    rf = { Rvec.time = s.times.(4); work = Vecf.unsafe_adopt rf_w };
    rl = { Rvec.time = s.times.(5); work = Vecf.unsafe_adopt rl_w };
  }

let pipe_s s p producer consumer =
  let rf_w = Array.make s.sdim 0. and rl_w = Array.make s.sdim 0. in
  let t = s.times in
  t.(0) <- producer.rf.Rvec.time;
  t.(1) <- producer.rl.Rvec.time;
  t.(2) <- consumer.rf.Rvec.time;
  t.(3) <- consumer.rl.Rvec.time;
  pipe_core s p ~prf_w:(raw producer.rf.Rvec.work)
    ~prl_w:(raw producer.rl.Rvec.work) ~crf_w:(raw consumer.rf.Rvec.work)
    ~crl_w:(raw consumer.rl.Rvec.work) ~orf_w:rf_w ~orl_w:rl_w;
  pipe_of_core s rf_w rl_w

let dseq a b = { rf = Rvec.seq a.rf b.rf; rl = Rvec.seq a.rl b.rl }

let tree_s s p l r root =
  (* one pass: front = l.rf || r.rf, and the children's residuals (their
     rf is zero: the front already charged the first-tuple work) *)
  let lrf = raw l.rf.Rvec.work and lrl = raw l.rl.Rvec.work in
  let rrf = raw r.rf.Rvec.work and rrl = raw r.rl.Rvec.work in
  let front = s.front and rl_l = s.rl_l and rl_r = s.rl_r in
  let front_max = ref neg_infinity
  and l_max = ref neg_infinity
  and r_max = ref neg_infinity in
  for i = 0 to s.sdim - 1 do
    let fl = lrf.(i) and fr = rrf.(i) in
    let f = fl +. fr in
    front.(i) <- f;
    front_max := fmax !front_max f;
    let a = fmax 0. (lrl.(i) -. fl) in
    rl_l.(i) <- a;
    l_max := fmax !l_max a;
    let b = fmax 0. (rrl.(i) -. fr) in
    rl_r.(i) <- b;
    r_max := fmax !r_max b
  done;
  let front_t = fmax (fmax l.rf.Rvec.time r.rf.Rvec.time) !front_max in
  let t = s.times in
  (* the residuals, pipelined against each other *)
  t.(0) <- 0.;
  t.(1) <- fmax !l_max (fmax 0. (l.rl.Rvec.time -. l.rf.Rvec.time));
  t.(2) <- 0.;
  t.(3) <- fmax !r_max (fmax 0. (r.rl.Rvec.time -. r.rf.Rvec.time));
  let zero_w = raw s.szero.Rvec.work in
  let i_rf = s.i_rf and i_rl = s.i_rl in
  pipe_core s p ~prf_w:zero_w ~prl_w:rl_l ~crf_w:zero_w ~crl_w:rl_r
    ~orf_w:i_rf ~orl_w:i_rl;
  (* t2 = (front, front) ; residual pipe (Rvec.seq) *)
  let t2_rf = s.t2_rf and t2_rl = s.t2_rl in
  for i = 0 to s.sdim - 1 do
    let f = front.(i) in
    t2_rf.(i) <- f +. i_rf.(i);
    t2_rl.(i) <- f +. i_rl.(i)
  done;
  t.(0) <- front_t +. t.(4);
  t.(1) <- front_t +. t.(5);
  t.(2) <- root.rf.Rvec.time;
  t.(3) <- root.rl.Rvec.time;
  (* result = t2 pipe root — the only allocating step *)
  let rf_w = Array.make s.sdim 0. and rl_w = Array.make s.sdim 0. in
  pipe_core s p ~prf_w:t2_rf ~prl_w:t2_rl ~crf_w:(raw root.rf.Rvec.work)
    ~crl_w:(raw root.rl.Rvec.work) ~orf_w:rf_w ~orl_w:rl_w;
  pipe_of_core s rf_w rl_w

let pipe p producer consumer =
  pipe_s (scratch (Parqo_util.Vecf.dim producer.rf.Rvec.work)) p producer consumer

let tree p l r root =
  tree_s (scratch (Parqo_util.Vecf.dim l.rf.Rvec.work)) p l r root

let response_time d = d.rl.Rvec.time
let first_tuple_time d = d.rf.Rvec.time
let work d = Rvec.total_work d.rl
let work_vector d = d.rl.Rvec.work

let equal ?eps a b = Rvec.equal ?eps a.rf b.rf && Rvec.equal ?eps a.rl b.rl

let pp ppf d =
  Format.fprintf ppf "{first=%a; last=%a}" Rvec.pp d.rf Rvec.pp d.rl
