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
   path; building every intermediate residual and overlap vector as a
   fresh [Rvec.t] dominated the optimizer's allocation profile.  The
   combinators below run the same arithmetic, in the same order, on
   caller-owned scratch buffers, allocating only the two vectors that
   escape into the result descriptor — outputs are bit-identical to the
   historical allocating forms (the only structural change is that the
   overlap vector of the δ penalty is computed once instead of twice,
   which produces the same bits). *)

type scratch = {
  sdim : int;
  rp : float array;  (* producer residual work *)
  rc : float array;  (* consumer residual work *)
  ov : float array;  (* overlap (par of residuals) work *)
  szero : Rvec.t;  (* shared all-zero vector of the right dimension *)
  front : float array;  (* tree: par of the children's first-tuple work *)
  rl_l : float array;  (* tree: left child's residual work *)
  rl_r : float array;  (* tree: right child's residual work *)
  i_rf : float array;  (* tree: residual-pipe first-tuple work *)
  i_rl : float array;  (* tree: residual-pipe last-tuple work *)
  t2_rf : float array;  (* tree: front ; residual-pipe, first-tuple *)
  t2_rl : float array;  (* tree: front ; residual-pipe, last-tuple *)
  times : float array;  (* 2 slots: [pipe_core]'s rf/rl output times *)
}

let scratch dim =
  {
    sdim = dim;
    rp = Array.make dim 0.;
    rc = Array.make dim 0.;
    ov = Array.make dim 0.;
    szero = Rvec.zero dim;
    front = Array.make dim 0.;
    rl_l = Array.make dim 0.;
    rl_r = Array.make dim 0.;
    i_rf = Array.make dim 0.;
    i_rl = Array.make dim 0.;
    t2_rf = Array.make dim 0.;
    t2_rl = Array.make dim 0.;
    times = Array.make 2 0.;
  }

let scratch_dim s = s.sdim
let scratch_zero s = s.szero

(* read-only view of a scratch buffer for Vecf primitives *)
let view = Vecf.unsafe_adopt

let delta_factor p ~rp_t ~rc_t ~ov_t =
  let hi = rp_t +. rc_t and lo = Vecf.fmax rp_t rc_t in
  if hi -. lo <= 1e-12 then 1.
  else
    let factor = 1. +. (p.delta_k *. (ov_t -. lo) /. (hi -. lo)) in
    Vecf.fmin (1. +. p.delta_k) (Vecf.fmax 1. factor)

let delta p r1 r2 =
  delta_factor p ~rp_t:r1.Rvec.time ~rc_t:r2.Rvec.time
    ~ov_t:(Rvec.par r1 r2).Rvec.time

(* the arithmetic core of [pipe]: producer/consumer given as raw work
   vectors plus times, results written into the caller's [orf_w]/[orl_w]
   with the output times left in [s.times].(0)/(1) — so intermediate
   pipes (inside [tree_s]) can target scratch rows and only escaping
   results pay for fresh arrays.  Operation order is exactly [pipe]'s. *)
let pipe_core s p ~prf_t ~prf_w ~prl_t ~prl_w ~crf_t ~crf_w ~crl_t ~crl_w
    ~orf_w ~orl_w =
  (* rf = producer.rf ; consumer.rf *)
  Vecf.add_into prf_w crf_w orf_w;
  let rf_t = prf_t +. crf_t in
  Vecf.residual_into prl_w prf_w s.rp;
  let rp_t =
    Vecf.fmax (Vecf.max_coord (view s.rp)) (Vecf.fmax 0. (prl_t -. prf_t))
  in
  Vecf.residual_into crl_w crf_w s.rc;
  let rc_t =
    Vecf.fmax (Vecf.max_coord (view s.rc)) (Vecf.fmax 0. (crl_t -. crf_t))
  in
  (* overlap = residual_p || residual_c *)
  Vecf.add_into (view s.rp) (view s.rc) s.ov;
  let ov_t = Vecf.fmax (Vecf.fmax rp_t rc_t) (Vecf.max_coord (view s.ov)) in
  let factor = delta_factor p ~rp_t ~rc_t ~ov_t in
  let penal_t = factor *. ov_t in
  (match p.delta_mode with
  | Stretch_time -> ()
  | Scale_all ->
    for i = 0 to s.sdim - 1 do
      s.ov.(i) <- factor *. s.ov.(i)
    done);
  (* rl = rf ; penalized *)
  Vecf.add_into (view orf_w) (view s.ov) orl_w;
  s.times.(0) <- rf_t;
  s.times.(1) <- rf_t +. penal_t

let pipe_of_core s rf_w rl_w =
  {
    rf = { Rvec.time = s.times.(0); work = Vecf.unsafe_adopt rf_w };
    rl = { Rvec.time = s.times.(1); work = Vecf.unsafe_adopt rl_w };
  }

let pipe_s s p producer consumer =
  let rf_w = Array.make s.sdim 0. and rl_w = Array.make s.sdim 0. in
  pipe_core s p ~prf_t:producer.rf.Rvec.time ~prf_w:producer.rf.Rvec.work
    ~prl_t:producer.rl.Rvec.time ~prl_w:producer.rl.Rvec.work
    ~crf_t:consumer.rf.Rvec.time ~crf_w:consumer.rf.Rvec.work
    ~crl_t:consumer.rl.Rvec.time ~crl_w:consumer.rl.Rvec.work ~orf_w:rf_w
    ~orl_w:rl_w;
  pipe_of_core s rf_w rl_w

let dseq a b = { rf = Rvec.seq a.rf b.rf; rl = Rvec.seq a.rl b.rl }

let tree_s s p l r root =
  (* front = l.rf || r.rf, in scratch (same operations as Rvec.par) *)
  Vecf.add_into l.rf.Rvec.work r.rf.Rvec.work s.front;
  let front_t =
    Vecf.fmax
      (Vecf.fmax l.rf.Rvec.time r.rf.Rvec.time)
      (Vecf.max_coord (view s.front))
  in
  (* the children's residuals, in scratch (same operations as
     Rvec.residual); their rf is zero: the front already charged the
     first-tuple work *)
  Vecf.residual_into l.rl.Rvec.work l.rf.Rvec.work s.rl_l;
  let rl_l_t =
    Vecf.fmax
      (Vecf.max_coord (view s.rl_l))
      (Vecf.fmax 0. (l.rl.Rvec.time -. l.rf.Rvec.time))
  in
  Vecf.residual_into r.rl.Rvec.work r.rf.Rvec.work s.rl_r;
  let rl_r_t =
    Vecf.fmax
      (Vecf.max_coord (view s.rl_r))
      (Vecf.fmax 0. (r.rl.Rvec.time -. r.rf.Rvec.time))
  in
  (* the residuals, pipelined against each other *)
  let zero_w = s.szero.Rvec.work in
  pipe_core s p ~prf_t:0. ~prf_w:zero_w ~prl_t:rl_l_t ~prl_w:(view s.rl_l)
    ~crf_t:0. ~crf_w:zero_w ~crl_t:rl_r_t ~crl_w:(view s.rl_r) ~orf_w:s.i_rf
    ~orl_w:s.i_rl;
  let i_rf_t = s.times.(0) and i_rl_t = s.times.(1) in
  (* t2 = (front, front) ; residual pipe (same operations as Rvec.seq) *)
  Vecf.add_into (view s.front) (view s.i_rf) s.t2_rf;
  let t2_rf_t = front_t +. i_rf_t in
  Vecf.add_into (view s.front) (view s.i_rl) s.t2_rl;
  let t2_rl_t = front_t +. i_rl_t in
  (* result = t2 pipe root — the only allocating step *)
  let rf_w = Array.make s.sdim 0. and rl_w = Array.make s.sdim 0. in
  pipe_core s p ~prf_t:t2_rf_t ~prf_w:(view s.t2_rf) ~prl_t:t2_rl_t
    ~prl_w:(view s.t2_rl) ~crf_t:root.rf.Rvec.time ~crf_w:root.rf.Rvec.work
    ~crl_t:root.rl.Rvec.time ~crl_w:root.rl.Rvec.work ~orf_w:rf_w ~orl_w:rl_w;
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
