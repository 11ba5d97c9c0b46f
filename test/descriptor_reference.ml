(* The reference descriptor kernels: [Descriptor]'s earlier scratch
   composition ([pipe_core], [pipe_s], [tree_s], [delta_factor]) and
   [Rvec.of_accumulated], kept verbatim, with the [Vecf] scratch helpers
   they called.  Each runs the calculus as a sequence of whole-row
   [Vecf] calls.  The property tests compare the one-pass kernels
   against them Int64-exact. *)

module D = Parqo.Descriptor
module Rvec = Parqo.Rvec

module Vecf = struct
  include Parqo.Vecf

  let add_into a b dst =
    let a = unsafe_raw a and b = unsafe_raw b in
    for i = 0 to Array.length a - 1 do
      dst.(i) <- a.(i) +. b.(i)
    done

  let residual_into whole front dst =
    let whole = unsafe_raw whole and front = unsafe_raw front in
    for i = 0 to Array.length whole - 1 do
      dst.(i) <- fmax 0. (whole.(i) -. front.(i))
    done
end

type t = D.t = { rf : Rvec.t; rl : Rvec.t }

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

(* read-only view of a scratch buffer for Vecf primitives *)
let view = Vecf.unsafe_adopt

let delta_factor (p : D.params) ~rp_t ~rc_t ~ov_t =
  let hi = rp_t +. rc_t and lo = Vecf.fmax rp_t rc_t in
  if hi -. lo <= 1e-12 then 1.
  else
    let factor = 1. +. (p.D.delta_k *. (ov_t -. lo) /. (hi -. lo)) in
    Vecf.fmin (1. +. p.D.delta_k) (Vecf.fmax 1. factor)

(* the arithmetic core of [pipe]: producer/consumer given as raw work
   vectors plus times, results written into the caller's [orf_w]/[orl_w]
   with the output times left in [s.times].(0)/(1) — so intermediate
   pipes (inside [tree_s]) can target scratch rows and only escaping
   results pay for fresh arrays.  Operation order is exactly [pipe]'s. *)
let pipe_core s (p : D.params) ~prf_t ~prf_w ~prl_t ~prl_w ~crf_t ~crf_w
    ~crl_t ~crl_w ~orf_w ~orl_w =
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
  (match p.D.delta_mode with
  | D.Stretch_time -> ()
  | D.Scale_all ->
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

(* [work] is adopted, not copied: the caller hands over a freshly
   accumulated per-resource array (see {!of_demands} and
   [Opcost]'s scratch accumulation) and must not write it again *)
let of_accumulated work ~lanes ~overhead =
  if lanes < 1 then invalid_arg "Rvec.of_accumulated: lanes < 1";
  let work = Vecf.unsafe_adopt work in
  let total = Vecf.sum work in
  let cloned =
    total /. float_of_int lanes *. (1. +. (overhead *. float_of_int (lanes - 1)))
  in
  { Rvec.time = Vecf.fmax (Vecf.max_coord work) cloned; work }
