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
   path.  The kernels below run the calculus on caller-owned rows, and
   each is a single pass over the resources (plus one more to add the
   penalized overlap, whose factor needs every maximum): maxima and sums
   are kept in local float variables, which the compiler keeps unboxed.
   Every coordinate gets the same float operations, in the same order,
   as the allocating [Rvec] forms ([Rvec.par], [Rvec.residual],
   [Rvec.seq]), so results are bit-identical to them.

   An operand is three things: the array holding its first-tuple work,
   the array holding its last-tuple work, and the offset of its rows in
   both — a descriptor's own vectors at offset 0, or a slot of a [rows]
   store.  Its two times travel through the scratch's [times] slots.

   The float helpers are this module's own: under [-opaque] (dune's dev
   profile) a call into another module is never inlined, and a float
   passed to or returned from a call that is not inlined is boxed.  For
   the same reason the kernels take and return their times through the
   scratch's [times] slots rather than as arguments. *)

let fmax (a : float) (b : float) = if a >= b then a else b
let fmin (a : float) (b : float) = if a <= b then a else b

type scratch = {
  sdim : int;
  ov : float array;  (* [pipe_core]: overlap (par of the residuals) work *)
  zero_w : float array;  (* all zeros *)
  front : float array;  (* tree: par of the children's first-tuple work *)
  rl_l : float array;  (* tree: left child's residual work *)
  rl_r : float array;  (* tree: right child's residual work *)
  i_rf : float array;  (* tree: residual-pipe first-tuple work *)
  i_rl : float array;  (* tree: residual-pipe last-tuple work *)
  t2_rf : float array;  (* tree: front ; residual-pipe, first-tuple *)
  t2_rl : float array;  (* tree: front ; residual-pipe, last-tuple *)
  times : float array;
      (* [pipe_core]'s times: producer rf, rl, consumer rf, rl in 0-3;
         the result's rf, rl in 4-5; [tree_core]'s inputs: left rf, rl,
         right rf, rl, root rf, rl in 6-11 *)
}

let scratch dim =
  {
    sdim = dim;
    ov = Array.make dim 0.;
    zero_w = Array.make dim 0.;
    front = Array.make dim 0.;
    rl_l = Array.make dim 0.;
    rl_r = Array.make dim 0.;
    i_rf = Array.make dim 0.;
    i_rl = Array.make dim 0.;
    t2_rf = Array.make dim 0.;
    t2_rl = Array.make dim 0.;
    times = Array.make 12 0.;
  }

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

(* the arithmetic core of [pipe]: producer ([prf], [prl] at [po]) and
   consumer ([crf], [crl] at [co]) with their times in [s.times.(0..3)],
   the result written at [oo] of [orf]/[orl] with its times in
   [s.times.(4..5)].  Per coordinate: rf = producer rf + consumer rf;
   each side's residual clamped at zero; the overlap their sum; rl = rf
   + the overlap, scaled by the penalty under [Scale_all]. *)
let pipe_core s p (prf : float array) (prl : float array) po
    (crf : float array) (crl : float array) co (orf : float array)
    (orl : float array) oo =
  let t = s.times and ov = s.ov in
  let rp_max = ref neg_infinity
  and rc_max = ref neg_infinity
  and ov_max = ref neg_infinity in
  for i = 0 to s.sdim - 1 do
    let pf = prf.(po + i) and cf = crf.(co + i) in
    orf.(oo + i) <- pf +. cf;
    let rp = fmax 0. (prl.(po + i) -. pf)
    and rc = fmax 0. (crl.(co + i) -. cf) in
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
      orl.(oo + i) <- orf.(oo + i) +. ov.(i)
    done
  | Scale_all ->
    for i = 0 to s.sdim - 1 do
      orl.(oo + i) <- orf.(oo + i) +. (factor *. ov.(i))
    done);
  let rf_t = t.(0) +. t.(2) in
  t.(4) <- rf_t;
  t.(5) <- rf_t +. (factor *. ov_t)

(* the arithmetic core of [tree]: left, right and root operands with
   their times in [s.times.(6..11)], the result as [pipe_core]'s.  One
   pass takes front = l.rf || r.rf and the children's residuals (their
   rf is zero: the front already charged the first-tuple work); the
   residuals are pipelined against each other, the front sequenced
   before them, and that piped into the root. *)
let tree_core s p (lrf : float array) (lrl : float array) lo
    (rrf : float array) (rrl : float array) ro (trf : float array)
    (trl : float array) to_ orf orl oo =
  let front = s.front and rl_l = s.rl_l and rl_r = s.rl_r in
  let front_max = ref neg_infinity
  and l_max = ref neg_infinity
  and r_max = ref neg_infinity in
  for i = 0 to s.sdim - 1 do
    let fl = lrf.(lo + i) and fr = rrf.(ro + i) in
    let f = fl +. fr in
    front.(i) <- f;
    front_max := fmax !front_max f;
    let a = fmax 0. (lrl.(lo + i) -. fl) in
    rl_l.(i) <- a;
    l_max := fmax !l_max a;
    let b = fmax 0. (rrl.(ro + i) -. fr) in
    rl_r.(i) <- b;
    r_max := fmax !r_max b
  done;
  let t = s.times in
  let front_t = fmax (fmax t.(6) t.(8)) !front_max in
  (* the residuals, pipelined against each other *)
  t.(0) <- 0.;
  t.(1) <- fmax !l_max (fmax 0. (t.(7) -. t.(6)));
  t.(2) <- 0.;
  t.(3) <- fmax !r_max (fmax 0. (t.(9) -. t.(8)));
  let zero_w = s.zero_w and i_rf = s.i_rf and i_rl = s.i_rl in
  pipe_core s p zero_w rl_l 0 zero_w rl_r 0 i_rf i_rl 0;
  (* t2 = (front, front) ; residual pipe (Rvec.seq) *)
  let t2_rf = s.t2_rf and t2_rl = s.t2_rl in
  for i = 0 to s.sdim - 1 do
    let f = front.(i) in
    t2_rf.(i) <- f +. i_rf.(i);
    t2_rl.(i) <- f +. i_rl.(i)
  done;
  t.(0) <- front_t +. t.(4);
  t.(1) <- front_t +. t.(5);
  t.(2) <- t.(10);
  t.(3) <- t.(11);
  pipe_core s p t2_rf t2_rl 0 trf trl to_ orf orl oo

(* the result of a kernel, over the given work rows *)
let result s rf_w rl_w =
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
  pipe_core s p (raw producer.rf.Rvec.work) (raw producer.rl.Rvec.work) 0
    (raw consumer.rf.Rvec.work) (raw consumer.rl.Rvec.work) 0 rf_w rl_w 0;
  result s rf_w rl_w

let dseq a b = { rf = Rvec.seq a.rf b.rf; rl = Rvec.seq a.rl b.rl }

let tree_s s p l r root =
  let t = s.times in
  t.(6) <- l.rf.Rvec.time;
  t.(7) <- l.rl.Rvec.time;
  t.(8) <- r.rf.Rvec.time;
  t.(9) <- r.rl.Rvec.time;
  t.(10) <- root.rf.Rvec.time;
  t.(11) <- root.rl.Rvec.time;
  let rf_w = Array.make s.sdim 0. and rl_w = Array.make s.sdim 0. in
  tree_core s p (raw l.rf.Rvec.work) (raw l.rl.Rvec.work) 0
    (raw r.rf.Rvec.work) (raw r.rl.Rvec.work) 0 (raw root.rf.Rvec.work)
    (raw root.rl.Rvec.work) 0 rf_w rl_w 0;
  result s rf_w rl_w

let pipe p producer consumer =
  pipe_s (scratch (Parqo_util.Vecf.dim producer.rf.Rvec.work)) p producer consumer

let tree p l r root =
  tree_s (scratch (Parqo_util.Vecf.dim l.rf.Rvec.work)) p l r root

(* ---------------------------------------------------------------- *)
(* Flat rows: descriptors stored as floats, slot [k]'s first-tuple work
   at [k * dim] of [fw], its last-tuple work at [k * dim] of [lw], and
   its two times at [2k] and [2k + 1] of [ts].  The [_view] kernels
   write their result into [view_fw] and [view_lw].  A store holds no
   pointer but its five arrays. *)

type rows = {
  rdim : int;
  mutable fw : float array;
  mutable lw : float array;
  mutable ts : float array;
  view_fw : float array;
  view_lw : float array;
}

let rows dim =
  {
    rdim = dim;
    fw = [||];
    lw = [||];
    ts = [||];
    view_fw = Array.make dim 0.;
    view_lw = Array.make dim 0.;
  }

let rows_reserve r n =
  let room = Array.length r.ts / 2 in
  if n > room then begin
    let n = max n (2 * room) in
    let grow a len =
      let b = Array.make len 0. in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    r.fw <- grow r.fw (n * r.rdim);
    r.lw <- grow r.lw (n * r.rdim);
    r.ts <- grow r.ts (2 * n)
  end

(* row copies are loops: a blit of a dozen floats is dearer as a call *)
let set_row r k d =
  let o = k * r.rdim and fw = r.fw and lw = r.lw in
  let df = raw d.rf.Rvec.work and dl = raw d.rl.Rvec.work in
  for i = 0 to r.rdim - 1 do
    fw.(o + i) <- df.(i);
    lw.(o + i) <- dl.(i)
  done;
  r.ts.(2 * k) <- d.rf.Rvec.time;
  r.ts.((2 * k) + 1) <- d.rl.Rvec.time

let sync_row r k =
  let o = k * r.rdim and fw = r.fw and lw = r.lw in
  for i = o to o + r.rdim - 1 do
    fw.(i) <- lw.(i)
  done;
  r.ts.(2 * k) <- r.ts.((2 * k) + 1)

(* [pipe_core] of slots [src] and [cons], into [orf]/[orl] at [oo] *)
let pipe_slots s p r ~src ~cons orf orl oo =
  let t = s.times and ts = r.ts and dim = r.rdim in
  t.(0) <- ts.(2 * src);
  t.(1) <- ts.((2 * src) + 1);
  t.(2) <- ts.(2 * cons);
  t.(3) <- ts.((2 * cons) + 1);
  pipe_core s p r.fw r.lw (src * dim) r.fw r.lw (cons * dim) orf orl oo

let pipe_row s p r ~src ~cons ~dst =
  pipe_slots s p r ~src ~cons r.fw r.lw (dst * r.rdim);
  r.ts.(2 * dst) <- s.times.(4);
  r.ts.((2 * dst) + 1) <- s.times.(5)

let pipe_view s p r ~src ~cons =
  pipe_slots s p r ~src ~cons r.view_fw r.view_lw 0;
  result s r.view_fw r.view_lw

let tree_view s p r ~l ~r:right ~root =
  let t = s.times and rt = r.ts and dim = r.rdim in
  t.(6) <- rt.(2 * l);
  t.(7) <- rt.((2 * l) + 1);
  t.(8) <- rt.(2 * right);
  t.(9) <- rt.((2 * right) + 1);
  t.(10) <- rt.(2 * root);
  t.(11) <- rt.((2 * root) + 1);
  tree_core s p r.fw r.lw (l * dim) r.fw r.lw (right * dim) r.fw r.lw
    (root * dim) r.view_fw r.view_lw 0;
  result s r.view_fw r.view_lw

let copy d =
  let own (v : Rvec.t) =
    { v with Rvec.work = Vecf.unsafe_adopt (Array.copy (raw v.Rvec.work)) }
  in
  let rl = own d.rl in
  { rf = (if d.rf == d.rl then rl else own d.rf); rl }

let response_time d = d.rl.Rvec.time
let first_tuple_time d = d.rf.Rvec.time
let work d = Rvec.total_work d.rl
let work_vector d = d.rl.Rvec.work

let equal ?eps a b = Rvec.equal ?eps a.rf b.rf && Rvec.equal ?eps a.rl b.rl

let pp ppf d =
  Format.fprintf ppf "{first=%a; last=%a}" Rvec.pp d.rf Rvec.pp d.rl
