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
(* The kernel.

   [pipe]/[tree] are evaluated once per candidate operator in the DP hot
   path.  One kernel computes both, on caller-owned rows, in one pass
   over the resources: a tree's front, its children's residuals, their
   pipe and the pipe of all that into the root, coordinate by
   coordinate.  Under [Scale_all] a penalty scales the overlaps, and a
   penalty needs every maximum of its pipe first, so there the tree's
   residual pipe takes a pass of its own before, and the final scaling
   one after.  Maxima and sums are kept in local float variables, which
   the compiler keeps unboxed.  Every coordinate gets the same float
   operations, in the same order, as the allocating [Rvec] forms
   ([Rvec.par], [Rvec.residual], [Rvec.seq]) composed as [pipe] and
   [tree] define, so results are bit-identical to them.

   The same pass takes the result's {e measures}: what pruning
   coordinates are made of, for the result and for its [sync] (its
   first-tuple row is its last-tuple row).

   An operand is three things: the array holding its first-tuple work,
   the array holding its last-tuple work, and the offset of its rows in
   both — a descriptor's own vectors at offset 0, or a slot of a [rows]
   store.  Its two times travel through the scratch's [times] slots.

   The float helpers are this module's own: under [-opaque] (dune's dev
   profile) a call into another module is never inlined, and a float
   passed to or returned from a call that is not inlined is boxed.  For
   the same reason the kernel takes and returns its times through the
   scratch's [times] slots and its measures' record, rather than as
   arguments. *)

let fmax (a : float) (b : float) = if a >= b then a else b
let fmin (a : float) (b : float) = if a <= b then a else b

type measures = {
  mutable first_time : float;
  mutable last_time : float;
  mutable first_work : float;
  mutable work : float;
  mutable residual : float;
  mutable busiest : float;
  mutable twin_residual : float;
  mutable twin_busiest : float;
}

let measures () =
  {
    first_time = 0.;
    last_time = 0.;
    first_work = 0.;
    work = 0.;
    residual = 0.;
    busiest = 0.;
    twin_residual = 0.;
    twin_busiest = 0.;
  }

type view = { fw : float array; lw : float array; m : measures }

let view dim =
  { fw = Array.make dim 0.; lw = Array.make dim 0.; m = measures () }

type scratch = {
  sdim : int;
  times : float array;
      (* inputs: left (a pipe's producer) rf, rl in 0-1, right rf, rl in
         2-3, root (a pipe's consumer) rf, rl in 4-5; the tree's front
         and residual maxima in 6-11 and its residual pipe's times in
         12-15; the final pipe's producer times in 16-17, its maxima in
         18-20 and its factor in 21 *)
  out : measures;  (* of [pipe_s], [tree_s] and [pipe_row] *)
}

let scratch dim = { sdim = dim; times = Array.make 22 0.; out = measures () }

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

(* The tree's residual pipe, from the maxima in [times.(6..11)]: the
   front's time, then the two residuals (their first tuple at zero: the
   front charged it) pipelined against each other — its times and
   factor into [times.(12..15)]. *)
let residual_times s p =
  let t = s.times in
  let front_t = fmax (fmax t.(0) t.(2)) t.(6) in
  let p0 = 0. and p1 = fmax t.(7) (fmax 0. (t.(1) -. t.(0))) in
  let c0 = 0. and c1 = fmax t.(8) (fmax 0. (t.(3) -. t.(2))) in
  let rp_t = fmax t.(9) (fmax 0. (p1 -. p0))
  and rc_t = fmax t.(10) (fmax 0. (c1 -. c0)) in
  let ov_t = fmax (fmax rp_t rc_t) t.(11) in
  let factor = delta_factor p ~rp_t ~rc_t ~ov_t in
  let rf_t = p0 +. c0 in
  t.(12) <- front_t;
  t.(13) <- rf_t;
  t.(14) <- rf_t +. (factor *. ov_t);
  t.(15) <- factor

(* The final pipe's times, from its producer's times in
   [times.(16..17)], its consumer's in [times.(4..5)] and its maxima in
   [times.(18..20)]: into [m], its factor into [times.(21)]. *)
let final_times s p m =
  let t = s.times in
  let rp_t = fmax t.(18) (fmax 0. (t.(17) -. t.(16)))
  and rc_t = fmax t.(19) (fmax 0. (t.(5) -. t.(4))) in
  let ov_t = fmax (fmax rp_t rc_t) t.(20) in
  let factor = delta_factor p ~rp_t ~rc_t ~ov_t in
  let rf_t = t.(16) +. t.(4) in
  m.first_time <- rf_t;
  m.last_time <- rf_t +. (factor *. ov_t);
  t.(21) <- factor

(* [tree]: left ([lrf], [lrl] at [lo]), right ([rrf], [rrl] at [ro]) and
   root ([crf], [crl] at [co]) into [orf]/[orl] at [oo]: front = l.rf ||
   r.rf and the children's residuals (their rf is zero: the front
   already charged the first-tuple work); the residuals pipelined
   against each other, the front sequenced before them, and that piped
   into the root.  Not [tree]: the producer ([lrf], [lrl] at [lo]) piped
   into the consumer ([crf], [crl] at [co]); the right operand is not
   read.  Per pipe and coordinate: rf = producer rf + consumer rf; each
   side's residual clamped at zero; the overlap their sum; rl = rf + the
   overlap, scaled by the penalty under [Scale_all].  Times in and out
   as [scratch] lays them out; the measures into [m]. *)
let kernel s p ~tree (lrf : float array) (lrl : float array) lo
    (rrf : float array) (rrl : float array) ro (crf : float array)
    (crl : float array) co (orf : float array) (orl : float array) oo m =
  let t = s.times and dim = s.sdim in
  let stretch =
    match p.delta_mode with Stretch_time -> true | Scale_all -> false
  in
  let front_max = ref neg_infinity
  and a_max = ref neg_infinity
  and b_max = ref neg_infinity
  and rp1_max = ref neg_infinity
  and rc1_max = ref neg_infinity
  and o1_max = ref neg_infinity in
  if tree && not stretch then begin
    (* the residual pipe's pass: the front into [orf], the overlap into
       [orl] *)
    for i = 0 to dim - 1 do
      let fl = lrf.(lo + i) and fr = rrf.(ro + i) in
      let f = fl +. fr in
      front_max := fmax !front_max f;
      let a = fmax 0. (lrl.(lo + i) -. fl) in
      a_max := fmax !a_max a;
      let b = fmax 0. (rrl.(ro + i) -. fr) in
      b_max := fmax !b_max b;
      let rp = fmax 0. (a -. 0.) and rc = fmax 0. (b -. 0.) in
      let o = rp +. rc in
      rp1_max := fmax !rp1_max rp;
      rc1_max := fmax !rc1_max rc;
      o1_max := fmax !o1_max o;
      orf.(oo + i) <- f;
      orl.(oo + i) <- o
    done;
    t.(6) <- !front_max;
    t.(7) <- !a_max;
    t.(8) <- !b_max;
    t.(9) <- !rp1_max;
    t.(10) <- !rc1_max;
    t.(11) <- !o1_max;
    residual_times s p
  end;
  let f1 = t.(15) in
  let rp2_max = ref neg_infinity
  and rc2_max = ref neg_infinity
  and o2_max = ref neg_infinity in
  let sf = ref 0.
  and sl = ref 0.
  and sr = ref 0.
  and mr = ref neg_infinity
  and tr = ref 0.
  and tm = ref neg_infinity in
  for i = 0 to dim - 1 do
    (* the final pipe's producer coordinate *)
    let pf = ref 0. and pl = ref 0. in
    if not tree then begin
      pf := lrf.(lo + i);
      pl := lrl.(lo + i)
    end
    else if stretch then begin
      let fl = lrf.(lo + i) and fr = rrf.(ro + i) in
      let f = fl +. fr in
      front_max := fmax !front_max f;
      let a = fmax 0. (lrl.(lo + i) -. fl) in
      a_max := fmax !a_max a;
      let b = fmax 0. (rrl.(ro + i) -. fr) in
      b_max := fmax !b_max b;
      let irf = 0. +. 0. in
      let rp = fmax 0. (a -. 0.) and rc = fmax 0. (b -. 0.) in
      let o = rp +. rc in
      rp1_max := fmax !rp1_max rp;
      rc1_max := fmax !rc1_max rc;
      o1_max := fmax !o1_max o;
      let irl = irf +. o in
      pf := f +. irf;
      pl := f +. irl
    end
    else begin
      let f = orf.(oo + i) and o = orl.(oo + i) in
      let irf = 0. +. 0. in
      let irl = irf +. (f1 *. o) in
      pf := f +. irf;
      pl := f +. irl
    end;
    let pf = !pf and pl = !pl and cf = crf.(co + i) in
    let x = pf +. cf in
    orf.(oo + i) <- x;
    let rp = fmax 0. (pl -. pf) and rc = fmax 0. (crl.(co + i) -. cf) in
    let o = rp +. rc in
    rp2_max := fmax !rp2_max rp;
    rc2_max := fmax !rc2_max rc;
    o2_max := fmax !o2_max o;
    if stretch then begin
      let l = x +. o in
      orl.(oo + i) <- l;
      sf := !sf +. x;
      sl := !sl +. l;
      let r = fmax 0. (l -. x) in
      sr := !sr +. r;
      mr := fmax !mr r;
      let r = fmax 0. (l -. l) in
      tr := !tr +. r;
      tm := fmax !tm r
    end
    else orl.(oo + i) <- o
  done;
  if tree && stretch then begin
    t.(6) <- !front_max;
    t.(7) <- !a_max;
    t.(8) <- !b_max;
    t.(9) <- !rp1_max;
    t.(10) <- !rc1_max;
    t.(11) <- !o1_max;
    residual_times s p
  end;
  if tree then begin
    t.(16) <- t.(12) +. t.(13);
    t.(17) <- t.(12) +. t.(14)
  end
  else begin
    t.(16) <- t.(0);
    t.(17) <- t.(1)
  end;
  t.(18) <- !rp2_max;
  t.(19) <- !rc2_max;
  t.(20) <- !o2_max;
  final_times s p m;
  if not stretch then begin
    (* the scaling pass: rl = rf + the penalized overlap *)
    let f2 = t.(21) in
    for i = 0 to dim - 1 do
      let x = orf.(oo + i) in
      let l = x +. (f2 *. orl.(oo + i)) in
      orl.(oo + i) <- l;
      sf := !sf +. x;
      sl := !sl +. l;
      let r = fmax 0. (l -. x) in
      sr := !sr +. r;
      mr := fmax !mr r;
      let r = fmax 0. (l -. l) in
      tr := !tr +. r;
      tm := fmax !tm r
    done
  end;
  m.first_work <- !sf;
  m.work <- !sl;
  m.residual <- !sr;
  m.busiest <- !mr;
  m.twin_residual <- !tr;
  m.twin_busiest <- !tm

(* the kernel's result, over the given work rows *)
let result m rf_w rl_w =
  {
    rf = { Rvec.time = m.first_time; work = Vecf.unsafe_adopt rf_w };
    rl = { Rvec.time = m.last_time; work = Vecf.unsafe_adopt rl_w };
  }

let pipe_s s p producer consumer =
  let rf_w = Array.make s.sdim 0. and rl_w = Array.make s.sdim 0. in
  let t = s.times and w = raw producer.rf.Rvec.work in
  t.(0) <- producer.rf.Rvec.time;
  t.(1) <- producer.rl.Rvec.time;
  t.(4) <- consumer.rf.Rvec.time;
  t.(5) <- consumer.rl.Rvec.time;
  kernel s p ~tree:false w (raw producer.rl.Rvec.work) 0 w w 0
    (raw consumer.rf.Rvec.work) (raw consumer.rl.Rvec.work) 0 rf_w rl_w 0
    s.out;
  result s.out rf_w rl_w

let dseq a b = { rf = Rvec.seq a.rf b.rf; rl = Rvec.seq a.rl b.rl }

let tree_s s p l r root =
  let t = s.times in
  t.(0) <- l.rf.Rvec.time;
  t.(1) <- l.rl.Rvec.time;
  t.(2) <- r.rf.Rvec.time;
  t.(3) <- r.rl.Rvec.time;
  t.(4) <- root.rf.Rvec.time;
  t.(5) <- root.rl.Rvec.time;
  let rf_w = Array.make s.sdim 0. and rl_w = Array.make s.sdim 0. in
  kernel s p ~tree:true (raw l.rf.Rvec.work) (raw l.rl.Rvec.work) 0
    (raw r.rf.Rvec.work) (raw r.rl.Rvec.work) 0 (raw root.rf.Rvec.work)
    (raw root.rl.Rvec.work) 0 rf_w rl_w 0 s.out;
  result s.out rf_w rl_w

let pipe p producer consumer =
  pipe_s (scratch (Parqo_util.Vecf.dim producer.rf.Rvec.work)) p producer consumer

let tree p l r root =
  tree_s (scratch (Parqo_util.Vecf.dim l.rf.Rvec.work)) p l r root

(* A view's measures from its rows, as the kernel takes them. *)
let load v d =
  let fw = raw d.rf.Rvec.work and lw = raw d.rl.Rvec.work in
  let vf = v.fw and vl = v.lw and m = v.m in
  let sf = ref 0.
  and sl = ref 0.
  and sr = ref 0.
  and mr = ref neg_infinity
  and tr = ref 0.
  and tm = ref neg_infinity in
  for i = 0 to Array.length vf - 1 do
    let x = fw.(i) and l = lw.(i) in
    vf.(i) <- x;
    vl.(i) <- l;
    sf := !sf +. x;
    sl := !sl +. l;
    let r = fmax 0. (l -. x) in
    sr := !sr +. r;
    mr := fmax !mr r;
    let r = fmax 0. (l -. l) in
    tr := !tr +. r;
    tm := fmax !tm r
  done;
  m.first_time <- d.rf.Rvec.time;
  m.last_time <- d.rl.Rvec.time;
  m.first_work <- !sf;
  m.work <- !sl;
  m.residual <- !sr;
  m.busiest <- !mr;
  m.twin_residual <- !tr;
  m.twin_busiest <- !tm

let of_view v ~twin =
  let rl =
    { Rvec.time = v.m.last_time; work = Vecf.unsafe_adopt (Array.copy v.lw) }
  in
  if twin then { rf = rl; rl }
  else
    {
      rf =
        { Rvec.time = v.m.first_time; work = Vecf.unsafe_adopt (Array.copy v.fw) };
      rl;
    }

(* ---------------------------------------------------------------- *)
(* Flat rows: descriptors stored as floats, slot [k]'s first-tuple work
   at [k * dim] of [fw], its last-tuple work at [k * dim] of [lw], and
   its two times at [2k] and [2k + 1] of [ts].  The [_view] kernels
   write their result into the store's view.  A store holds no pointer
   but its arrays and the view's. *)

type rows = {
  rdim : int;
  mutable fw : float array;
  mutable lw : float array;
  mutable ts : float array;
  rview : view;
}

let rows dim = { rdim = dim; fw = [||]; lw = [||]; ts = [||]; rview = view dim }
let rows_view r = r.rview

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

let row r k =
  let o = k * r.rdim in
  let work a = Vecf.unsafe_adopt (Array.sub a o r.rdim) in
  {
    rf = { Rvec.time = r.ts.(2 * k); work = work r.fw };
    rl = { Rvec.time = r.ts.((2 * k) + 1); work = work r.lw };
  }

let row_work r = r.lw

(* [Rvec.of_accumulated]'s pass over the row, then [atomic] or
   [blocking] of its result *)
let usage_row r k ~lanes ~overhead ~blocking =
  if lanes < 1 then invalid_arg "Descriptor.usage_row: lanes < 1";
  let o = k * r.rdim and fw = r.fw and lw = r.lw in
  let total = ref 0. and busiest = ref neg_infinity in
  for i = o to o + r.rdim - 1 do
    let w = lw.(i) in
    total := !total +. w;
    busiest := fmax !busiest w;
    fw.(i) <- (if blocking then w else 0.)
  done;
  let cloned =
    !total /. float_of_int lanes
    *. (1. +. (overhead *. float_of_int (lanes - 1)))
  in
  let time = fmax !busiest cloned in
  r.ts.(2 * k) <- (if blocking then time else 0.);
  r.ts.((2 * k) + 1) <- time

let sync_row r k =
  let o = k * r.rdim and fw = r.fw and lw = r.lw in
  for i = o to o + r.rdim - 1 do
    fw.(i) <- lw.(i)
  done;
  r.ts.(2 * k) <- r.ts.((2 * k) + 1)

(* slot [k]'s times into the scratch's, from [at] *)
let[@inline] slot_times s r k at =
  s.times.(at) <- r.ts.(2 * k);
  s.times.(at + 1) <- r.ts.((2 * k) + 1)

let pipe_row s p r ~src ~cons ~dst =
  let dim = r.rdim in
  slot_times s r src 0;
  slot_times s r cons 4;
  kernel s p ~tree:false r.fw r.lw (src * dim) r.fw r.lw 0 r.fw r.lw
    (cons * dim) r.fw r.lw (dst * dim) s.out;
  r.ts.(2 * dst) <- s.out.first_time;
  r.ts.((2 * dst) + 1) <- s.out.last_time

let pipe_view s p r ~src ~cons =
  let dim = r.rdim and v = r.rview in
  slot_times s r src 0;
  slot_times s r cons 4;
  kernel s p ~tree:false r.fw r.lw (src * dim) r.fw r.lw 0 r.fw r.lw
    (cons * dim) v.fw v.lw 0 v.m

let tree_view s p r ~l ~r:right ~root =
  let dim = r.rdim and v = r.rview in
  slot_times s r l 0;
  slot_times s r right 2;
  slot_times s r root 4;
  kernel s p ~tree:true r.fw r.lw (l * dim) r.fw r.lw (right * dim) r.fw
    r.lw (root * dim) v.fw v.lw 0 v.m

let response_time d = d.rl.Rvec.time
let first_tuple_time d = d.rf.Rvec.time
let work d = Rvec.total_work d.rl
let work_vector d = d.rl.Rvec.work

let equal ?eps a b = Rvec.equal ?eps a.rf b.rf && Rvec.equal ?eps a.rl b.rl

let pp ppf d =
  Format.fprintf ppf "{first=%a; last=%a}" Rvec.pp d.rf Rvec.pp d.rl
