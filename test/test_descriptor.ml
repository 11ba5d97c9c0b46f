(* The contention-aware resource-descriptor calculus (§5.2.2), including
   the delta(k) pipeline penalty and the §5 desiderata. *)

module D = Parqo.Descriptor
module R = Parqo.Rvec
module V = Parqo.Vecf

let t name f = Alcotest.test_case name `Quick f

let rv t a b = R.make ~time:t ~work:(V.of_array [| a; b |])
let p0 = D.params 0.

let atomic_blocking () =
  let u = rv 10. 10. 0. in
  let a = D.atomic u in
  Helpers.check_float "atomic first" 0. (D.first_tuple_time a);
  Helpers.check_float "atomic last" 10. (D.response_time a);
  let b = D.blocking u in
  Helpers.check_float "blocking first" 10. (D.first_tuple_time b);
  Alcotest.(check bool) "sync = blocking of rl" true
    (D.equal (D.sync a) (D.blocking u))

let delta_interpolation () =
  let p = D.params 1.0 in
  (* no shared resources: t' = max, delta = 1 *)
  let a = rv 10. 10. 0. and b = rv 10. 0. 10. in
  Helpers.check_float "disjoint: delta=1" 1. (D.delta p a b);
  (* fully shared: t' = sum, delta = 1 + k *)
  let c = rv 10. 10. 0. and d = rv 10. 10. 0. in
  Helpers.check_float "contended: delta=1+k" 2. (D.delta p c d);
  (* zero-time residual: no penalty *)
  Helpers.check_float "zero residual" 1. (D.delta p a (R.zero 2));
  (* k = 0 disables *)
  Helpers.check_float "k=0" 1. (D.delta p0 c d)

let pipe_matches_example3 () =
  let join = D.atomic (rv 40. 40. 0.) in
  let p1 = D.atomic (rv 20. 20. 0.) in
  let p2 = D.atomic (rv 25. 0. 25.) in
  Helpers.check_float "NL(p1,-) = 60" 60.
    (D.response_time (D.pipe p0 p1 join));
  Helpers.check_float "NL(p2,-) = 40" 40.
    (D.response_time (D.pipe p0 p2 join))

(* §5 desiderata 1: IPE degrades toward SE as contention rises *)
let desideratum_ipe_degrades () =
  let nr = 2 in
  let op share =
    (* fraction [share] of the work on resource 0, the rest on 1 *)
    R.make ~time:10. ~work:(V.of_array [| 10. *. share; 10. *. (1. -. share) |])
  in
  ignore nr;
  let a = op 1.0 in
  let rt_at share = R.response_time (R.par a (op share)) in
  (* no overlap: max(10,10)=10 = IPE; full overlap: 20 = SE *)
  Helpers.check_float "no contention = IPE" 10. (rt_at 0.);
  Helpers.check_float "full contention = SE" 20. (rt_at 1.);
  Alcotest.(check bool) "monotone degradation" true
    (rt_at 0. <= rt_at 0.5 && rt_at 0.5 <= rt_at 1.0)

(* §5 desiderata 2: DPE ranges from IPE down to worse than SE *)
let desideratum_dpe_range () =
  let k = 0.5 in
  let p = D.params k in
  (* disjoint resources: pipeline = IPE of the two phases *)
  let prod = D.atomic (rv 10. 10. 0.) and cons = D.atomic (rv 10. 0. 10.) in
  Helpers.check_float "DPE best = IPE" 10.
    (D.response_time (D.pipe p prod cons));
  (* full contention: pipeline pays delta on top of the serialized time,
     i.e. strictly worse than sequential execution *)
  let prod2 = D.atomic (rv 10. 10. 0.) and cons2 = D.atomic (rv 10. 10. 0.) in
  let dpe = D.response_time (D.pipe p prod2 cons2) in
  let se = D.response_time (D.dseq prod2 cons2) in
  Helpers.check_float "SE is 20" 20. se;
  Alcotest.(check bool) "DPE worse than SE under contention" true (dpe > se);
  Helpers.check_float "penalty is delta" (se *. (1. +. k)) dpe

(* §5 desiderata 3: CPE ~ IPE of the clones *)
let desideratum_cpe () =
  (* one op of 12 units cloned 3 ways over 3 resources *)
  let clones =
    List.init 3 (fun i ->
        D.atomic
          (R.make ~time:4.
             ~work:(V.init 3 (fun j -> if i = j then 4. else 0.))))
  in
  let combined =
    match clones with
    | first :: rest ->
      List.fold_left
        (fun acc c ->
          { D.rf = R.par acc.D.rf c.D.rf; rl = R.par acc.D.rl c.D.rl })
        first rest
    | [] -> assert false
  in
  Helpers.check_float "3-way clone = 1/3 the time" 4.
    (D.response_time combined)

let tree_with_resources () =
  (* replicate Example 2 shapes with 1-resource vectors: the resource
     calculus collapses to the time calculus when all work shares one
     resource... except || becomes contended. Use disjoint resources to
     match the scalar max. *)
  let dim = 4 in
  let on i t = R.make ~time:t ~work:(V.init dim (fun j -> if i = j then t else 0.)) in
  let sort1 = D.sync (D.pipe p0 (D.atomic (on 0 1.)) (D.blocking (on 0 5.))) in
  Helpers.check_float "sort1 rt 6" 6. (D.response_time sort1);
  let sort2 = D.sync (D.pipe p0 (D.atomic (on 1 3.)) (D.blocking (on 1 10.))) in
  Helpers.check_float "sort2 rt 13" 13. (D.response_time sort2);
  let merge = D.tree p0 sort1 sort2 (D.atomic (on 2 2.)) in
  Helpers.check_float "merge rf 13" 13. (D.first_tuple_time merge);
  Helpers.check_float "merge rl 15" 15. (D.response_time merge)

let delta_modes () =
  let stretch = D.params ~delta_mode:D.Stretch_time 1.0 in
  let scale = D.params ~delta_mode:D.Scale_all 1.0 in
  let a = D.atomic (rv 10. 10. 0.) and b = D.atomic (rv 10. 10. 0.) in
  let w_stretch = D.work (D.pipe stretch a b) in
  let w_scale = D.work (D.pipe scale a b) in
  Helpers.check_float "stretch preserves work" 20. w_stretch;
  Helpers.check_float "scale doubles penalized work" 40. w_scale;
  Helpers.check_float "same response time"
    (D.response_time (D.pipe stretch a b))
    (D.response_time (D.pipe scale a b))

let rvec_desc_gen =
  QCheck2.Gen.(
    map
      (fun (a, b, slack, fa, fb) ->
        let rl_work = V.of_array [| a; b |] in
        let rl = R.make ~time:(Float.max a b +. slack) ~work:rl_work in
        let rf_work = V.of_array [| a *. fa; b *. fb |] in
        let rf =
          R.make
            ~time:(Float.min rl.R.time (Float.max (a *. fa) (b *. fb)))
            ~work:rf_work
        in
        D.make ~rf ~rl)
      (tup5 (float_bound_inclusive 40.) (float_bound_inclusive 40.)
         (float_bound_inclusive 20.) (float_bound_inclusive 1.)
         (float_bound_inclusive 1.)))

let prop_pipe_first_before_last =
  Helpers.qtest "pipe keeps rf <= rl" (QCheck2.Gen.pair rvec_desc_gen rvec_desc_gen)
    (fun (p, c) ->
      let r = D.pipe (D.params 0.3) p c in
      D.first_tuple_time r <= D.response_time r +. 1e-6)

let prop_pipe_work_conserved_stretch =
  Helpers.qtest "stretch-mode pipe conserves work"
    (QCheck2.Gen.pair rvec_desc_gen rvec_desc_gen) (fun (p, c) ->
      let r = D.pipe (D.params ~delta_mode:D.Stretch_time 2.0) p c in
      Helpers.feq ~eps:1e-5 (D.work r) (D.work p +. D.work c))

let prop_delta_in_range =
  Helpers.qtest "delta within [1, 1+k]"
    (QCheck2.Gen.pair rvec_desc_gen rvec_desc_gen) (fun (p, c) ->
      let k = 0.7 in
      let d =
        D.delta (D.params k)
          (R.residual p.D.rl p.D.rf)
          (R.residual c.D.rl c.D.rf)
      in
      d >= 1. -. 1e-9 && d <= 1. +. k +. 1e-9)

(* ---- the one-pass kernels against the reference kernels ---- *)

module Ref = Descriptor_reference

let bits = Int64.bits_of_float

let rvec_bits (r : R.t) = bits r.R.time :: List.map bits (Array.to_list (V.to_array r.R.work))
let desc_bits (d : D.t) = rvec_bits d.D.rf @ rvec_bits d.D.rl

(* coordinates of varied magnitude, so that summation order shows in the
   last bits, with exact zeros *)
let coord =
  QCheck2.Gen.(
    frequency
      [
        (1, return 0.);
        ( 5,
          map2
            (fun m e -> m *. (10. ** float_of_int e))
            (float_bound_inclusive 1.) (int_range (-4) 4) );
      ])

(* raw rows: an all-zero row, or independent coordinates — so residuals
   go negative (and are clamped) as well as positive *)
let row dim =
  QCheck2.Gen.(
    frequency
      [ (1, return (Array.make dim 0.)); (5, array_size (return dim) coord) ])

(* a time at or above the row's busiest coordinate, or an arbitrary one *)
let rvec dim =
  QCheck2.Gen.(
    map3
      (fun w slack free ->
        let busiest = Array.fold_left Float.max 0. w in
        let time = match free with Some t -> t | None -> busiest +. slack in
        { R.time; work = V.of_array w })
      (row dim) coord (opt ~ratio:0.2 coord))

let desc dim = QCheck2.Gen.map2 (fun rf rl -> { D.rf; rl }) (rvec dim) (rvec dim)

let dparams =
  QCheck2.Gen.(
    map2
      (fun k scale ->
        D.params ~delta_mode:(if scale then D.Scale_all else D.Stretch_time) k)
      (frequency [ (1, return 0.); (4, float_bound_inclusive 3.) ])
      bool)

(* one machine dimension (one-resource machines included), the
   parameters, and several calls on one reused scratch *)
let kernel_case =
  QCheck2.Gen.(
    int_range 0 6 >>= fun dim ->
    pair dparams (list_size (int_range 1 4) (quad (desc dim) (desc dim) (desc dim) bool))
    |> map (fun x -> (dim, x)))

let prop_kernels_match_reference =
  Helpers.qtest ~count:500 "pipe_s and tree_s = reference, Int64-exact"
    kernel_case (fun (dim, (p, calls)) ->
      let s = D.scratch dim and rs = Ref.scratch dim in
      List.for_all
        (fun (a, b, c, as_tree) ->
          if as_tree then
            desc_bits (D.tree_s s p a b c) = desc_bits (Ref.tree_s rs p a b c)
          else desc_bits (D.pipe_s s p a b) = desc_bits (Ref.pipe_s rs p a b))
        calls)

(* [delta] over residuals, a zero-time one included: the [hi - lo <=
   1e-12] branch *)
let prop_delta_matches_reference =
  Helpers.qtest ~count:500 "delta = reference delta_factor, Int64-exact"
    QCheck2.Gen.(
      int_range 0 6 >>= fun dim ->
      triple dparams (rvec dim)
        (frequency [ (1, return (R.zero dim)); (3, rvec dim) ]))
    (fun (p, r1, r2) ->
      bits (D.delta p r1 r2)
      = bits
          (Ref.delta_factor p ~rp_t:r1.R.time ~rc_t:r2.R.time
             ~ov_t:(R.par r1 r2).R.time))

let prop_of_accumulated_matches_reference =
  Helpers.qtest ~count:500 "Rvec.of_accumulated = reference, Int64-exact"
    QCheck2.Gen.(
      int_range 0 8 >>= fun dim ->
      triple (row dim) (int_range 1 8) (float_bound_inclusive 0.5))
    (fun (w, lanes, overhead) ->
      rvec_bits (R.of_accumulated (Array.copy w) ~lanes ~overhead)
      = rvec_bits (Ref.of_accumulated (Array.copy w) ~lanes ~overhead))

(* every operator of random plans, on machines with rescaled speeds: the
   base descriptor's time is the reference [of_accumulated] over the
   work row [Opcost.base] accumulated, and [Opcost.base_row] stores that
   descriptor *)
let opcost_base_matches_reference () =
  let module Op = Parqo.Op in
  let module M = Parqo.Machine in
  let rng = Parqo.Rng.create 22 in
  for _ = 1 to 60 do
    let n = Parqo.Rng.range rng 1 4 in
    let catalog, query = Parqo.Query_gen.random rng ~n () in
    let machine =
      match Parqo.Rng.int rng 3 with
      | 0 -> M.shared_nothing ~nodes:(Parqo.Rng.range rng 1 4) ()
      | 1 -> M.shared_memory ~cpus:(Parqo.Rng.range rng 1 4) ~disks:2 ()
      | _ -> M.sequential ()
    in
    let machine =
      M.rescale machine
        ~speeds:
          (List.init (M.n_resources machine) (fun id ->
               (id, 0.25 +. Parqo.Rng.float rng 1.75)))
    in
    let env = Parqo.Env.create ~machine ~catalog ~query () in
    let pc = env.Parqo.Env.placement and est = env.Parqo.Env.estimator in
    let overhead = machine.M.params.M.clone_overhead in
    let root = Parqo.Expand.expand est (Helpers.random_tree rng env) in
    Op.iter
      (fun (node : Op.node) ->
        let d = Parqo.Opcost.base pc est node in
        let n_cpus = Array.length pc.Parqo.Placement.cpu_ids in
        let lanes =
          match node.Op.kind with
          | Op.Seq_scan { rel } when n_cpus = 0 ->
            max 1
              (min node.Op.clone
                 (Array.length pc.Parqo.Placement.disks_of_rel.(rel)))
          | _ -> if n_cpus = 0 then 1 else min node.Op.clone n_cpus
        in
        let w = V.to_array d.D.rl.R.work in
        Alcotest.(check (list int64))
          (Op.kind_name node.Op.kind)
          (rvec_bits (Ref.of_accumulated w ~lanes ~overhead))
          (rvec_bits d.D.rl);
        (* priced into a store's slot over a stale row, the same
           descriptor, bit for bit *)
        let rows = D.rows (V.dim d.D.rl.R.work) in
        D.rows_reserve rows 3;
        D.set_row rows 1 (D.blocking d.D.rl);
        Parqo.Opcost.base_row pc est node rows 1;
        Alcotest.(check (list int64))
          (Op.kind_name node.Op.kind ^ " base_row")
          (desc_bits d) (desc_bits (D.row rows 1)))
      root
  done

let suite =
  ( "descriptor",
    [
      t "atomic/blocking/sync" atomic_blocking;
      t "delta interpolation" delta_interpolation;
      t "pipe matches Example 3" pipe_matches_example3;
      t "desideratum: IPE degrades to SE" desideratum_ipe_degrades;
      t "desideratum: DPE spans IPE..worse-than-SE" desideratum_dpe_range;
      t "desideratum: CPE ~ IPE of clones" desideratum_cpe;
      t "tree with resources" tree_with_resources;
      t "delta modes" delta_modes;
      prop_pipe_first_before_last;
      prop_pipe_work_conserved_stretch;
      prop_delta_in_range;
      prop_kernels_match_reference;
      prop_delta_matches_reference;
      prop_of_accumulated_matches_reference;
      t "Opcost.base = reference of_accumulated" opcost_base_matches_reference;
    ] )
