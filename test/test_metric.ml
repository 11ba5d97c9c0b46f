module Mt = Parqo.Metric
module Cm = Parqo.Costmodel
module J = Parqo.Join_tree
module M = Parqo.Join_method
module G = Parqo.Query_gen

let t name f = Alcotest.test_case name `Quick f

let env () = Helpers.chain_env ()

let eval env tree = Cm.evaluate env tree

let scalar_metrics_total () =
  let env = env () in
  let a = eval env (J.join M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1)) in
  let b = eval env (J.join M.Sort_merge ~outer:(J.access 0) ~inner:(J.access 1)) in
  (* work metric: one of the two directions must hold (total order) *)
  Alcotest.(check bool) "work total order" true
    (Mt.dominates Mt.work a b || Mt.dominates Mt.work b a);
  Alcotest.(check bool) "rt total order" true
    (Mt.dominates Mt.response_time a b || Mt.dominates Mt.response_time b a);
  Alcotest.(check int) "work is 1-dim" 1 (Mt.n_dims Mt.work a)

let vector_metric_partial () =
  let env = env () in
  let machine = env.Parqo.Env.machine in
  let m = Mt.resource_vector machine Parqo.Machine.By_kind in
  let a = eval env (J.join M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1)) in
  Alcotest.(check bool) "reflexive" true (Mt.dominates m a a);
  Alcotest.(check bool) "dims = 1 + kinds" true (Mt.n_dims m a >= 3)

let descriptor_metric_dims () =
  let env = env () in
  let machine = env.Parqo.Env.machine in
  let a = eval env (J.access 0) in
  let per = Mt.descriptor machine Parqo.Machine.Per_resource in
  let single = Mt.descriptor machine Parqo.Machine.Single in
  Alcotest.(check int) "single = 4 dims" 4 (Mt.n_dims single a);
  Alcotest.(check int) "per-resource = 2 + 2R dims"
    (2 + (2 * Parqo.Machine.n_resources machine))
    (Mt.n_dims per a)

let ordering_refinement () =
  let env = env () in
  let catalog = Parqo.Env.catalog env in
  let machine = env.Parqo.Env.machine in
  let base = Mt.descriptor machine Parqo.Machine.Single in
  let with_ord = Mt.with_ordering base in
  let idx =
    List.find
      (fun (i : Parqo.Index.t) -> i.Parqo.Index.columns = [ "j0_1" ])
      (Parqo.Catalog.indexes_of catalog "t0")
  in
  let ordered = eval env (J.access ~path:(Parqo.Access_path.Index_scan idx) 0) in
  let unordered = eval env (J.access 0) in
  (* the plain metric may let the cheap unordered scan dominate; with the
     ordering dimension the ordered plan survives *)
  if Mt.dominates base unordered ordered then
    Alcotest.(check bool) "ordering saves the ordered plan" false
      (Mt.dominates with_ord unordered ordered);
  (* ordered plan still dominates itself *)
  Alcotest.(check bool) "reflexive with ordering" true
    (Mt.dominates with_ord ordered ordered)

(* Theorem 1: work is totally ordered and, under physical transparency
   (our estimator), satisfies the principle of optimality for plans in a
   space without interesting orders: extending two plans for the same
   subquery by the same hash join preserves their work order. *)
let theorem1_work_po () =
  let env = env () in
  let rng = Parqo.Rng.create 55 in
  let ok = ref true in
  for _ = 1 to 100 do
    (* two random plans for {0,1}, extended identically by relation 2 *)
    let mk () =
      J.join
        (Parqo.Rng.pick_list rng [ M.Hash_join; M.Nested_loops ])
        ~outer:(J.access 0) ~inner:(J.access 1)
    in
    let p1 = mk () and p2 = mk () in
    let extend p = J.join M.Hash_join ~outer:p ~inner:(J.access 2) in
    let w p = (eval env p).Cm.work in
    if w p1 <= w p2 && not (w (extend p1) <= w (extend p2) +. 1e-9) then
      ok := false
  done;
  Alcotest.(check bool) "principle of optimality for work" true !ok

(* Theorem 2 (exhibit): response time is a total order but extending two
   plans can invert it — the Example 3 family. *)
let theorem2_rt_violation () =
  Alcotest.(check bool) "Example 3 violates PO for RT" true
    (Parqo.Scenarios.example3_violates_po ())

let partitioning_refinement () =
  let env = env () in
  let machine = env.Parqo.Env.machine in
  let base = Mt.work in
  let with_part = Mt.with_partitioning base in
  let j clone =
    eval env (J.join ~clone M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1))
  in
  let seq = j 1 and par = j 4 in
  (* under plain work, the cheaper plan dominates; with the partitioning
     dimension, differently-partitioned plans are incomparable *)
  Alcotest.(check bool) "work: one dominates" true
    (Mt.dominates base seq par || Mt.dominates base par seq);
  Alcotest.(check bool) "partitioning keeps both" false
    (Mt.dominates with_part seq par || Mt.dominates with_part par seq);
  Alcotest.(check bool) "reflexive" true (Mt.dominates with_part seq seq);
  ignore machine

(* property: every metric's [fill] writes exactly the coordinates its
   definition gives — written out here from the descriptor with
   [Rvec.residual] and per-group sums — compared through their Int64
   bits, on random plans over a nominal machine, one with rescaled
   resource speeds, and one whose pipeline penalty scales work *)
let fill_matches_formula () =
  let rng = Parqo.Rng.create 56 in
  let nominal = Parqo.Machine.shared_nothing ~nodes:4 () in
  let machines =
    [
      ("nominal", nominal);
      ( "rescaled",
        Parqo.Machine.rescale nominal
          ~speeds:[ (0, 0.5); (2, 1.75); (5, 0.3); (8, 2.5) ] );
      ( "delta scales work",
        Parqo.Machine.shared_nothing
          ~params:
            {
              Parqo.Machine.default_params with
              Parqo.Machine.delta_scales_work = true;
            }
          ~nodes:4 () );
    ]
  in
  let group_sums machine agg w =
    let groups, group_of = Parqo.Machine.aggregate machine agg in
    let out = Array.make groups 0. in
    for i = 0 to Parqo.Vecf.dim w - 1 do
      out.(group_of i) <- out.(group_of i) +. Parqo.Vecf.get w i
    done;
    Array.to_list out
  in
  let contention ~pressure (e : Cm.eval) =
    let w = Parqo.Descriptor.work_vector e.Cm.descriptor in
    let acc = ref e.Cm.response_time in
    for r = 0 to min (Array.length pressure) (Parqo.Vecf.dim w) - 1 do
      acc := !acc +. (pressure.(r) *. Parqo.Vecf.get w r)
    done;
    !acc
  in
  let aggs =
    [ Parqo.Machine.Single; Parqo.Machine.By_kind; Parqo.Machine.By_node;
      Parqo.Machine.Per_resource ]
  in
  List.iter
    (fun (mname, machine) ->
      let catalog, query = G.random rng ~n:4 () in
      let env = Parqo.Env.create ~machine ~catalog ~query () in
      let pressure =
        Array.init (Parqo.Machine.n_resources machine) (fun r ->
            float_of_int (r mod 3) *. 0.25)
      in
      let metrics =
        [
          (Mt.work, fun (e : Cm.eval) -> [ e.Cm.work ]);
          (Mt.response_time, fun e -> [ e.Cm.response_time ]);
          ( Mt.expected_makespan env ~fault_rate:0.1,
            fun e ->
              [ Parqo.Faultcost.expected_response_time env ~fault_rate:0.1 e;
                e.Cm.work ] );
          (Mt.contended ~pressure, fun e -> [ contention ~pressure e; e.Cm.work ]);
        ]
        @ List.concat_map
            (fun agg ->
              [
                ( Mt.resource_vector machine agg,
                  fun (e : Cm.eval) ->
                    Parqo.Descriptor.response_time e.Cm.descriptor
                    :: group_sums machine agg
                         (Parqo.Descriptor.work_vector e.Cm.descriptor) );
                ( Mt.with_ordering (Mt.descriptor machine agg),
                  fun e ->
                    let rf = e.Cm.descriptor.Parqo.Descriptor.rf
                    and rl = e.Cm.descriptor.Parqo.Descriptor.rl in
                    let res = Parqo.Rvec.residual rl rf in
                    [ rf.Parqo.Rvec.time; res.Parqo.Rvec.time ]
                    @ group_sums machine agg rf.Parqo.Rvec.work
                    @ group_sums machine agg res.Parqo.Rvec.work );
              ])
            aggs
      in
      for _ = 1 to 10 do
        let tree = Helpers.random_tree rng env in
        let plans =
          Cm.evaluate env tree
          :: List.map
               (fun j -> Cm.evaluate env (J.Join j))
               (J.joins tree)
        in
        List.iter
          (fun (e : Cm.eval) ->
            List.iter
              (fun ((m : Mt.t), formula) ->
                let row = Array.make m.Mt.arity nan in
                m.Mt.fill (Cm.eval_view e) row;
                Alcotest.(check (list int64))
                  (Printf.sprintf "%s, %s" mname m.Mt.name)
                  (List.map Int64.bits_of_float (formula e))
                  (List.map Int64.bits_of_float (Array.to_list row)))
              metrics)
          plans
      done)
    machines

(* A cover's scan index ascends by the metric's lead coordinate, so it
   must be one of the metric's coordinates; and a refinement keeps its
   base metric's lead. *)
let lead_within_arity () =
  List.iter
    (fun nodes ->
      let env = Helpers.chain_env () in
      let machine = Parqo.Machine.shared_nothing ~nodes () in
      let pressure = Array.make (Parqo.Machine.n_resources machine) 0.5 in
      let base =
        [
          Mt.work;
          Mt.response_time;
          Mt.expected_makespan env ~fault_rate:0.1;
          Mt.contended ~pressure;
        ]
        @ List.concat_map
            (fun agg -> [ Mt.resource_vector machine agg; Mt.descriptor machine agg ])
            [
              Parqo.Machine.Single;
              Parqo.Machine.By_kind;
              Parqo.Machine.By_node;
              Parqo.Machine.Per_resource;
            ]
      in
      List.iter
        (fun (m : Mt.t) ->
          List.iter
            (fun (r : Mt.t) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: lead %d in [0, %d)" r.Mt.name r.Mt.lead
                   r.Mt.arity)
                true
                (0 <= r.Mt.lead && r.Mt.lead < r.Mt.arity);
              Alcotest.(check int) (r.Mt.name ^ ": base metric's lead") m.Mt.lead
                r.Mt.lead)
            [
              m;
              Mt.with_ordering m;
              Mt.with_partitioning m;
              Mt.with_ordering (Mt.with_partitioning m);
            ])
        base)
    [ 1; 4 ]

let suite =
  ( "metric",
    [
      t "partitioning refinement" partitioning_refinement;
      t "scalar metrics total" scalar_metrics_total;
      t "vector metric partial" vector_metric_partial;
      t "descriptor metric dims" descriptor_metric_dims;
      t "ordering refinement" ordering_refinement;
      t "Theorem 1: work satisfies PO" theorem1_work_po;
      t "Theorem 2: RT violates PO" theorem2_rt_violation;
      t "fill matches the formula, bit for bit" fill_matches_formula;
      t "every metric's lead lies within its arity" lead_within_arity;
    ] )
