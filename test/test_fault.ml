module Sim = Parqo.Simulator
module TG = Parqo.Task_graph
module F = Parqo.Fault
module R = Parqo.Recovery

let t name f = Alcotest.test_case name `Quick f

(* same hand-built graph helper as test_sim *)
let graph ~n_resources stages =
  {
    TG.stages =
      Array.of_list
        (List.mapi
           (fun i (tasks, deps) ->
             {
               TG.stage_id = i;
               tasks =
                 List.mapi
                   (fun j demands ->
                     {
                       TG.task_id = (i * 100) + j;
                       label = Printf.sprintf "t%d_%d" i j;
                       demands;
                     })
                   tasks;
               deps;
               op_root = None;
             })
           stages);
    n_resources;
    root_stage = 0;
  }

let random_graph rng =
  let n_stages = 1 + Parqo.Rng.int rng 4 in
  let stages =
    List.init n_stages (fun i ->
        let tasks =
          List.init
            (1 + Parqo.Rng.int rng 3)
            (fun _ -> Array.init 3 (fun _ -> 1. +. Parqo.Rng.float rng 10.))
        in
        let deps =
          if i < n_stages - 1 && Parqo.Rng.bool rng then [ i + 1 ] else []
        in
        (tasks, deps))
  in
  graph ~n_resources:3 stages

let chain_graph () =
  (* root <- s1 <- s2, two resources *)
  graph ~n_resources:2
    [
      ([ [| 3.; 1. |] ], [ 1 ]);
      ([ [| 2.; 4. |]; [| 1.; 1. |] ], [ 2 ]);
      ([ [| 5.; 2. |] ], []);
    ]

let policies =
  [
    ("retry", R.retry_task ());
    ("stage", R.Restart_stage);
    ("sync", R.Restart_from_sync);
    ("replan", R.replan ());
  ]

(* same seed and config reproduce the run bit-for-bit *)
let determinism () =
  let fc = F.default ~seed:7 ~straggler:true ~fault_rate:0.3 () in
  List.iter
    (fun (name, policy) ->
      let a = Sim.run ~faults:fc ~recovery:policy (chain_graph ()) in
      let b = Sim.run ~faults:fc ~recovery:policy (chain_graph ()) in
      Helpers.check_float (name ^ ": makespan") a.Sim.makespan b.Sim.makespan;
      Alcotest.(check int) (name ^ ": n_faults") a.Sim.n_faults b.Sim.n_faults;
      Alcotest.(check int) (name ^ ": n_retries") a.Sim.n_retries b.Sim.n_retries;
      Alcotest.(check (list (pair (float 0.) string)))
        (name ^ ": trace")
        (List.map (fun (e : Sim.event) -> (e.Sim.at, e.Sim.what)) a.Sim.trace)
        (List.map (fun (e : Sim.event) -> (e.Sim.at, e.Sim.what)) b.Sim.trace))
    policies

(* fault draws are pure functions of (seed, stage, task, attempt) *)
let draw_purity () =
  let fc = F.default ~seed:3 ~straggler:true ~fault_rate:0.5 () in
  for stage = 0 to 4 do
    for task = 0 to 4 do
      for attempt = 1 to 3 do
        let a = F.draw fc ~stage ~task ~attempt in
        let b = F.draw fc ~stage ~task ~attempt in
        Alcotest.(check bool) "fails equal" a.F.fails b.F.fails;
        Helpers.check_float "fail_point equal" a.F.fail_point b.F.fail_point;
        Helpers.check_float "slowdown equal" a.F.slowdown b.F.slowdown;
        Alcotest.(check bool) "fail_point in (0.05,0.95)" true
          (a.F.fail_point > 0.049 && a.F.fail_point < 0.951)
      done
    done
  done

(* an inactive config is bit-identical to no fault injection at all *)
let zero_rate_identity () =
  let g () = chain_graph () in
  let plain = Sim.run (g ()) in
  List.iter
    (fun fc ->
      let o = Sim.run ?faults:fc (g ()) in
      Helpers.check_float "makespan" plain.Sim.makespan o.Sim.makespan;
      Alcotest.(check int) "n_replans" 0 o.Sim.n_replans;
      Alcotest.(check (array (float 0.))) "busy" plain.Sim.busy o.Sim.busy;
      Alcotest.(check int) "n_faults" 0 o.Sim.n_faults;
      Alcotest.(check int) "n_retries" 0 o.Sim.n_retries;
      Alcotest.(check (list (pair (float 0.) string)))
        "trace"
        (List.map (fun (e : Sim.event) -> (e.Sim.at, e.Sim.what)) plain.Sim.trace)
        (List.map (fun (e : Sim.event) -> (e.Sim.at, e.Sim.what)) o.Sim.trace);
      Alcotest.(check (list (pair int (float 0.))))
        "stage_finish" plain.Sim.stage_finish o.Sim.stage_finish)
    [ None; Some F.none; Some (F.default ~fault_rate:0. ()) ]

(* recovery can only cost time: recovered makespan dominates the
   failure-free makespan for every policy, on randomized graphs *)
let recovery_dominates_failure_free () =
  let rng = Parqo.Rng.create 91 in
  for i = 1 to 15 do
    let g = random_graph rng in
    let clean = Sim.run g in
    List.iter
      (fun (name, policy) ->
        let fc = F.default ~seed:i ~fault_rate:0.4 () in
        let o = Sim.run ~faults:fc ~recovery:policy g in
        Alcotest.(check bool)
          (Printf.sprintf "%s: recovered >= clean (graph %d)" name i)
          true
          (o.Sim.makespan +. 1e-9 >= clean.Sim.makespan))
      policies
  done

(* near-certain failure: every first attempt dies, so faults and retries
   are observed and the makespan strictly exceeds the clean run *)
let forced_failures () =
  let fc =
    {
      F.none with
      F.seed = 5;
      task_fail_rate = 0.999;
      max_fail_attempts = 3;
    }
  in
  let clean = Sim.run (chain_graph ()) in
  List.iter
    (fun (name, policy) ->
      let o = Sim.run ~faults:fc ~recovery:policy (chain_graph ()) in
      Alcotest.(check bool) (name ^ ": faults observed") true (o.Sim.n_faults > 0);
      Alcotest.(check bool) (name ^ ": retries observed") true
        (o.Sim.n_retries > 0);
      Alcotest.(check bool) (name ^ ": slower than clean") true
        (o.Sim.makespan > clean.Sim.makespan);
      Alcotest.(check bool) (name ^ ": fault events recorded") true
        (List.length o.Sim.faults = o.Sim.n_faults);
      List.iter
        (fun (f : Sim.fault_event) ->
          Alcotest.(check bool) "attempt from 1" true (f.Sim.f_attempt >= 1))
        o.Sim.faults)
    policies

(* a full outage freezes the affected resource for its duration *)
let outage_delays () =
  let g () = graph ~n_resources:1 [ ([ [| 4. |] ], []) ] in
  let fc =
    { F.none with F.outages = [ { F.resource = 0; at = 1.; duration = 2.; factor = 0. } ] }
  in
  let o = Sim.run ~faults:fc (g ()) in
  (* 1 unit done by t=1, frozen until t=3, remaining 3 units by t=6 *)
  Helpers.check_float "outage window added" 6. o.Sim.makespan;
  Alcotest.(check int) "outage counted" 1 o.Sim.n_faults;
  (* degradation to half capacity doubles the run *)
  let half =
    { F.none with F.outages = [ { F.resource = 0; at = 0.; duration = 100.; factor = 0.5 } ] }
  in
  let o = Sim.run ~faults:half (g ()) in
  Helpers.check_float "half capacity doubles" 8. o.Sim.makespan

(* Restart_from_sync: losing a resource destroys the checkpoints on it,
   so finished producers re-execute; Restart_stage keeps them *)
let checkpoint_loss_cascades () =
  let g () =
    graph ~n_resources:2 [ ([ [| 0.; 10. |] ], [ 1 ]); ([ [| 2.; 0. |] ], []) ]
  in
  let fc =
    { F.none with F.outages = [ { F.resource = 0; at = 3.; duration = 1.; factor = 0. } ] }
  in
  (* producer (stage 1) done at t=2; outage on its resource at t=3.
     Restart_stage: consumer never touches r0, unaffected: 2 + 10 = 12 *)
  let keep = Sim.run ~faults:fc ~recovery:R.Restart_stage (g ()) in
  Helpers.check_float "checkpoint survives" 12. keep.Sim.makespan;
  (* Restart_from_sync: checkpoint on r0 lost, producer re-runs during the
     outage window (no capacity until t=4), consumer restarts after: 16 *)
  let lose = Sim.run ~faults:fc ~recovery:R.Restart_from_sync (g ()) in
  Helpers.check_float "checkpoint lost, re-executed" 16. lose.Sim.makespan;
  Alcotest.(check bool) "re-execution recorded" true
    (lose.Sim.n_retries > keep.Sim.n_retries)

(* invalid configs are rejected with a structured error *)
let invalid_config_rejected () =
  let bad = { F.none with F.task_fail_rate = 1.5 } in
  let raised =
    try
      ignore (Sim.run ~faults:bad (chain_graph ()));
      false
    with Parqo.Parqo_error.Error e ->
      e.Parqo.Parqo_error.subsystem = "simulator"
  in
  Alcotest.(check bool) "Parqo_error from the simulator" true raised

(* simulate_plan under faults: full pipeline from join tree, annotated
   timeline mentions the fault count *)
let plan_level_faults () =
  let catalog, query =
    Parqo.Query_gen.generate (Parqo.Query_gen.default_spec Parqo.Query_gen.Chain 3)
  in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let env = Parqo.Env.create ~machine ~catalog ~query () in
  let tree =
    Parqo.Join_tree.join Parqo.Join_method.Hash_join
      ~outer:
        (Parqo.Join_tree.join Parqo.Join_method.Hash_join
           ~outer:(Parqo.Join_tree.access 0)
           ~inner:(Parqo.Join_tree.access 1))
      ~inner:(Parqo.Join_tree.access 2)
  in
  let clean = Sim.simulate_plan env tree in
  let fc = { (F.default ~seed:2 ~fault_rate:0.9 ()) with F.max_fail_attempts = 2 } in
  let o = Sim.simulate_plan ~faults:fc env tree in
  Alcotest.(check bool) "faults observed" true (o.Sim.n_faults > 0);
  Alcotest.(check bool) "recovered >= clean" true
    (o.Sim.makespan +. 1e-9 >= clean.Sim.makespan);
  let text = Sim.timeline o in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "timeline annotates faults" true (contains text "fault")

(* brownouts, scale-out schedules and the piecewise-capacity boundaries *)
let hetero_fault_config () =
  (* brownout requires a factor strictly inside (0, 1) *)
  let b = F.brownout ~resource:0 ~at:1. ~duration:2. ~factor:0.5 in
  Helpers.check_float "brownout factor kept" 0.5 b.F.factor;
  List.iter
    (fun factor ->
      match F.brownout ~resource:0 ~at:1. ~duration:2. ~factor with
      | (_ : F.outage) -> Alcotest.failf "factor %f accepted" factor
      | exception Invalid_argument _ -> ())
    [ 0.; 1.; -0.5; 1.5 ];
  (* grow validation: onset and speed sanity *)
  let grow g_at g_speed =
    { F.g_at; g_kind = Parqo.Resource.Cpu; g_node = 0; g_speed }
  in
  Alcotest.(check bool) "valid grow accepted" true
    (Result.is_ok (F.validate { F.none with F.grows = [ grow 3. 2. ] }));
  List.iter
    (fun g ->
      Alcotest.(check bool) "invalid grow rejected" true
        (Result.is_error (F.validate { F.none with F.grows = [ g ] })))
    [ grow (-1.) 1.; grow 3. 0.; grow 3. Float.nan; grow Float.nan 1. ];
  (* random_rescales: deterministic per seed, windows inside the horizon,
     factors at the requested level *)
  let schedule seed =
    F.random_rescales (Parqo.Rng.create seed) ~n_resources:3 ~horizon:100.
      ~rate:2. ~mean_duration:10. ~factor:0.3
  in
  let a = schedule 42 and b = schedule 42 in
  Alcotest.(check int) "same seed, same schedule" (List.length a)
    (List.length b);
  List.iter2
    (fun (x : F.outage) (y : F.outage) ->
      Alcotest.(check int) "resource" x.F.resource y.F.resource;
      Helpers.check_float "onset" x.F.at y.F.at;
      Helpers.check_float "duration" x.F.duration y.F.duration)
    a b;
  List.iter
    (fun (o : F.outage) ->
      Alcotest.(check bool) "onset in horizon" true
        (o.F.at >= 0. && o.F.at < 100.);
      Alcotest.(check bool) "resource in range" true
        (o.F.resource >= 0 && o.F.resource < 3);
      Helpers.check_float "brownout factor" 0.3 o.F.factor)
    a;
  (* next_capacity_change walks outage onsets, expiries and grow onsets *)
  let fc =
    {
      F.none with
      F.outages = [ { F.resource = 0; at = 2.; duration = 3.; factor = 0.5 } ];
      grows = [ grow 7. 2. ];
    }
  in
  let next after =
    match F.next_capacity_change fc ~after with
    | Some t -> t
    | None -> Alcotest.fail "expected a boundary"
  in
  Helpers.check_float "onset" 2. (next 0.);
  Helpers.check_float "expiry" 5. (next 2.);
  Helpers.check_float "grow onset" 7. (next 5.);
  Alcotest.(check bool) "nothing after the last boundary" true
    (F.next_capacity_change fc ~after:7. = None);
  (* capacity reads the brownout window *)
  Helpers.check_float "inside the window" 0.5 (F.capacity fc ~time:3. ~resource:0);
  Helpers.check_float "outside the window" 1. (F.capacity fc ~time:6. ~resource:0)

(* The event loop's lookups against their definitions: [capacities] and
   [capacity] give the product of the covering outages' factors, in list
   order, clamped at 0; [next_boundary], from any earlier cursor, and
   [next_capacity_change] give the least onset, expiry or grow onset
   more than 1e-12 later.  Bit for bit, over overlapping windows, full
   losses, an open-ended loss, an outage on a resource past the array,
   grows and instants within 1e-12 of a boundary; and a sweep of the
   lookups allocates nothing. *)
let loop_lookups () =
  let bits = Int64.bits_of_float in
  let fc =
    {
      F.none with
      F.outages =
        [
          { F.resource = 0; at = 2.; duration = 3.; factor = 0.5 };
          { F.resource = 0; at = 4.; duration = 2.; factor = 0.3 };
          { F.resource = 1; at = 1.; duration = infinity; factor = 0. };
          { F.resource = 2; at = 3.; duration = 0.; factor = 0.25 };
          { F.resource = 5; at = 1.; duration = 9.; factor = 0.5 };
        ];
      grows =
        List.map
          (fun g_at -> { F.g_at; g_kind = Parqo.Resource.Cpu; g_node = 0; g_speed = 1. })
          [ 7.; 4. ];
    }
  in
  let defined_capacity time r =
    Float.max 0.
      (List.fold_left
         (fun cap (o : F.outage) ->
           if o.F.resource = r && time >= o.F.at -. 1e-12 && time < o.F.at +. o.F.duration -. 1e-12
           then cap *. o.F.factor
           else cap)
         1. fc.F.outages)
  in
  let defined_next after =
    List.fold_left
      (fun acc t ->
        if t > after +. 1e-12 then Some (match acc with None -> t | Some b -> Float.min b t)
        else acc)
      None
      (List.concat_map (fun (o : F.outage) -> [ o.F.at; o.F.at +. o.F.duration ]) fc.F.outages
      @ List.map (fun (g : F.grow) -> g.F.g_at) fc.F.grows)
  in
  let b = F.boundaries fc in
  let caps = Array.make 3 nan in
  let cursor = ref 0 in
  let instants =
    List.concat_map
      (fun t -> [ t -. 1e-12; t -. 2e-12; t; t +. 1e-13; t +. 0.5 ])
      [ 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 10. ]
  in
  List.iter
    (fun time ->
      F.capacities fc ~time caps;
      Array.iteri
        (fun r c ->
          let ctx = Printf.sprintf "capacity of %d at %h" r time in
          Alcotest.(check int64) ctx (bits (defined_capacity time r)) (bits c);
          Alcotest.(check int64) ctx (bits c) (bits (F.capacity fc ~time ~resource:r)))
        caps;
      let i = F.next_boundary b ~from:!cursor ~after:time in
      cursor := i;
      let ctx = Printf.sprintf "next boundary after %h" time in
      let want = Option.map bits (defined_next time) in
      Alcotest.(check (option int64)) ctx want
        (if i < Array.length b then Some (bits b.(i)) else None);
      Alcotest.(check (option int64)) ctx want
        (Option.map bits (F.next_capacity_change fc ~after:time)))
    (List.sort_uniq Float.compare instants);
  (* the instants are boxed before the count starts, as the loop's
     clock is *)
  let look time =
    F.capacities fc ~time caps;
    cursor := F.next_boundary b ~from:!cursor ~after:time
  in
  let sweep times =
    cursor := 0;
    let before = Gc.minor_words () in
    List.iter look times;
    Gc.minor_words () -. before
  in
  Helpers.check_float "words allocated by 100 lookups, over none"
    (sweep [])
    (sweep (List.init 100 (fun k -> 0.1 *. float_of_int k)))

let suite =
  ( "fault injection",
    [
      t "determinism" determinism;
      t "draw purity" draw_purity;
      t "zero-rate identity" zero_rate_identity;
      t "recovery dominates failure-free" recovery_dominates_failure_free;
      t "forced failures" forced_failures;
      t "outage delays" outage_delays;
      t "checkpoint loss cascades" checkpoint_loss_cascades;
      t "invalid config rejected" invalid_config_rejected;
      t "plan-level faults" plan_level_faults;
      t "heterogeneous fault config" hetero_fault_config;
      t "the event loop's lookups allocate nothing" loop_lookups;
    ] )
