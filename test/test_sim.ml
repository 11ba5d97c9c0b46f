module Sim = Parqo.Simulator
module TG = Parqo.Task_graph
module J = Parqo.Join_tree
module M = Parqo.Join_method
module G = Parqo.Query_gen

let t name f = Alcotest.test_case name `Quick f

(* hand-built graphs exercise the scheduler in isolation *)
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
                     { TG.task_id = (i * 100) + j; label = Printf.sprintf "t%d_%d" i j; demands })
                   tasks;
               deps;
               op_root = None;
             })
           stages);
    n_resources;
    root_stage = 0;
  }

let single_task () =
  let g = graph ~n_resources:2 [ ([ [| 5.; 3. |] ], []) ] in
  let o = Sim.run g in
  (* a task works its resources concurrently: bottleneck = 5 *)
  Helpers.check_float "makespan = bottleneck" 5. o.Sim.makespan;
  Helpers.check_float "busy r0" 5. o.Sim.busy.(0);
  Helpers.check_float "busy r1" 3. o.Sim.busy.(1);
  Helpers.check_float "total work" 8. o.Sim.total_work

let independent_tasks_disjoint () =
  let g = graph ~n_resources:2 [ ([ [| 6.; 0. |]; [| 0.; 4. |] ], []) ] in
  let o = Sim.run g in
  Helpers.check_float "parallel = max" 6. o.Sim.makespan

let contended_tasks_share () =
  (* two tasks, same resource: processor sharing; both finish at 12 *)
  let g = graph ~n_resources:1 [ ([ [| 6. |]; [| 6. |] ], []) ] in
  let o = Sim.run g in
  Helpers.check_float "shared = sum" 12. o.Sim.makespan;
  Helpers.check_float "busy = sum" 12. o.Sim.busy.(0)

let asymmetric_sharing () =
  (* 2 and 6 units on one resource: the short task finishes at 4 (half
     rate), then the long one runs alone: 4 + 4 = 8 = total work *)
  let g = graph ~n_resources:1 [ ([ [| 2. |]; [| 6. |] ], []) ] in
  let o = Sim.run g in
  Helpers.check_float "work-conserving" 8. o.Sim.makespan

let dependencies_serialize () =
  (* stage 0 (root) depends on stage 1 *)
  let g =
    graph ~n_resources:1 [ ([ [| 3. |] ], [ 1 ]); ([ [| 4. |] ], []) ]
  in
  let o = Sim.run g in
  Helpers.check_float "sequential stages" 7. o.Sim.makespan;
  (* finish order: stage 1 then stage 0 *)
  (match o.Sim.stage_finish with
  | (s1, t1) :: (s0, t0) :: _ ->
    Alcotest.(check int) "dep first" 1 s1;
    Alcotest.(check int) "root last" 0 s0;
    Helpers.check_float "dep at 4" 4. t1;
    Helpers.check_float "root at 7" 7. t0
  | _ -> Alcotest.fail "expected two stage completions")

let diamond_dependencies () =
  (* root <- {a, b} on different resources: a and b run in parallel *)
  let g =
    graph ~n_resources:2
      [ ([ [| 1.; 0. |] ], [ 1; 2 ]); ([ [| 4.; 0. |] ], []); ([ [| 0.; 6. |] ], []) ]
  in
  let o = Sim.run g in
  Helpers.check_float "max(4,6)+1" 7. o.Sim.makespan

let serialized_mode () =
  let g =
    graph ~n_resources:2
      [ ([ [| 6.; 0. |]; [| 0.; 4. |] ], [ 1 ]); ([ [| 2.; 2. |] ], []) ]
  in
  (* the sequential baseline is the total work *)
  let c = Sim.run g in
  Alcotest.(check bool) "concurrent at least as fast" true
    (c.Sim.makespan <= TG.total_work g +. 1e-9)

(* the property of stretching (§5.2.1): scaling every demand by f scales
   the schedule by f and nothing else changes structurally *)
let stretching_property () =
  let demands = [ [| 3.; 1. |]; [| 2.; 5. |] ] in
  let g = graph ~n_resources:2 [ (demands, []) ] in
  let scaled =
    graph ~n_resources:2
      [ (List.map (Array.map (fun d -> d *. 2.5)) demands, []) ]
  in
  let o = Sim.run g and s = Sim.run scaled in
  Helpers.check_float ~eps:1e-6 "makespan scales" (o.Sim.makespan *. 2.5)
    s.Sim.makespan

let work_conservation_random () =
  let rng = Parqo.Rng.create 44 in
  for _ = 1 to 20 do
    let n_stages = 1 + Parqo.Rng.int rng 4 in
    let stages =
      List.init n_stages (fun i ->
          let tasks =
            List.init
              (1 + Parqo.Rng.int rng 3)
              (fun _ -> Array.init 3 (fun _ -> Parqo.Rng.float rng 10.))
          in
          (* stage i > 0 depends on a random earlier... root is 0, deps
             must avoid cycles: let stage i depend on some j > i *)
          let deps =
            if i < n_stages - 1 && Parqo.Rng.bool rng then [ i + 1 ] else []
          in
          (tasks, deps))
    in
    let g = graph ~n_resources:3 stages in
    let o = Sim.run g in
    Helpers.check_float ~eps:1e-6 "busy sums to work" o.Sim.total_work
      (Array.fold_left ( +. ) 0. o.Sim.busy);
    (* makespan lower bounds: busiest resource; upper: total work *)
    let busiest =
      Array.fold_left Float.max 0.
        (Array.mapi (fun _ b -> b) o.Sim.busy)
    in
    Alcotest.(check bool) "makespan >= busiest resource" true
      (o.Sim.makespan +. 1e-9 >= busiest);
    Alcotest.(check bool) "makespan <= total work" true
      (o.Sim.makespan <= o.Sim.total_work +. 1e-9)
  done

let plan_simulation_consistency () =
  (* simulating a plan agrees with its task graph's totals *)
  let catalog, query = G.generate (G.default_spec G.Chain 3) in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let env = Parqo.Env.create ~machine ~catalog ~query () in
  let tree =
    J.join M.Hash_join
      ~outer:(J.join M.Sort_merge ~outer:(J.access 0) ~inner:(J.access 1))
      ~inner:(J.access 2)
  in
  let o = Sim.simulate_plan env tree in
  Alcotest.(check bool) "positive makespan" true (o.Sim.makespan > 0.);
  let util = Sim.utilization o in
  Alcotest.(check bool) "utilization in (0,1]" true (util > 0. && util <= 1.)

let cloning_speeds_simulation () =
  let catalog, query = G.generate (G.default_spec G.Chain 3) in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let env = Parqo.Env.create ~machine ~catalog ~query () in
  let plan clone =
    J.join ~clone M.Hash_join
      ~outer:(J.join ~clone M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1))
      ~inner:(J.access 2)
  in
  let seq = Sim.simulate_plan env (plan 1) in
  let par = Sim.simulate_plan env (plan 4) in
  Alcotest.(check bool) "cloned plan simulates faster" true
    (par.Sim.makespan < seq.Sim.makespan)

let timeline_rendering () =
  let g =
    graph ~n_resources:1 [ ([ [| 3. |] ], [ 1 ]); ([ [| 4. |] ], []) ]
  in
  let o = Sim.run g in
  let text = Sim.timeline ~width:20 o in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "one row per stage" 2 (List.length lines);
  (* the dependency stage's row comes first (it starts first) *)
  Alcotest.(check bool) "dep row first" true
    (String.length (List.hd lines) > 0
    && String.sub (List.hd lines) 0 7 = "stage 1");
  (* starts recorded *)
  Alcotest.(check (list (pair int (float 1e-9)))) "starts"
    [ (0, 4.); (1, 0.) ]
    (List.sort compare o.Sim.stage_start)

(* ------------------------------------------------------------------ *)
(* the simulator against the reference loops ([Sim_reference])        *)

module F = Parqo.Fault
module R = Parqo.Recovery
module Rng = Parqo.Rng

let bits = Int64.bits_of_float

(* every outcome field as exact text, floats as their Int64 bits, the
   trace's instants and texts included *)
let render (o : Sim.outcome) =
  let b x = Printf.sprintf "%Lx" (bits x) in
  let opt f = function None -> "-" | Some x -> f x in
  let times l =
    String.concat " " (List.map (fun (id, t) -> Printf.sprintf "%d@%s" id (b t)) l)
  in
  let trigger = function
    | Sim.Checkpoint_loss { resource } -> Printf.sprintf "loss %d" resource
    | Sim.Work_inflation { ratio } -> "inflation " ^ b ratio
    | Sim.Slowdown { resource; factor } ->
      Printf.sprintf "slowdown %d %s" resource (b factor)
    | Sim.Scale_out { n_new } -> Printf.sprintf "scale-out %d" n_new
  in
  [
    ("makespan", b o.Sim.makespan);
    ("busy", String.concat " " (Array.to_list (Array.map b o.Sim.busy)));
    ("total work", b o.Sim.total_work);
    ("stage starts", times o.Sim.stage_start);
    ("stage finishes", times o.Sim.stage_finish);
    ("n_faults", string_of_int o.Sim.n_faults);
    ("n_retries", string_of_int o.Sim.n_retries);
    ("n_replans", string_of_int o.Sim.n_replans);
  ]
  @ List.mapi
      (fun i (r : Sim.replan_event) ->
        ( Printf.sprintf "replan %d" i,
          String.concat " " [ b r.Sim.rp_at; trigger r.Sim.rp_trigger; r.Sim.rp_plan; r.Sim.rp_info ] ))
      o.Sim.replans
  @ List.mapi
      (fun i (f : Sim.fault_event) ->
        ( Printf.sprintf "fault %d" i,
          String.concat " "
            [
              b f.Sim.f_at;
              F.kind_name f.Sim.f_kind;
              opt string_of_int f.Sim.f_stage;
              opt Fun.id f.Sim.f_task;
              opt string_of_int f.Sim.f_resource;
              string_of_int f.Sim.f_attempt;
            ] ))
      o.Sim.faults
  @ List.mapi
      (fun i (e : Sim.event) ->
        (Printf.sprintf "trace event %d" i, b e.Sim.at ^ " " ^ e.Sim.what))
      o.Sim.trace

(* fails on the first field that differs *)
let check_same ~ctx want got =
  let rec go = function
    | [], [] -> ()
    | (field, w) :: ws, (field', g) :: gs when field = field' && w = g -> go (ws, gs)
    | (field, w) :: _, (_, g) :: _ -> Alcotest.failf "%s: want %s, got %s" (ctx field) w g
    | (field, _) :: _, [] -> Alcotest.failf "%s: missing" (ctx field)
    | [], (field, _) :: _ -> Alcotest.failf "%s: not in the reference" (ctx field)
  in
  go (render want, render got)

let scaled s (g : TG.t) =
  let task (t : TG.task) = { t with TG.demands = Array.map (fun d -> d *. s) t.TG.demands } in
  {
    g with
    TG.stages =
      Array.map (fun (st : TG.stage) -> { st with TG.tasks = List.map task st.TG.tasks }) g.TG.stages;
  }

(* hand-built stage DAGs with what lowering never produces: stages
   without tasks, demand cells of zero or below the drain threshold
   (also below a large graph's), vectors shorter than [n_resources],
   repeated dependencies.  Most cells are multiples of [q / 4], so
   exhaustions tie with each other and with boundaries on that grid. *)
let random_dag rng ~n_resources ~q =
  let cell () =
    match Rng.int rng 7 with
    | 0 -> 0.
    | 1 -> 5e-10
    | 2 -> 1e-13 *. q
    | 3 -> q *. (0.05 +. Rng.float rng 2.)
    | _ -> 0.25 *. q *. float_of_int (1 + Rng.int rng 4)
  in
  graph ~n_resources
    (List.init
       (1 + Rng.int rng 5)
       (fun i ->
         ( List.init (Rng.int rng 4) (fun _ ->
               Array.init (1 + Rng.int rng n_resources) (fun _ -> cell ())),
           if i = 0 then [] else List.init (Rng.int rng 3) (fun _ -> Rng.int rng i) )))

let random_lowered rng =
  let env = Helpers.random_env rng ~n:(2 + Rng.int rng 3) in
  let eval = Parqo.Costmodel.evaluate env (Helpers.random_tree rng env) in
  TG.of_optree env eval.Parqo.Costmodel.optree

(* Outages and grows on a grid of [q / 2]: full losses (now and then
   for good), brownouts, windows of factor 1 that change nothing, and
   windows overlapping on one resource. *)
let random_faults rng ~n_resources ~q ~span =
  let instant () = 0.5 *. q *. float_of_int (Rng.int rng (2 + int_of_float (2. *. span /. q))) in
  let grows =
    List.init
      (if Rng.int rng 3 = 0 then 1 + Rng.int rng 2 else 0)
      (fun _ ->
        { F.g_at = instant (); g_kind = Parqo.Resource.Cpu; g_node = 0; g_speed = 1. })
  in
  let dims = n_resources + List.length grows in
  let outage () =
    let factor =
      match Rng.int rng 5 with
      | 0 | 1 -> 0.
      | 2 -> 1.
      | _ -> 0.25 *. float_of_int (1 + Rng.int rng 3)
    in
    let duration =
      if factor = 0. && Rng.int rng 8 = 0 then infinity
      else 0.5 *. q *. float_of_int (Rng.int rng 6)
    in
    { F.resource = Rng.int rng dims; at = instant (); duration; factor }
  in
  let outages =
    List.concat
      (List.init (Rng.int rng 4) (fun _ ->
           let o = outage () in
           if Rng.int rng 4 = 0 then
             [ o; { (outage ()) with F.resource = o.F.resource; at = o.F.at +. (0.5 *. q) } ]
           else [ o ]))
  in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  {
    F.seed = Rng.int rng 1_000_000;
    task_fail_rate = pick [ 0.; 0.2; 0.5; 0.9 ];
    max_fail_attempts = 1 + Rng.int rng 4;
    straggler_rate = pick [ 0.; 0.; 0.3 ];
    straggler_factor = pick [ 1.; 2.; 4. ];
    outages;
    grows;
  }

type replanner_kind = No_replanner | Declines | Splices | Wrong_dimension

(* A synthetic re-planner, fresh for each run so that both loops see the
   same answers: it splices a random DAG over the machine's current
   dimension (declining now and then), or one dimension too many. *)
let synthetic kind ~seed ~q (fc : F.config) ~n_resources =
  match kind with
  | No_replanner -> None
  | Declines -> Some (fun (_ : Sim.snapshot) -> None)
  | Splices | Wrong_dimension ->
    let calls = ref 0 in
    Some
      (fun (s : Sim.snapshot) ->
        incr calls;
        let rng = Rng.create ((seed * 7919) + !calls) in
        let live =
          n_resources
          + List.length
              (List.filter (fun (g : F.grow) -> g.F.g_at <= s.Sim.s_at +. 1e-12) fc.F.grows)
        in
        let n_resources = if kind = Wrong_dimension then live + 1 else live in
        if Rng.int rng 4 = 0 then None
        else
          Some
            {
              Sim.new_graph = random_dag rng ~n_resources ~q;
              plan_key = Printf.sprintf "p%d" !calls;
              info = "synthetic";
            })

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* What the event loop's per-attempt lists of live resources could get
   wrong, read off a run that never re-plans, with [e] its graph's drain
   threshold.  Each counter names a state the run is sure to pass
   through. *)
let list_hazards ~e ~recovery (fc : F.config) (g : TG.t) (o : Sim.outcome) =
  let started id = List.mem_assoc id o.Sim.stage_start in
  let tasks id = Array.of_list g.TG.stages.(id).TG.tasks in
  let demands id ti attempt =
    let t = (tasks id).(ti) in
    let d = F.draw fc ~stage:id ~task:t.TG.task_id ~attempt in
    Array.map (fun x -> x *. d.F.slowdown) t.TG.demands
  in
  let index id label =
    let ts = tasks id in
    let rec go i = if ts.(i).TG.label = label then i else go (i + 1) in
    go 0
  in
  let hazards = ref [] in
  let note what = if not (List.mem what !hazards) then hazards := what :: !hazards in
  Array.iteri
    (fun id (s : TG.stage) ->
      if started id then begin
        let first = Array.mapi (fun ti _ -> demands id ti 1) (tasks id) in
        (* at the stage's first start: on some resource, a later task's
           first attempt demands less than the first task demanding it *)
        for r = 0 to g.TG.n_resources - 1 do
          let on =
            List.filter_map
              (fun d -> if r < Array.length d && d.(r) > e then Some d.(r) else None)
              (Array.to_list first)
          in
          match on with
          | d0 :: later when List.exists (fun d -> d < d0) later ->
            note "least demand not the first task's"
          | _ -> ()
        done;
        if
          List.exists
            (fun (t : TG.task) -> Array.exists (fun d -> d > 0. && d <= e) t.TG.demands)
            s.TG.tasks
        then note "nonzero cells at or below the threshold"
      end)
    g.TG.stages;
  List.iter
    (fun (f : Sim.fault_event) ->
      match (f.Sim.f_kind, f.Sim.f_stage, f.Sim.f_task) with
      | F.Straggler, Some id, Some label ->
        (* the attempt's slowdown lifts a cell over the threshold *)
        let t = (tasks id).(index id label) in
        if
          Array.exists
            (fun d -> d > 0. && d <= e && d *. fc.F.straggler_factor > e)
            t.TG.demands
        then note "stragglers lifting a cell over the threshold"
      | F.Task_failure, Some id, Some label
        when (match recovery with R.Retry_task _ -> true | _ -> false)
             && R.backoff_delay recovery ~attempt:f.Sim.f_attempt > 1e-12 ->
        (* task A fails and its next attempt waits out a backoff; a task
           B of the stage that has not failed by then has drained at most
           [f_at - start] from its first attempt on any resource, as
           capacity never exceeds 1, so on r it is still live above the
           demand of A's parked attempt *)
        let a = index id label in
        let parked = demands id a (f.Sim.f_attempt + 1) in
        let elapsed = f.Sim.f_at -. List.assoc id o.Sim.stage_start in
        let failed b =
          List.exists
            (fun (x : Sim.fault_event) ->
              x.Sim.f_kind = F.Task_failure && x.Sim.f_stage = Some id
              && x.Sim.f_task = Some (tasks id).(b).TG.label
              && x.Sim.f_at <= f.Sim.f_at)
            o.Sim.faults
        in
        for b = 0 to Array.length (tasks id) - 1 do
          let live = demands id b 1 in
          if
            b <> a && (not (failed b))
            && List.exists
                 (fun r -> parked.(r) > e && r < Array.length live && live.(r) -. elapsed > parked.(r))
                 (List.init (Array.length parked) Fun.id)
          then note "parked attempts demanding less than a live task"
        done
      | _ -> ())
    o.Sim.faults;
  !hazards

let matches_reference () =
  let rng = Rng.create 20261019 in
  let count = Hashtbl.create 16 in
  let seen what = Hashtbl.replace count what (1 + Option.value ~default:0 (Hashtbl.find_opt count what)) in
  for case = 1 to 300 do
    let q = match Rng.int rng 5 with 0 -> 400. | 1 -> 2e10 | _ -> 1. in
    let g0 =
      if Rng.bool rng then scaled q (random_lowered rng)
      else random_dag rng ~n_resources:(1 + Rng.int rng 3) ~q
    in
    let n_resources = g0.TG.n_resources in
    let total = TG.total_work g0 in
    if total > 1000. then seen "totals above 1000";
    if total > 1e10 then seen "totals near 1e11";
    let span = Float.max q (total /. float_of_int n_resources) in
    let fc = random_faults rng ~n_resources ~q ~span in
    let kind =
      match Rng.int rng 6 with
      | 0 -> No_replanner
      | 1 -> Declines
      | 2 -> Wrong_dimension
      | _ -> Splices
    in
    let seed = Rng.int rng 1_000_000 in
    let policies =
      [
        ("retry", R.retry_task ~backoff:(0.25 *. q *. float_of_int (Rng.int rng 3)) ~backoff_cap:(2. *. q) ());
        ("stage", R.Restart_stage);
        ("sync", R.Restart_from_sync);
        ("replan", R.replan ~threshold:(List.nth [ 0.1; 0.5; infinity ] (Rng.int rng 3)) ());
      ]
    in
    List.iter
      (fun (name, recovery) ->
        let ctx field = Printf.sprintf "case %d (%s): %s" case name field in
        let attempt run =
          match run (synthetic kind ~seed ~q fc ~n_resources) with
          | o -> Ok o
          | exception Parqo.Parqo_error.Error e ->
            Error (e.Parqo.Parqo_error.subsystem ^ ": " ^ e.Parqo.Parqo_error.message)
        in
        match
          ( attempt (fun replanner -> Sim_reference.run ~faults:fc ~recovery ?replanner g0),
            attempt (fun replanner -> Sim.run ~faults:fc ~recovery ?replanner g0) )
        with
        | Ok want, Ok got ->
          check_same ~ctx want got;
          if want.Sim.n_replans = 0 then
            List.iter seen
              (list_hazards ~e:(Float.max 1e-9 (1e-12 *. TG.total_work g0)) ~recovery fc g0 want)
          else begin
            (* the loop drains the spliced graph's tasks *)
            let last = List.fold_left (fun _ (r : Sim.replan_event) -> r.Sim.rp_at) 0. want.Sim.replans in
            if
              List.exists
                (fun (e : Sim.event) -> e.Sim.at > last && contains e.Sim.what "task " && contains e.Sim.what " done")
                want.Sim.trace
            then seen "tasks drained after a splice"
          end;
          if want.Sim.n_retries > 0 then seen ("retries under " ^ name);
          if List.exists (fun (e : Sim.event) -> contains e.Sim.what "checkpoint lost") want.Sim.trace
          then seen "checkpoint losses";
          List.iter
            (fun (r : Sim.replan_event) ->
              seen
                (match r.Sim.rp_trigger with
                | Sim.Checkpoint_loss _ -> "splices on checkpoint loss"
                | Sim.Work_inflation _ -> "splices on work inflation"
                | Sim.Slowdown _ -> "splices on slowdown"
                | Sim.Scale_out _ -> "splices on scale-out"))
            want.Sim.replans
        | Error want, Error got ->
          Alcotest.(check string) (ctx "error") want got;
          seen
            (if contains want "starved" then "starved runs"
             else if contains want "dimension mismatch" then "dimension mismatches"
             else "other errors")
        | Ok _, Error e -> Alcotest.failf "%s: raised %s" (ctx "run") e
        | Error e, Ok _ -> Alcotest.failf "%s: reference raised %s" (ctx "run") e)
      policies
  done;
  (* the draw reaches every branch it is meant to *)
  List.iter
    (fun (what, least) ->
      let n = Option.value ~default:0 (Hashtbl.find_opt count what) in
      if n < least then Alcotest.failf "only %d %s (want %d)" n what least)
    [
      ("totals above 1000", 50);
      ("totals near 1e11", 30);
      ("retries under retry", 50);
      ("retries under stage", 50);
      ("retries under sync", 50);
      ("retries under replan", 50);
      ("checkpoint losses", 20);
      ("splices on checkpoint loss", 3);
      ("splices on work inflation", 30);
      ("splices on slowdown", 20);
      ("splices on scale-out", 10);
      ("starved runs", 10);
      ("dimension mismatches", 10);
      ("least demand not the first task's", 350);
      ("nonzero cells at or below the threshold", 190);
      ("stragglers lifting a cell over the threshold", 8);
      ("parked attempts demanding less than a live task", 35);
      ("tasks drained after a splice", 35);
    ]

let suite =
  ( "simulator",
    [
      t "timeline rendering" timeline_rendering;
      t "single task" single_task;
      t "independent disjoint" independent_tasks_disjoint;
      t "contended share" contended_tasks_share;
      t "asymmetric sharing" asymmetric_sharing;
      t "dependencies serialize" dependencies_serialize;
      t "diamond dependencies" diamond_dependencies;
      t "serialized mode" serialized_mode;
      t "stretching property" stretching_property;
      t "work conservation (random)" work_conservation_random;
      t "plan simulation" plan_simulation_consistency;
      t "cloning speeds simulation" cloning_speeds_simulation;
      t "simulator matches the reference loop" matches_reference;
    ] )
