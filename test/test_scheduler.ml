module Sim = Parqo.Simulator
module Sched = Parqo.Scheduler
module TG = Parqo.Task_graph
module Cm = Parqo.Costmodel

let t name f = Alcotest.test_case name `Quick f

(* hand-built graphs exercise policies in isolation *)
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

let unit_job ?(arrival = 0.) ?(priority = 0) ~job_id () =
  Sched.job ~arrival ~priority ~job_id
    (graph ~n_resources:1 [ ([ [| 1. |] ], []) ])

let response o id =
  let j = Array.get o.Sched.jobs id in
  Alcotest.(check int) "job id position" id j.Sched.job_id;
  j.Sched.response

(* two identical unit jobs splitting one resource *)
let fair_share_splits () =
  let o =
    Sched.run ~policy:Sched.Fair_share
      [| unit_job ~job_id:0 (); unit_job ~job_id:1 () |]
  in
  Helpers.check_float "j0 response" 2. (response o 0);
  Helpers.check_float "j1 response" 2. (response o 1);
  Helpers.check_float "makespan" 2. o.Sched.makespan;
  Helpers.check_float "busy conserves" 2. o.Sched.busy.(0)

let srw_serializes () =
  let o =
    Sched.run ~policy:Sched.Shortest_remaining_work
      [| unit_job ~job_id:0 (); unit_job ~job_id:1 () |]
  in
  (* tie on remaining work: lowest id owns the resource *)
  Helpers.check_float "j0 first" 1. (response o 0);
  Helpers.check_float "j1 queued" 2. (response o 1);
  Helpers.check_float "busy conserves" 2. o.Sched.busy.(0)

let srw_prefers_short () =
  let long =
    Sched.job ~job_id:0 (graph ~n_resources:1 [ ([ [| 3. |] ], []) ])
  in
  let short = unit_job ~job_id:1 () in
  let o = Sched.run ~policy:Sched.Shortest_remaining_work [| long; short |] in
  Helpers.check_float "short first" 1. (response o 1);
  Helpers.check_float "long preempted" 4. (response o 0)

let priority_preempts () =
  let o =
    Sched.run ~policy:Sched.Strict_priority
      [| unit_job ~job_id:0 ~priority:0 (); unit_job ~job_id:1 ~priority:7 () |]
  in
  Helpers.check_float "high first" 1. (response o 1);
  Helpers.check_float "low waits" 2. (response o 0)

let idle_gap () =
  let o =
    Sched.run
      [| unit_job ~job_id:0 (); unit_job ~job_id:1 ~arrival:5. () |]
  in
  Helpers.check_float "j0 solo" 1. (response o 0);
  Helpers.check_float "j1 after gap" 1. (response o 1);
  Helpers.check_float "makespan spans gap" 6. o.Sched.makespan;
  Helpers.check_float "busy skips gap" 2. o.Sched.busy.(0);
  Helpers.check_float "utilization" (2. /. 6.) (Sched.utilization o)

let policy_names () =
  List.iter
    (fun p ->
      match Sched.policy_of_string (Sched.policy_to_string p) with
      | Ok p' -> Alcotest.(check bool) "round trip" true (p = p')
      | Error e -> Alcotest.fail e)
    Sched.all_policies;
  match Sched.policy_of_string "nope" with
  | Ok _ -> Alcotest.fail "accepted junk"
  | Error e ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "error lists names" true (contains e "fair")

let rejects_invalid () =
  let raises f =
    match f () with
    | (_ : Sched.outcome) -> false
    | exception Parqo.Parqo_error.Error _ -> true
  in
  Alcotest.(check bool) "empty set" true (raises (fun () -> Sched.run [||]));
  Alcotest.(check bool) "duplicate ids" true
    (raises (fun () ->
         Sched.run [| unit_job ~job_id:3 (); unit_job ~job_id:3 () |]));
  Alcotest.(check bool) "dimension mismatch" true
    (raises (fun () ->
         Sched.run
           [|
             unit_job ~job_id:0 ();
             Sched.job ~job_id:1 (graph ~n_resources:2 [ ([ [| 1.; 1. |] ], []) ]);
           |]));
  Alcotest.(check bool) "negative arrival" true
    (raises (fun () -> Sched.run [| unit_job ~arrival:(-1.) ~job_id:0 () |]))

let pressure_scales () =
  let jobs k = Array.init k (fun i -> unit_job ~job_id:i ()) in
  let p1 = Sched.expected_pressure ~n_resources:1 (jobs 1) in
  let p8 = Sched.expected_pressure ~n_resources:1 (jobs 8) in
  Alcotest.(check bool) "pressure grows with the active set" true
    (p8.(0) > p1.(0) *. 4.);
  let ph = Sched.expected_pressure ~horizon:2. ~n_resources:1 (jobs 8) in
  Helpers.check_float "explicit horizon divides" 4. ph.(0);
  Alcotest.(check bool) "horizon <= 0 rejected" true
    (match Sched.expected_pressure ~horizon:0. ~n_resources:1 (jobs 1) with
    | (_ : float array) -> false
    | exception Invalid_argument _ -> true)

let random_graph rng =
  let n = 2 + Parqo.Rng.int rng 3 in
  let env = Helpers.random_env rng ~n in
  let tree = Helpers.random_tree rng env in
  let eval = Cm.evaluate env tree in
  TG.of_optree env eval.Cm.optree

let bits = Int64.bits_of_float
let bits_list l = List.map (fun (id, t) -> (id, bits t)) l

(* ------------------------------------------------------------------ *)
(* machine events: the machine changing under the workload             *)

let ev at r s = { Sched.ev_at = at; ev_resource = r; ev_speed = s }

let events_reshape_drain () =
  (* half speed from the start doubles the drain; busy records delivered
     work, so it still conserves the offered demand *)
  let o = Sched.run ~events:[ ev 0. 0 0.5 ] [| unit_job ~job_id:0 () |] in
  Helpers.check_float "half speed doubles the makespan" 2. o.Sched.makespan;
  Helpers.check_float "busy = delivered work" 1. o.Sched.busy.(0);
  (* a mid-run brownout: one unit at full speed, one at half *)
  let two = Sched.job ~job_id:0 (graph ~n_resources:1 [ ([ [| 2. |] ], []) ]) in
  let o = Sched.run ~events:[ ev 1. 0 0.5 ] [| two |] in
  Helpers.check_float "brownout splits the drain" 3. o.Sched.makespan;
  Helpers.check_float "busy conserves across the boundary" 2. o.Sched.busy.(0);
  (* a speed-up above nominal halves the drain *)
  let o = Sched.run ~events:[ ev 0. 0 2. ] [| unit_job ~job_id:0 () |] in
  Helpers.check_float "speed-up halves the makespan" 0.5 o.Sched.makespan;
  Helpers.check_float "busy still conserves" 1. o.Sched.busy.(0)

let outage_window_parks_demand () =
  (* speed 0 until t = 2, then restored: the unit job finishes at 3 *)
  let o =
    Sched.run
      ~events:[ ev 0. 0 0.; ev 2. 0 1. ]
      [| unit_job ~job_id:0 () |]
  in
  Helpers.check_float "parked until capacity returns" 3. o.Sched.makespan;
  Helpers.check_float "busy excludes the dead window" 1. o.Sched.busy.(0)

let starved_workload_raises () =
  match Sched.run ~events:[ ev 0. 0 0. ] [| unit_job ~job_id:0 () |] with
  | (_ : Sched.outcome) -> Alcotest.fail "expected a starvation error"
  | exception Parqo.Parqo_error.Error e ->
    Alcotest.(check string) "scheduler subsystem" "scheduler"
      e.Parqo.Parqo_error.subsystem

let invalid_events_rejected () =
  let bad e =
    match Sched.run ~events:[ e ] [| unit_job ~job_id:0 () |] with
    | (_ : Sched.outcome) -> false
    | exception Parqo.Parqo_error.Error _ -> true
  in
  Alcotest.(check bool) "negative instant" true (bad (ev (-1.) 0 1.));
  Alcotest.(check bool) "resource out of range" true (bad (ev 0. 5 1.));
  Alcotest.(check bool) "negative speed" true (bad (ev 0. 0 (-0.5)));
  Alcotest.(check bool) "non-finite speed" true (bad (ev 0. 0 Float.nan))

(* no-op (speed-preserving) events reduce to no events at all: the run
   is Int64-bit-identical even though the instants would otherwise split
   drain segments *)
let nominal_events_bit_identity () =
  let rng = Parqo.Rng.create 20260813 in
  for case = 1 to 5 do
    let g = random_graph rng in
    let nr = g.TG.n_resources in
    let events =
      List.init 6 (fun i -> ev (0.37 *. float_of_int i) (i mod nr) 1.0)
    in
    List.iter
      (fun policy ->
        let ctx what =
          Printf.sprintf "case %d %s: %s" case
            (Sched.policy_to_string policy) what
        in
        let base = Sched.run ~policy [| Sched.job ~job_id:0 g |] in
        let o = Sched.run ~policy ~events [| Sched.job ~job_id:0 g |] in
        Alcotest.(check int64) (ctx "makespan bits")
          (bits base.Sched.makespan) (bits o.Sched.makespan);
        Alcotest.(check int64) (ctx "total work bits")
          (bits base.Sched.total_work) (bits o.Sched.total_work);
        Alcotest.(check (array int64)) (ctx "busy bits")
          (Array.map bits base.Sched.busy)
          (Array.map bits o.Sched.busy))
      Sched.all_policies
  done

(* ------------------------------------------------------------------ *)
(* admission control: deadlines shed jobs the machine cannot serve     *)

let deadline_sheds () =
  let o =
    Sched.run
      [|
        unit_job ~job_id:0 ();
        Sched.job ~job_id:1 ~deadline:0.5
          (graph ~n_resources:1 [ ([ [| 1. |] ], []) ]);
      |]
  in
  let j1 = o.Sched.jobs.(1) in
  (match j1.Sched.disposition with
  | Sched.Rejected reason ->
    Alcotest.(check bool) "reason mentions the deadline" true
      (String.length reason > 0)
  | Sched.Completed -> Alcotest.fail "expected the tight job to be shed");
  Helpers.check_float "rejected response is zero" 0. j1.Sched.response;
  Helpers.check_float "shed job leaves the machine alone" 1. (response o 0);
  Helpers.check_float "makespan from the surviving job" 1. o.Sched.makespan;
  Helpers.check_float "total work excludes shed jobs" 1. o.Sched.total_work;
  Helpers.check_float "busy conservation excludes shed jobs" 1.
    o.Sched.busy.(0);
  let s = Sched.summarize o in
  Alcotest.(check int) "summary counts the shed job" 1 s.Sched.n_rejected;
  Helpers.check_float "quantiles over completed jobs only" 1. s.Sched.p95;
  (* a generous budget admits the same workload *)
  let o2 =
    Sched.run
      [|
        unit_job ~job_id:0 ();
        Sched.job ~job_id:1 ~deadline:10.
          (graph ~n_resources:1 [ ([ [| 1. |] ], []) ]);
      |]
  in
  Alcotest.(check int) "generous budget admits" 0
    (Sched.summarize o2).Sched.n_rejected;
  (* degraded capacity tightens admission: at half speed the same
     deadline that admitted solo now sheds *)
  let solo d events =
    (Sched.run ~events
       [| Sched.job ~job_id:0 ~deadline:d
            (graph ~n_resources:1 [ ([ [| 1. |] ], []) ]) |])
      .Sched.jobs.(0)
      .Sched.disposition
  in
  Alcotest.(check bool) "nominal speed admits" true
    (solo 1.5 [] = Sched.Completed);
  Alcotest.(check bool) "half speed sheds the same budget" true
    (match solo 1.5 [ ev 0. 0 0.5 ] with
    | Sched.Rejected _ -> true
    | Sched.Completed -> false);
  (* invalid deadlines are rejected up front *)
  match
    Sched.run
      [| Sched.job ~job_id:0 ~deadline:0.
           (graph ~n_resources:1 [ ([ [| 1. |] ], []) ]) |]
  with
  | (_ : Sched.outcome) -> Alcotest.fail "deadline 0 accepted"
  | exception Parqo.Parqo_error.Error _ -> ()

let pressure_with_speeds () =
  let jobs = [| unit_job ~job_id:0 () |] in
  let base = Sched.expected_pressure ~horizon:1. ~n_resources:1 jobs in
  let nominal =
    Sched.expected_pressure ~horizon:1. ~speeds:[| 1. |] ~n_resources:1 jobs
  in
  Alcotest.(check int64) "nominal speeds bit-identical" (bits base.(0))
    (bits nominal.(0));
  let half =
    Sched.expected_pressure ~horizon:1. ~speeds:[| 0.5 |] ~n_resources:1 jobs
  in
  Helpers.check_float "half speed doubles the pressure" (2. *. base.(0))
    half.(0);
  let dead =
    Sched.expected_pressure ~horizon:1. ~speeds:[| 0. |] ~n_resources:1 jobs
  in
  Alcotest.(check bool) "offered work on a dead resource reads infinite"
    true
    (dead.(0) = Float.infinity);
  (* a dead resource with nothing offered reads zero, not infinity *)
  let wide =
    [| Sched.job ~job_id:0 (graph ~n_resources:2 [ ([ [| 1.; 0. |] ], []) ]) |]
  in
  let p =
    Sched.expected_pressure ~horizon:1. ~speeds:[| 1.; 0. |] ~n_resources:2
      wide
  in
  Helpers.check_float "idle dead resource reads zero" 0. p.(1);
  (* mis-sized speeds rejected *)
  Alcotest.(check bool) "mis-sized speeds rejected" true
    (match
       Sched.expected_pressure ~speeds:[| 1.; 1. |] ~n_resources:1 jobs
     with
    | (_ : float array) -> false
    | exception Invalid_argument _ -> true);
  (* effective_speeds mirrors the machine's current speeds *)
  let m = Parqo.Machine.shared_nothing ~nodes:2 () in
  let hm = Parqo.Machine.rescale m ~speeds:[ (0, 0.5) ] in
  let sp = Sched.effective_speeds hm in
  Alcotest.(check int) "one entry per resource"
    (Parqo.Machine.n_resources hm)
    (Array.length sp);
  Helpers.check_float "rescaled entry" 0.5 sp.(0);
  Helpers.check_float "nominal entry" 1. sp.(1)

(* ------------------------------------------------------------------ *)
(* the fuzzer: random query mixes x arrival streams x all policies     *)

(* single-job co-scheduling must replay [Simulator.run] bit-for-bit
   under every policy *)
let degenerate_identity () =
  let rng = Parqo.Rng.create 20260811 in
  for case = 1 to 8 do
    let g = random_graph rng in
    let solo = Sim.run g in
    List.iter
      (fun policy ->
        let ctx what =
          Printf.sprintf "case %d %s: %s" case
            (Sched.policy_to_string policy) what
        in
        let o = Sched.run ~policy [| Sched.job ~job_id:0 g |] in
        Alcotest.(check int64) (ctx "makespan bits")
          (bits solo.Sim.makespan) (bits o.Sched.makespan);
        Alcotest.(check int64) (ctx "total work bits")
          (bits solo.Sim.total_work) (bits o.Sched.total_work);
        Alcotest.(check (array int64)) (ctx "busy bits")
          (Array.map bits solo.Sim.busy)
          (Array.map bits o.Sched.busy);
        let j = o.Sched.jobs.(0) in
        Alcotest.(check (list (pair int int64))) (ctx "stage starts")
          (bits_list solo.Sim.stage_start)
          (bits_list j.Sched.stage_start);
        Alcotest.(check (list (pair int int64))) (ctx "stage finishes")
          (bits_list solo.Sim.stage_finish)
          (bits_list j.Sched.stage_finish);
        Alcotest.(check int64) (ctx "response = solo makespan bits")
          (bits solo.Sim.makespan) (bits j.Sched.response))
      Sched.all_policies
  done

let check_workload ~ctx (jobs : Sched.job array) (o : Sched.outcome) =
  let nr = Array.length o.Sched.busy in
  Alcotest.(check int) (ctx "every job accounted for")
    (Array.length jobs) (Array.length o.Sched.jobs);
  Alcotest.(check bool) (ctx "utilization <= 1") true
    (Sched.utilization o <= 1. +. 1e-9);
  Array.iter
    (fun (j : Sched.job_outcome) ->
      Alcotest.(check bool) (ctx "responses finite nonnegative") true
        (Float.is_finite j.Sched.response && j.Sched.response >= -1e-9);
      Alcotest.(check bool) (ctx "finished after arrival") true
        (j.Sched.finished >= j.Sched.arrival -. 1e-9))
    o.Sched.jobs;
  (* busy conservation: every demanded unit of work — and nothing else —
     lands on its resource *)
  let offered = Array.make nr 0. in
  Array.iter
    (fun (j : Sched.job) ->
      Array.iter
        (fun (s : TG.stage) ->
          List.iter
            (fun (task : TG.task) ->
              Array.iteri
                (fun r d -> offered.(r) <- offered.(r) +. d)
                task.TG.demands)
            s.TG.tasks)
        j.Sched.graph.TG.stages)
    jobs;
  for r = 0 to nr - 1 do
    let tol = 1e-6 *. Float.max 1. offered.(r) in
    Alcotest.(check bool)
      (ctx (Printf.sprintf "busy conservation on r%d" r))
      true
      (Float.abs (o.Sched.busy.(r) -. offered.(r)) <= tol)
  done;
  let latest =
    Array.fold_left
      (fun acc (j : Sched.job_outcome) -> Float.max acc j.Sched.finished)
      0. o.Sched.jobs
  in
  Alcotest.(check bool) (ctx "makespan = last completion") true
    (Float.abs (o.Sched.makespan -. latest) <= 1e-9 *. Float.max 1. latest)

let fuzz () =
  let rng = Parqo.Rng.create 20260812 in
  let cases = ref 0 in
  for case = 1 to 10 do
    (* a mix of graphs from independent random queries *)
    let nj = 2 + Parqo.Rng.int rng 3 in
    let graphs = Array.init nj (fun _ -> random_graph rng) in
    let mean_span =
      Array.fold_left (fun acc g -> acc +. (Sim.run g).Sim.makespan) 0. graphs
      /. float_of_int nj
    in
    (* arrival timescale matched to the graphs' own makespans, from
       saturating (everything overlaps) to sparse *)
    let rate = (0.3 +. Parqo.Rng.float rng 4.) /. Float.max 1e-6 mean_span in
    let process =
      match Parqo.Rng.int rng 3 with
      | 0 -> Parqo.Workloads.Uniform rate
      | 1 -> Parqo.Workloads.Poisson rate
      | _ ->
        Parqo.Workloads.Burst
          { size = 1 + Parqo.Rng.int rng nj; period = 1. /. rate }
    in
    let arrivals = Parqo.Workloads.arrivals rng ~process ~n:nj in
    let jobs =
      Array.mapi
        (fun i g ->
          Sched.job ~arrival:arrivals.(i)
            ~priority:(Parqo.Rng.int rng 3) ~job_id:i g)
        graphs
    in
    List.iter
      (fun policy ->
        incr cases;
        let ctx what =
          Printf.sprintf "case %d %s: %s" case
            (Sched.policy_to_string policy) what
        in
        match Sched.run ~policy jobs with
        | o -> check_workload ~ctx jobs o
        | exception e ->
          Alcotest.failf "case %d %s: raised %s" case
            (Sched.policy_to_string policy) (Printexc.to_string e))
      Sched.all_policies
  done;
  Alcotest.(check bool) "at least 30 workloads" true (!cases >= 30)

(* ------------------------------------------------------------------ *)
(* the event loop against the reference loop ([Sched_reference])       *)

let disposition_string = function
  | Sched.Completed -> "completed"
  | Sched.Rejected reason -> "rejected: " ^ reason

(* every outcome field as exact text, floats as their Int64 bits, the
   trace's instants and texts included *)
let render (o : Sched.outcome) =
  let b x = Printf.sprintf "%Lx" (bits x) in
  let times l =
    String.concat " " (List.map (fun (id, t) -> Printf.sprintf "%d@%s" id (b t)) l)
  in
  [
    ("policy", Sched.policy_to_string o.Sched.policy);
    ("makespan", b o.Sched.makespan);
    ("total work", b o.Sched.total_work);
    ("busy", String.concat " " (Array.to_list (Array.map b o.Sched.busy)));
  ]
  @ List.concat_map
      (fun (j : Sched.job_outcome) ->
        let field what v = (Printf.sprintf "job %d %s" j.Sched.job_id what, v) in
        [
          field "label" j.Sched.label;
          field "arrival" (b j.Sched.arrival);
          field "started" (b j.Sched.started);
          field "finished" (b j.Sched.finished);
          field "response" (b j.Sched.response);
          field "work" (b j.Sched.work);
          field "disposition" (disposition_string j.Sched.disposition);
          field "stage starts" (times j.Sched.stage_start);
          field "stage finishes" (times j.Sched.stage_finish);
        ])
      (Array.to_list o.Sched.jobs)
  @ List.mapi
      (fun i (e : Sched.event) ->
        (Printf.sprintf "trace event %d" i, b e.Sched.at ^ " " ^ e.Sched.what))
      o.Sched.trace

(* fails on the first field that differs *)
let check_same ~ctx (want : Sched.outcome) (got : Sched.outcome) =
  let rec go = function
    | [], [] -> ()
    | (field, w) :: ws, (field', g) :: gs when field = field' && w = g -> go (ws, gs)
    | (field, w) :: _, (_, g) :: _ -> Alcotest.failf "%s: want %s, got %s" (ctx field) w g
    | (field, _) :: _, [] -> Alcotest.failf "%s: missing" (ctx field)
    | [], (field, _) :: _ -> Alcotest.failf "%s: not in the reference" (ctx field)
  in
  go (render want, render got)

(* both loops on one input: the same outcome, or the same error; the
   reference's result is returned *)
let check_against_reference ~ctx ~policy ~events jobs =
  let attempt f =
    match f () with
    | o -> Ok o
    | exception Parqo.Parqo_error.Error e -> Error e.Parqo.Parqo_error.message
  in
  match
    ( attempt (fun () -> Sched_reference.run ~policy ~events jobs),
      attempt (fun () -> Sched.run ~policy ~events jobs) )
  with
  | Ok want, Ok got ->
    check_same ~ctx want got;
    Ok want
  | Error want, Error got ->
    Alcotest.(check string) (ctx "error") want got;
    Error want
  | Ok _, Error e -> Alcotest.failf "%s: raised %s" (ctx "run") e
  | Error e, Ok _ -> Alcotest.failf "%s: reference raised %s" (ctx "run") e

(* hand-built stage DAGs with what lowering never produces: stages
   without tasks, demand cells of zero or below the drain threshold,
   vectors shorter than [n_resources], repeated dependencies.  Most
   cells are multiples of 1/4, so drains often empty several tasks and
   stages at once, and jobs tie on remaining work. *)
let random_dag rng ~n_resources =
  let cell () =
    match Parqo.Rng.int rng 6 with
    | 0 -> 0.
    | 1 -> 5e-10
    | 2 -> 0.05 +. Parqo.Rng.float rng 2.
    | _ -> 0.25 *. float_of_int (1 + Parqo.Rng.int rng 4)
  in
  graph ~n_resources
    (List.init
       (1 + Parqo.Rng.int rng 5)
       (fun i ->
         ( List.init (Parqo.Rng.int rng 4) (fun _ ->
               Array.init (1 + Parqo.Rng.int rng n_resources) (fun _ -> cell ())),
           if i = 0 then []
           else List.init (Parqo.Rng.int rng 3) (fun _ -> Parqo.Rng.int rng i) )))

(* windows of changed capacity, each restored to nominal at its end:
   brownouts, outages and speed-ups, plus a no-op nominal event *)
let random_events rng ~n_resources ~span =
  List.concat
    (List.init (Parqo.Rng.int rng 5) (fun _ ->
         let r = Parqo.Rng.int rng n_resources in
         let at = Parqo.Rng.float rng (2. *. span) in
         let speed =
           match Parqo.Rng.int rng 4 with
           | 0 -> 0.
           | 1 -> 1.5 +. Parqo.Rng.float rng 1.5
           | 2 -> 1.
           | _ -> 0.2 +. Parqo.Rng.float rng 0.7
         in
         [ ev at r speed; ev (at +. 0.1 +. Parqo.Rng.float rng span) r 1. ]))

let random_workload rng =
  let nj =
    if Parqo.Rng.int rng 8 = 0 then 10 + Parqo.Rng.int rng 30
    else 1 + Parqo.Rng.int rng 6
  in
  let pool =
    if Parqo.Rng.bool rng then Array.init 3 (fun _ -> random_graph rng)
    else begin
      let n_resources = 1 + Parqo.Rng.int rng 3 in
      Array.init 4 (fun _ -> random_dag rng ~n_resources)
    end
  in
  let graphs = Array.init nj (fun _ -> Parqo.Rng.pick rng pool) in
  let n_resources = graphs.(0).TG.n_resources in
  (* one job's work spread over the machine: the timescale of arrivals,
     deadlines and capacity windows *)
  let span =
    Float.max 1e-3
      (Array.fold_left (fun acc g -> acc +. TG.total_work g) 0. graphs
      /. float_of_int (nj * n_resources))
  in
  let rate = (0.3 +. Parqo.Rng.float rng 4.) /. span in
  let process =
    match Parqo.Rng.int rng 3 with
    | 0 -> Parqo.Workloads.Uniform rate
    | 1 -> Parqo.Workloads.Poisson rate
    | _ -> Parqo.Workloads.Burst { size = 1 + Parqo.Rng.int rng nj; period = 1. /. rate }
  in
  let arrivals = Parqo.Workloads.arrivals rng ~process ~n:nj in
  let jobs =
    Array.mapi
      (fun i g ->
        let label = if Parqo.Rng.bool rng then "" else Printf.sprintf "L%d" i in
        let deadline =
          if Parqo.Rng.int rng 3 = 0 then
            Some (span *. (0.2 +. Parqo.Rng.float rng 3.))
          else None
        in
        Sched.job ~label ~arrival:arrivals.(i) ~priority:(Parqo.Rng.int rng 3)
          ?deadline ~job_id:((3 * i) + 1) g)
      graphs
  in
  let events =
    if Parqo.Rng.int rng 3 = 0 then []
    else
      let windows = random_events rng ~n_resources ~span in
      (* now and then a resource dies for good: starvation, unless no
         job is left demanding it *)
      if Parqo.Rng.int rng 12 = 0 then
        windows @ [ ev (Parqo.Rng.float rng span) (Parqo.Rng.int rng n_resources) 0. ]
      else windows
  in
  (jobs, events)

(* What the event loop's per-task lists of live resources could get
   wrong, read off a completed job's graph: a stage where, on some
   resource, a later task demands less than the first task demanding it
   above the drain threshold [e] (at the stage's start the least demand
   there is not the first task's); and a nonzero demand cell at or below
   [e], which no list holds. *)
let least_not_first ~e (g : TG.t) =
  Array.exists
    (fun (s : TG.stage) ->
      let demands = List.map (fun (t : TG.task) -> t.TG.demands) s.TG.tasks in
      List.init g.TG.n_resources Fun.id
      |> List.exists (fun r ->
             let on =
               List.filter_map
                 (fun d -> if r < Array.length d && d.(r) > e then Some d.(r) else None)
                 demands
             in
             match on with first :: later -> List.exists (fun d -> d < first) later | [] -> false))
    g.TG.stages

let sub_threshold_cell ~e (g : TG.t) =
  Array.exists
    (fun (s : TG.stage) ->
      List.exists
        (fun (t : TG.task) -> Array.exists (fun d -> d > 0. && d <= e) t.TG.demands)
        s.TG.tasks)
    g.TG.stages

let matches_reference () =
  let rng = Parqo.Rng.create 20261018 in
  let with_events = ref 0 and large = ref 0 in
  let shed = ref 0 and starved = ref 0 and labelled = ref 0 in
  let least_later = ref 0 and sub_threshold = ref 0 in
  for case = 1 to 150 do
    let jobs, events = random_workload rng in
    List.iter
      (fun policy ->
        let ctx what =
          Printf.sprintf "case %d (%d jobs, %d events) %s: %s" case
            (Array.length jobs) (List.length events)
            (Sched.policy_to_string policy) what
        in
        if events <> [] then incr with_events;
        if Array.length jobs >= 10 then incr large;
        match check_against_reference ~ctx ~policy ~events jobs with
        | Ok o ->
          Array.iter
            (fun (j : Sched.job_outcome) ->
              if j.Sched.label <> "" then incr labelled;
              match j.Sched.disposition with
              | Sched.Rejected _ -> incr shed
              | Sched.Completed ->
                let g =
                  (List.find (fun (q : Sched.job) -> q.Sched.job_id = j.Sched.job_id)
                     (Array.to_list jobs))
                    .Sched.graph
                in
                if least_not_first ~e:1e-9 g then incr least_later;
                if sub_threshold_cell ~e:1e-9 g then incr sub_threshold)
            o.Sched.jobs
        | Error _ -> incr starved)
      Sched.all_policies
  done;
  (* the draw reaches every branch it is meant to *)
  List.iter
    (fun (what, n, least) ->
      if n < least then Alcotest.failf "only %d %s (want %d)" n what least)
    [
      ("runs with machine events", !with_events, 200);
      ("runs of 10 jobs or more", !large, 30);
      ("shed jobs", !shed, 50);
      ("starved runs", !starved, 3);
      ("labelled jobs", !labelled, 200);
      ("completed jobs whose least demand on a resource is not the first task's", !least_later, 700);
      ("completed jobs with a nonzero cell at or below the threshold", !sub_threshold, 350);
    ]

(* A drain cut short by a boundary can still exhaust a task: what is
   left falls under the drain threshold.  The task is then stamped with
   the boundary instant, as its stage is, whether the boundary is an
   arrival or a machine event. *)
let drain_stamps_at_boundary () =
  let boundary = 1. -. 1e-10 in
  List.iter
    (fun (what, events, jobs) ->
      let o = Sched.run ~events jobs in
      (* job 0's task finishes first; job 1 reuses its label *)
      let at text =
        match List.find_opt (fun e -> e.Sched.what = text) o.Sched.trace with
        | Some e -> e.Sched.at
        | None -> Alcotest.failf "%s: no %S in the trace" what text
      in
      Alcotest.(check int64) (what ^ ": task done at the boundary")
        (bits boundary) (bits (at "task t0_0 done"));
      Alcotest.(check int64) (what ^ ": stage done at the same instant")
        (bits (at "task t0_0 done")) (bits (at "q0 stage 0 done"));
      ignore
        (check_against_reference
           ~ctx:(fun field -> what ^ ": " ^ field)
           ~policy:Sched.Fair_share ~events jobs))
    [
      ("arrival", [], [| unit_job ~job_id:0 (); unit_job ~job_id:1 ~arrival:boundary () |]);
      ("machine event", [ ev boundary 0 0.5 ], [| unit_job ~job_id:0 () |]);
    ]

let suite =
  ( "scheduler",
    [
      t "fair share splits the resource" fair_share_splits;
      t "srw serializes ties by id" srw_serializes;
      t "srw runs the short job first" srw_prefers_short;
      t "strict priority preempts" priority_preempts;
      t "idle gap between arrivals" idle_gap;
      t "policy names round trip" policy_names;
      t "invalid workloads rejected" rejects_invalid;
      t "expected pressure scales with load" pressure_scales;
      t "machine events reshape the drain" events_reshape_drain;
      t "outage window parks demand" outage_window_parks_demand;
      t "starved workload raises" starved_workload_raises;
      t "invalid events rejected" invalid_events_rejected;
      t "nominal events bit-identical" nominal_events_bit_identity;
      t "deadline admission sheds" deadline_sheds;
      t "pressure under speeds" pressure_with_speeds;
      t "single job bit-identical to Simulator.run" degenerate_identity;
      t "fuzz mixes x arrivals x policies" fuzz;
      t "event loop matches the reference loop" matches_reference;
      t "drain stamps tasks at the boundary" drain_stamps_at_boundary;
    ] )
