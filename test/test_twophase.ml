module TP = Parqo.Twophase
module Cm = Parqo.Costmodel
module G = Parqo.Query_gen

let t name f = Alcotest.test_case name `Quick f

let env_of ?(nodes = 4) shape n =
  let catalog, query = G.generate (G.default_spec shape n) in
  Parqo.Env.create ~machine:(Parqo.Machine.shared_nothing ~nodes ()) ~catalog
    ~query ()

let config env =
  { (Parqo.Space.parallel_config env.Parqo.Env.machine) with
    Parqo.Space.clone_degrees = [ 1; 2; 4 ] }

let basics () =
  let env = env_of G.Chain 4 in
  let r = TP.optimize ~config:(config env) env in
  match (r.TP.best, r.TP.sequential) with
  | Some best, Some seq ->
    (* phase 2 only re-annotates: same join order and methods *)
    let strip tree =
      Parqo.Join_tree.fold
        ~access:(fun a -> [ `Rel a.Parqo.Join_tree.rel ])
        ~join:(fun j l r -> l @ r @ [ `M j.Parqo.Join_tree.method_ ])
        tree
    in
    Alcotest.(check bool) "same skeleton" true
      (strip best.Cm.tree = strip seq.Cm.tree);
    (* parallelization cannot make it slower than the sequential plan *)
    Alcotest.(check bool) "no worse than sequential" true
      (best.Cm.response_time <= seq.Cm.response_time +. 1e-6);
    Alcotest.(check bool) "phase 2 searched" true (r.TP.evaluated > 1)
  | _ -> Alcotest.fail "missing plan"

let never_beats_one_phase () =
  (* one-phase searches a superset: over several shapes the two-phase
     answer is never strictly better than the one-phase answer *)
  List.iter
    (fun shape ->
      let env = env_of shape 4 in
      let config = config env in
      let two = TP.optimize ~config env in
      let metric = Parqo.Optimizer.default_metric env in
      let one = Parqo.Podp.optimize ~config ~metric ~max_cover:32 env in
      match (two.TP.best, one.Parqo.Podp.best) with
      | Some t2, Some o1 ->
        Alcotest.(check bool)
          (G.shape_to_string shape ^ ": one-phase at least as good")
          true
          (o1.Cm.response_time <= t2.Cm.response_time +. 1e-6)
      | _ -> Alcotest.fail "missing plan")
    [ G.Chain; G.Star; G.Clique ]

let coordinate_descent_path () =
  (* more joins than the exhaustive cutoff exercises coordinate descent *)
  let env = env_of G.Chain 8 in
  let r = TP.optimize ~config:(config env) env in
  match (r.TP.best, r.TP.sequential) with
  | Some best, Some seq ->
    Alcotest.(check bool) "descent improved the plan" true
      (best.Cm.response_time <= seq.Cm.response_time +. 1e-6)
  | _ -> Alcotest.fail "missing plan"

let singleton () =
  let env = env_of G.Chain 1 in
  Alcotest.(check bool) "single relation handled" true
    ((TP.optimize env).TP.best <> None)

(* a 1 ms deadline on clique-5 must stop the phase-2 enumeration within
   that slot's costing pass — promptly, with the phase-1 plan as the
   guaranteed fallback — not after the full cross product (which takes
   seconds at these clone degrees) *)
let deadline_stops_enumeration () =
  let env = env_of G.Clique 5 in
  let t0 = Unix.gettimeofday () in
  let r =
    TP.optimize ~config:(config env)
      ~budget:(Parqo.Budget.deadline (t0 +. 0.001))
      env
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "gave up" true r.TP.gave_up;
  Alcotest.(check bool) "still returned a plan" true (r.TP.best <> None);
  (* generous margin over 1 ms: one costing pass, not the cross product *)
  Alcotest.(check bool)
    (Printf.sprintf "prompt (%.3fs)" elapsed)
    true (elapsed < 2.)

let unbudgeted_never_gives_up () =
  let env = env_of G.Chain 4 in
  Alcotest.(check bool) "no budget, no give-up" false
    (TP.optimize ~config:(config env) env).TP.gave_up

let check_plan msg (a : Cm.eval option) (b : Cm.eval option) =
  match (a, b) with
  | Some x, Some y -> Helpers.check_eval_identical msg x y
  | None, None -> ()
  | _ -> Alcotest.failf "%s: one run found a plan, the other did not" msg

(* property: depth-first pricing chooses what evaluating every
   assignment from scratch chooses ([Helpers.reference_twophase]): the
   same best and phase-1 plans, field by field with node ids and Int64
   bits, and the same counts — over chain, star, cycle and clique
   queries on two machines and four annotation spaces, plus a chain of
   six joins for coordinate descent *)
let matches_reference () =
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (mname, machine) ->
      List.iter
        (fun (cname, config) ->
          List.iter
            (fun (shape, n) ->
              let catalog, query = G.generate (G.default_spec shape n) in
              let env = Parqo.Env.create ~machine ~catalog ~query () in
              let msg =
                Printf.sprintf "%s, %s, %s-%d" mname cname
                  (G.shape_to_string shape) n
              in
              let r = TP.optimize ~config env in
              let expect = Helpers.reference_twophase ~config env in
              check_plan (msg ^ ": best") r.TP.best expect.TP.best;
              check_plan (msg ^ ": sequential") r.TP.sequential
                expect.TP.sequential;
              Alcotest.(check int) (msg ^ ": evaluated") expect.TP.evaluated
                r.TP.evaluated;
              Alcotest.(check bool) (msg ^ ": gave up") false r.TP.gave_up)
            ((G.Chain, 7)
            :: List.concat_map
                 (fun shape -> List.map (fun n -> (shape, n)) [ 1; 2; 3; 4; 5 ])
                 [ G.Chain; G.Star; G.Cycle; G.Clique ]))
        [
          ( "degrees {1,2,4}",
            { (Parqo.Space.parallel_config machine) with
              Parqo.Space.clone_degrees = [ 1; 2; 4 ] } );
          ("default", Parqo.Space.default_config);
          ("full parallel", Parqo.Space.parallel_config machine);
          (* leaf degrees cannot move: a winner of the cross product
             leaves phase 2 as it was found *)
          ( "materialization only",
            { Parqo.Space.default_config with
              Parqo.Space.materialize_choices = true } );
        ])
    [
      ("shared-nothing x4", Parqo.Machine.shared_nothing ~nodes:4 ());
      ("shared-memory 4c/4d", Parqo.Machine.shared_memory ~cpus:4 ~disks:4 ());
    ];
  Printf.printf "two-phase reference comparison: %.2f s\n"
    (Unix.gettimeofday () -. t0)

let suite =
  ( "twophase",
    [
      t "basics" basics;
      t "never beats one-phase" never_beats_one_phase;
      t "coordinate descent" coordinate_descent_path;
      t "singleton" singleton;
      t "deadline stops enumeration" deadline_stops_enumeration;
      t "unbudgeted never gives up" unbudgeted_never_gives_up;
      t "depth-first pricing = reference" matches_reference;
    ] )
