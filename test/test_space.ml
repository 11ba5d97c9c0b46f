module S = Parqo.Space
module J = Parqo.Join_tree
module M = Parqo.Join_method
module B = Parqo.Bitset
module G = Parqo.Query_gen

let t name f = Alcotest.test_case name `Quick f

let env () = Helpers.chain_env ()

let access_plan_counts () =
  let env = env () in
  (* chain t0 has 1 join edge -> 1 index (+1 seq scan) with default config *)
  let plans = S.access_plans env S.default_config 0 in
  Alcotest.(check int) "seq + index" 2 (List.length plans);
  let no_idx = S.access_plans env { S.default_config with S.use_indexes = false } 0 in
  Alcotest.(check int) "seq only" 1 (List.length no_idx);
  let degrees =
    S.access_plans env { S.default_config with S.clone_degrees = [ 1; 2; 4 ] } 0
  in
  Alcotest.(check int) "3 degrees x 2 paths" 6 (List.length degrees);
  Alcotest.(check int) "minimal config" 1
    (List.length (S.access_plans env S.minimal_config 0))

let connects () =
  let env = env () in
  Alcotest.(check bool) "chain neighbors" true
    (S.connects env (B.singleton 0) (B.singleton 1));
  Alcotest.(check bool) "chain non-neighbors" false
    (S.connects env (B.singleton 0) (B.singleton 2));
  Alcotest.(check bool) "via set" true
    (S.connects env (B.of_list [ 0; 1 ]) (B.singleton 2))

let join_candidate_methods () =
  let env = env () in
  let outer = J.access 0 in
  (* connected pair: all three methods appear *)
  let cands = S.join_candidates env S.default_config ~outer ~rel:1 in
  let methods =
    List.sort_uniq compare
      (List.filter_map
         (function J.Join j -> Some j.J.method_ | J.Access _ -> None)
         cands)
  in
  Alcotest.(check int) "three methods" 3 (List.length methods);
  (* cartesian pair: nested loops only *)
  let cart = S.join_candidates env S.default_config ~outer ~rel:2 in
  List.iter
    (fun c ->
      match c with
      | J.Join j ->
        Alcotest.(check bool) "NL only for cartesian" true
          (j.J.method_ = M.Nested_loops)
      | J.Access _ -> Alcotest.fail "expected join")
    cart

let materialize_choices () =
  let env = env () in
  let outer = J.access 0 in
  let without = S.join_candidates env S.default_config ~outer ~rel:1 in
  let with_mat =
    S.join_candidates env
      { S.default_config with S.materialize_choices = true }
      ~outer ~rel:1
  in
  Alcotest.(check int) "materialize doubles candidates"
    (2 * List.length without)
    (List.length with_mat)

let parallel_config () =
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let cfg = S.parallel_config machine in
  Alcotest.(check (list int)) "degrees powers of two" [ 1; 2; 4 ] cfg.S.clone_degrees;
  Alcotest.(check bool) "materialize on" true cfg.S.materialize_choices;
  let seq = S.parallel_config (Parqo.Machine.sequential ()) in
  Alcotest.(check (list int)) "sequential machine degree 1" [ 1 ] seq.S.clone_degrees

let all_candidates_well_formed () =
  let env = env () in
  let outer = J.access 0 in
  let cands =
    S.join_candidates env (S.parallel_config env.Parqo.Env.machine) ~outer ~rel:1
  in
  Alcotest.(check bool) "non-empty" true (cands <> []);
  List.iter
    (fun c ->
      match J.well_formed ~n_relations:4 c with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    cands

let connected env s = Parqo.Query.connected (Parqo.Env.query env) s

(* on the connected join graphs of random queries, [joinable] is
   [Query.connected], on every subset *)
let joinable_is_connected () =
  let rng = Parqo.Rng.create 41 in
  for n = 1 to 6 do
    let env = Helpers.random_env rng ~n in
    let joinable = S.joinable env in
    Alcotest.(check bool) "a connected query" true (connected env (B.full n));
    for mask = 0 to (1 lsl n) - 1 do
      let s = B.of_int_unsafe mask in
      Alcotest.(check bool) "joinable" (connected env s) (joinable s)
    done
  done;
  let env = env () in
  Alcotest.(check bool) "chain prefix" true
    (S.joinable env (B.of_list [ 0; 1; 2 ]));
  Alcotest.(check bool) "chain gap" false (S.joinable env (B.of_list [ 0; 2 ]))

(* Connected pairs only, over chains, stars, cycles and random join
   graphs of 3 to 6 relations, both tree shapes, at widths 1 and 3: a
   level visits exactly the connected subsets; every plan returned, and
   every sub-plan of one, joins two connected sides; and where brute
   force is tractable (left-deep n <= 5, bushy n <= 4) the work optimum
   is brute force's under the same rule *)
module Podp = Parqo.Podp
module Cm = Parqo.Costmodel
module Mt = Parqo.Metric
module Stats = Parqo.Search_stats

let rec connected_sides env tree =
  match tree with
  | J.Access _ -> true
  | J.Join j ->
    connected env (J.relations j.J.outer)
    && connected env (J.relations j.J.inner)
    && connected_sides env j.J.outer
    && connected_sides env j.J.inner

let connected_subsets env ~size =
  List.length
    (List.filter (connected env)
       (B.subsets_of_size (Parqo.Env.n_relations env) ~size))

let connected_pairs_only () =
  let rng = Parqo.Rng.create 42 in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let envs =
    List.concat_map
      (fun n ->
        List.map
          (fun shape ->
            let catalog, query =
              match shape with
              | Some shape -> G.generate (G.default_spec shape n)
              | None -> G.random rng ~n ()
            in
            Parqo.Env.create ~machine ~catalog ~query ())
          [ Some G.Chain; Some G.Star; Some G.Cycle; None ])
      [ 3; 4; 5; 6 ]
  in
  let work (e : Cm.eval) = e.Cm.work in
  let check_result msg env (r : Podp.result) =
    List.iter
      (fun (e : Cm.eval) ->
        Alcotest.(check bool) (msg ^ ": connected sides") true
          (connected_sides env e.Cm.tree))
      (Option.to_list r.Podp.best @ r.Podp.cover);
    List.iter
      (fun (l : Stats.level) ->
        Alcotest.(check int)
          (Printf.sprintf "%s: level %d subsets" msg l.Stats.level)
          (connected_subsets env ~size:l.Stats.level)
          l.Stats.subsets)
      (Stats.levels r.Podp.stats)
  in
  let run ?pool width =
    List.iter
      (fun env ->
        let n = Parqo.Env.n_relations env in
        Alcotest.(check bool) "a connected query" true
          (connected env (B.full n));
        List.iter
          (fun shape ->
            let msg =
              Printf.sprintf "%s n=%d width %d"
                (match shape with
                | S.Left_deep -> "left-deep"
                | S.Bushy -> "bushy")
                n width
            in
            let metric = Parqo.Optimizer.default_metric env in
            check_result (msg ^ ", descriptor") env
              (Podp.optimize ~shape ~metric ~max_cover:8 ?pool env);
            let config = S.sequential_config in
            let po =
              Podp.optimize ~shape ~config ~metric:Mt.work ~rank:work ?pool env
            in
            check_result (msg ^ ", work") env po;
            let brute =
              match shape with
              | S.Left_deep when n <= 5 ->
                Some (Parqo.Brute.leftdeep ~config ~objective:work env)
              | S.Bushy when n <= 4 ->
                Some (Parqo.Brute.bushy ~config ~objective:work env)
              | _ -> None
            in
            match (brute, po.Podp.best) with
            | None, _ -> ()
            | Some b, Some p -> (
              match b.Parqo.Brute.best with
              | Some b ->
                Alcotest.(check bool) (msg ^ ": brute plan connected") true
                  (connected_sides env b.Cm.tree);
                Helpers.check_float (msg ^ ": brute work") b.Cm.work p.Cm.work
              | None -> Alcotest.fail (msg ^ ": brute found no plan"))
            | Some _, None -> Alcotest.fail (msg ^ ": no plan"))
          [ S.Left_deep; S.Bushy ])
      envs
  in
  run 1;
  Helpers.with_forced_pool 3 (fun pool -> run ~pool 3)

(* a query of two unconnected components keeps today's space — every
   subset, and a cartesian join bridging the components — at both widths
   and for both tree shapes *)
let two_components_fall_back () =
  let catalog, _ = G.generate (G.default_spec G.Chain 4) in
  let pred a b column =
    {
      Parqo.Query.left = { Parqo.Query.rel = a; column };
      right = { Parqo.Query.rel = b; column };
    }
  in
  let query =
    Parqo.Query.create
      ~relations:[ ("t0", "t0"); ("t1", "t1"); ("t2", "t2"); ("t3", "t3") ]
      ~joins:[ pred 0 1 "j0_1"; pred 2 3 "j2_3" ]
      ()
  in
  let machine = Parqo.Machine.shared_nothing ~nodes:2 () in
  let env = Parqo.Env.create ~machine ~catalog ~query () in
  Alcotest.(check bool) "disconnected" false (connected env (B.full 4));
  Alcotest.(check bool) "every subset joinable" true
    (List.for_all (S.joinable env) (List.init 16 B.of_int_unsafe));
  let check ?pool shape =
    let metric = Parqo.Optimizer.default_metric env in
    let r = Podp.optimize ~shape ~metric ?pool env in
    (match r.Podp.best with
    | Some e ->
      Alcotest.(check bool) "all four joined" true
        (B.equal (J.relations e.Cm.tree) (B.full 4));
      Alcotest.(check bool) "a cartesian side" false
        (connected_sides env e.Cm.tree)
    | None -> Alcotest.fail "no plan for a disconnected query");
    Alcotest.(check (list int)) "every subset" [ 4; 6; 4; 1 ]
      (List.map
         (fun (l : Stats.level) -> l.Stats.subsets)
         (Stats.levels r.Podp.stats))
  in
  List.iter
    (fun shape ->
      check shape;
      Helpers.with_forced_pool 3 (fun pool -> check ~pool shape))
    [ S.Left_deep; S.Bushy ]

let suite =
  ( "space",
    [
      t "access plan counts" access_plan_counts;
      t "connects" connects;
      t "joinable is connected" joinable_is_connected;
      t "connected pairs only" connected_pairs_only;
      t "two components fall back" two_components_fall_back;
      t "join candidate methods" join_candidate_methods;
      t "materialize choices" materialize_choices;
      t "parallel config" parallel_config;
      t "candidates well-formed" all_candidates_well_formed;
    ] )
