(* Figure 1: System R DP over left-deep trees — the level loop under the
   total order of work ([Optimizer.minimize_work]), and, with response
   time as the objective, under [Metric.response_time]. *)

module Podp = Parqo.Podp
module Opt = Parqo.Optimizer
module Mt = Parqo.Metric
module Brute = Parqo.Brute
module Cm = Parqo.Costmodel
module S = Parqo.Space
module G = Parqo.Query_gen
module Stats = Parqo.Search_stats

let t name f = Alcotest.test_case name `Quick f

let work (e : Cm.eval) = e.Cm.work
let response_time (e : Cm.eval) = e.Cm.response_time

(* Figure 1 with response time as its objective: the naive RT DP *)
let naive_rt_dp ?config env =
  Podp.optimize ?config ~metric:Mt.response_time ~rank:response_time env

let env_of shape n =
  let catalog, query = G.generate (G.default_spec shape n) in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  Parqo.Env.create ~machine ~catalog ~query ()

let finds_a_plan () =
  List.iter
    (fun shape ->
      let env = env_of shape 4 in
      let r = Opt.minimize_work env in
      match r.Opt.best with
      | Some e ->
        Alcotest.(check bool) "left-deep result" true
          (Parqo.Join_tree.is_left_deep e.Cm.tree);
        Alcotest.(check bool) "covers all relations" true
          (Parqo.Bitset.equal
             (Parqo.Join_tree.relations e.Cm.tree)
             (Parqo.Bitset.full 4))
      | None -> Alcotest.fail "no plan")
    [ G.Chain; G.Star; G.Cycle; G.Clique ]

(* the central correctness check: in a space without interesting orders
   (no sort-merge), physical transparency holds (Theorem 1) and DP's work
   optimum equals brute force's over the identical candidate space *)
let matches_brute_force () =
  let rng = Parqo.Rng.create 21 in
  let config =
    {
      S.default_config with
      S.methods = [ Parqo.Join_method.Nested_loops; Parqo.Join_method.Hash_join ];
    }
  in
  for _ = 1 to 8 do
    let env = Helpers.random_env rng ~n:3 in
    let dp = Opt.minimize_work ~config env in
    let brute = Brute.leftdeep ~config ~objective:work env in
    match (dp.Opt.best, brute.Brute.best) with
    | Some a, Some b ->
      Helpers.check_float ~eps:1e-6 "same optimal work" b.Cm.work a.Cm.work
    | _ -> Alcotest.fail "missing plan"
  done

(* with sort-merge in the space, interesting orders break the principle
   of optimality for work (§6.1.2): DP can only be >= brute force, and
   the gap is real on some instances *)
let interesting_orders_gap () =
  let rng = Parqo.Rng.create 22 in
  let config = S.default_config in
  for _ = 1 to 8 do
    let env = Helpers.random_env rng ~n:3 in
    let dp = Opt.minimize_work ~config env in
    let brute = Brute.leftdeep ~config ~objective:work env in
    match (dp.Opt.best, brute.Brute.best) with
    | Some a, Some b ->
      Alcotest.(check bool) "dp never beats brute" true
        (b.Cm.work <= a.Cm.work +. 1e-6)
    | _ -> Alcotest.fail "missing plan"
  done

(* Table 1: on a clique query every (S, j) pair is connected, so plans
   considered = n 2^(n-1) and peak storage per level = C(n, ceil(n/2)). *)
let table1_counters () =
  List.iter
    (fun n ->
      let env = env_of G.Clique n in
      let r = Opt.minimize_work ~config:S.minimal_config env in
      Alcotest.(check int)
        (Printf.sprintf "considered n=%d" n)
        (int_of_float (Parqo.Combin.dp_leftdeep_time n))
        r.Opt.stats.Stats.considered;
      Alcotest.(check int)
        (Printf.sprintf "stored peak n=%d" n)
        (int_of_float (Parqo.Combin.dp_leftdeep_space n))
        r.Opt.stats.Stats.stored_peak)
    [ 2; 3; 4; 5; 6; 7 ]

(* non-clique shapes skip disconnected extensions: strictly fewer plans *)
let connectivity_prunes () =
  let clique = Opt.minimize_work ~config:S.minimal_config (env_of G.Clique 5) in
  let chain = Opt.minimize_work ~config:S.minimal_config (env_of G.Chain 5) in
  Alcotest.(check bool) "chain considers fewer" true
    (chain.Opt.stats.Stats.considered < clique.Opt.stats.Stats.considered)

let disconnected_queries_work () =
  (* two disjoint joined pairs: requires a cartesian bridge *)
  let catalog, _ = G.generate (G.default_spec G.Chain 4) in
  let query =
    Parqo.Query.create
      ~relations:[ ("t0", "t0"); ("t1", "t1"); ("t2", "t2"); ("t3", "t3") ]
      ~joins:
        [
          {
            Parqo.Query.left = { Parqo.Query.rel = 0; column = "j0_1" };
            right = { Parqo.Query.rel = 1; column = "j0_1" };
          };
          {
            Parqo.Query.left = { Parqo.Query.rel = 2; column = "j2_3" };
            right = { Parqo.Query.rel = 3; column = "j2_3" };
          };
        ]
      ()
  in
  let machine = Parqo.Machine.shared_nothing ~nodes:2 () in
  let env = Parqo.Env.create ~machine ~catalog ~query () in
  match (Opt.minimize_work env).Opt.best with
  | Some e ->
    Alcotest.(check bool) "all four joined" true
      (Parqo.Bitset.cardinal (Parqo.Join_tree.relations e.Cm.tree) = 4)
  | None -> Alcotest.fail "no plan for disconnected query"

(* running Figure 1 with RT as objective is unsound: brute force can find
   strictly better response times (the paper's motivation for §6.2) *)
let rt_objective_suboptimal_somewhere () =
  let rng = Parqo.Rng.create 4242 in
  let found_gap = ref false in
  (* also verify DP-RT never beats brute force (it searches a subset) *)
  for _ = 1 to 12 do
    let env = Helpers.random_env rng ~n:3 in
    let config = { S.default_config with S.clone_degrees = [ 1; 2 ] } in
    let dp = naive_rt_dp ~config env in
    let brute = Brute.leftdeep ~config ~objective:response_time env in
    match (dp.Podp.best, brute.Brute.best) with
    | Some a, Some b ->
      Alcotest.(check bool) "brute <= dp for RT" true
        (b.Cm.response_time <= a.Cm.response_time +. 1e-6);
      if b.Cm.response_time +. 1e-6 < a.Cm.response_time then found_gap := true
    | _ -> Alcotest.fail "missing plan"
  done;
  ignore !found_gap (* gap existence is demonstrated deterministically in
                       test_po_violation; random draws need not exhibit it *)

let singleton_query () =
  let env = env_of G.Chain 1 in
  match (Opt.minimize_work env).Opt.best with
  | Some e -> Alcotest.(check int) "single access plan" 0 (Parqo.Join_tree.n_joins e.Cm.tree)
  | None -> Alcotest.fail "no plan for single relation"

(* property: the work phase — incremental pricing under the incumbent
   bound, at forced pool widths 1, 2 and 3 — returns exactly what the
   from-scratch System R loop returns ([Helpers.reference_dp]): the best
   plan field by field (operator ids, Int64 bits), the level sizes and
   the Table 1 counts *)
let identical_to_reference () =
  let against_reference env widths =
    List.iter
      (fun (space, config) ->
        let reference = Helpers.reference_dp ~config env in
        List.iter
          (fun width ->
            let check (r : Podp.result) =
              let msg = Printf.sprintf "%s, width %d" space width in
              (match (reference.Helpers.best, r.Podp.best) with
              | Some a, Some b -> Helpers.check_eval_identical msg a b
              | _ -> Alcotest.failf "%s: missing plan" msg);
              Alcotest.(check (list int))
                (msg ^ ": level sizes")
                (Array.to_list reference.Helpers.level_sizes)
                (Array.to_list r.Podp.level_sizes);
              let count name f =
                Alcotest.(check int) (msg ^ ": " ^ name)
                  (f reference.Helpers.stats) (f r.Podp.stats)
              in
              count "generated" (fun s -> s.Stats.generated);
              count "considered" (fun s -> s.Stats.considered);
              count "stored_peak" (fun s -> s.Stats.stored_peak)
            in
            let search ?pool () =
              Podp.optimize ~config ~metric:Mt.work ~rank:work ?pool env
            in
            if width = 1 then check (search ())
            else
              Helpers.with_forced_pool width (fun pool ->
                  check (search ~pool ())))
          widths)
      [
        ("default", S.default_config);
        ("sequential", S.sequential_config);
        ("parallel", S.parallel_config env.Parqo.Env.machine);
      ]
  in
  let rng = Parqo.Rng.create 23 in
  for _ = 1 to 6 do
    against_reference (Helpers.random_env rng ~n:4) [ 1; 2; 3 ]
  done;
  (* disconnected queries: every search runs the cartesian fallback *)
  let rng = Parqo.Rng.create 29 in
  List.iter
    (fun n -> against_reference (Helpers.disconnected_env rng ~n) [ 1; 3 ])
    [ 2; 3; 4; 4; 5 ]

(* [Metric.work] with a fill that allocates one block per candidate it
   reads, stated to be the total order of work or not: the level loop
   takes the incumbent bound only when it is *)
let allocating_work total_work =
  {
    Mt.work with
    Mt.fill =
      (fun v dst ->
        ignore (Sys.opaque_identity (ref 0));
        Mt.work.Mt.fill v dst);
    total_work;
  }

(* the incumbent bound fires: on chain-5 it drops most candidates, and
   every twin, before they are read — the same plan and counts as the
   search without it, which reads each of them — so the search allocates
   at least one block (two words) fewer per half of its candidates; its
   drops count in [generated] only *)
let incumbent_bound_fires () =
  let env = env_of G.Chain 5 in
  let config = S.parallel_config env.Parqo.Env.machine in
  let search total_work =
    Podp.optimize ~config ~metric:(allocating_work total_work) ~rank:work env
  in
  let bounded = search true and free = search false in
  Alcotest.(check bool) "Metric.work is the total order of work" true
    Mt.work.Mt.total_work;
  (match (bounded.Podp.best, free.Podp.best) with
  | Some a, Some b -> Helpers.check_eval_identical "same plan" b a
  | _ -> Alcotest.fail "missing plan");
  let generated = bounded.Podp.stats.Stats.generated in
  Alcotest.(check int) "same generated" free.Podp.stats.Stats.generated
    generated;
  Alcotest.(check int) "bound drops are not rejections" 0
    bounded.Podp.stats.Stats.rejected;
  let saved =
    free.Podp.stats.Stats.minor_words -. bounded.Podp.stats.Stats.minor_words
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words saved over %d candidates" saved
       generated)
    true
    (saved >= float_of_int generated)

(* interesting orders keep plans of more work: under [with_ordering
   Metric.work] a cover holds several plans, and the level loop takes no
   incumbent bound — its covers equal the from-scratch search's *)
let no_bound_under_orders () =
  let env = env_of G.Chain 5 in
  let metric = Mt.with_ordering Mt.work in
  let search plan_cache = Podp.optimize ~metric ~rank:work ~plan_cache env in
  let cached = search true and reference = search false in
  Alcotest.(check bool) "not the total order of work" false metric.Mt.total_work;
  Alcotest.(check bool) "a final cover of several plans" true
    (List.length reference.Podp.cover > 1);
  Alcotest.(check (list int)) "level sizes"
    (Array.to_list reference.Podp.level_sizes)
    (Array.to_list cached.Podp.level_sizes);
  Alcotest.(check int) "cover size" (List.length reference.Podp.cover)
    (List.length cached.Podp.cover);
  List.iter2
    (Helpers.check_eval_identical "cover entry")
    reference.Podp.cover cached.Podp.cover

let suite =
  ( "dp",
    [
      t "finds a plan" finds_a_plan;
      t "matches brute force" matches_brute_force;
      t "interesting orders gap" interesting_orders_gap;
      t "Table 1 counters" table1_counters;
      t "connectivity prunes" connectivity_prunes;
      t "disconnected queries" disconnected_queries_work;
      t "rt objective vs brute" rt_objective_suboptimal_somewhere;
      t "singleton query" singleton_query;
      t "identical to the from-scratch reference" identical_to_reference;
      t "incumbent bound fires" incumbent_bound_fires;
      t "no incumbent bound under interesting orders" no_bound_under_orders;
    ] )
