(* Figure 2: partial-order DP over left-deep trees. *)

module Podp = Parqo.Podp
module Dp = Parqo.Dp
module Brute = Parqo.Brute
module Mt = Parqo.Metric
module Cm = Parqo.Costmodel
module S = Parqo.Space
module G = Parqo.Query_gen
module Stats = Parqo.Search_stats

let t name f = Alcotest.test_case name `Quick f

let env_of ?(nodes = 4) shape n =
  let catalog, query = G.generate (G.default_spec shape n) in
  let machine = Parqo.Machine.shared_nothing ~nodes () in
  Parqo.Env.create ~machine ~catalog ~query ()

let metric_for env =
  Mt.with_ordering
    (Mt.descriptor env.Parqo.Env.machine Parqo.Machine.Single)

let finds_plans () =
  List.iter
    (fun shape ->
      let env = env_of shape 4 in
      let r = Podp.optimize ~metric:(metric_for env) env in
      match r.Podp.best with
      | Some e ->
        Alcotest.(check bool) "left-deep" true (Parqo.Join_tree.is_left_deep e.Cm.tree)
      | None -> Alcotest.fail "no plan")
    [ G.Chain; G.Star; G.Cycle; G.Clique ]

let final_cover_incomparable () =
  let env = env_of G.Chain 4 in
  let metric = metric_for env in
  let r =
    Podp.optimize ~config:(S.parallel_config env.Parqo.Env.machine) ~metric env
  in
  let cover = r.Podp.cover in
  Alcotest.(check bool) "non-empty cover" true (cover <> []);
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b then
            Alcotest.(check bool) "pairwise incomparable" false
              (Mt.dominates metric a b))
        cover)
    cover

(* po-DP at least matches DP on response time: it retains strictly more
   plans per subset, so its final answer can only be better or equal *)
let no_worse_than_rt_dp () =
  let rng = Parqo.Rng.create 8 in
  for _ = 1 to 8 do
    let env = Helpers.random_env rng ~n:4 in
    let config = { S.default_config with S.clone_degrees = [ 1; 2 ] } in
    let objective (e : Cm.eval) = e.Cm.response_time in
    let dp = Dp.optimize ~config ~objective env in
    let po = Podp.optimize ~config ~metric:(metric_for env) env in
    match (dp.Dp.best, po.Podp.best) with
    | Some d, Some p ->
      Alcotest.(check bool) "po-DP <= naive RT DP" true
        (p.Cm.response_time <= d.Cm.response_time +. 1e-6)
    | _ -> Alcotest.fail "missing plan"
  done

(* ground truth: po-DP with the full descriptor metric finds the true
   response-time optimum (delta = 0 makes the metric provably sound) *)
let optimal_vs_brute_delta0 () =
  let rng = Parqo.Rng.create 9 in
  let count = ref 0 in
  for _ = 1 to 8 do
    let catalog, query = Parqo.Query_gen.random rng ~n:3 () in
    let params = { Parqo.Machine.default_params with pipeline_delta_k = 0. } in
    let machine = Parqo.Machine.shared_nothing ~params ~nodes:3 () in
    let env = Parqo.Env.create ~machine ~catalog ~query () in
    let config = { S.default_config with S.clone_degrees = [ 1; 2 ] } in
    let metric =
      Mt.with_ordering (Mt.descriptor machine Parqo.Machine.Per_resource)
    in
    let po = Podp.optimize ~config ~metric env in
    let brute =
      Brute.leftdeep ~config
        ~objective:(fun (e : Cm.eval) -> e.Cm.response_time)
        env
    in
    match (po.Podp.best, brute.Brute.best) with
    | Some p, Some b ->
      if Helpers.feq ~eps:1e-6 p.Cm.response_time b.Cm.response_time then
        incr count
      else
        Alcotest.failf "po-DP %.4f vs brute %.4f" p.Cm.response_time
          b.Cm.response_time
    | _ -> Alcotest.fail "missing plan"
  done;
  Alcotest.(check int) "all optimal" 8 !count

(* with the delta penalty on, the metric is heuristic; measure that it
   still matches brute force on nearly all random instances *)
let near_optimal_with_delta () =
  let rng = Parqo.Rng.create 10 in
  let total = 10 and hits = ref 0 in
  for _ = 1 to total do
    let env = Helpers.random_env rng ~n:3 in
    let config = { S.default_config with S.clone_degrees = [ 1; 2 ] } in
    let metric =
      Mt.with_ordering
        (Mt.descriptor env.Parqo.Env.machine Parqo.Machine.Per_resource)
    in
    let po = Podp.optimize ~config ~metric env in
    let brute =
      Brute.leftdeep ~config
        ~objective:(fun (e : Cm.eval) -> e.Cm.response_time)
        env
    in
    match (po.Podp.best, brute.Brute.best) with
    | Some p, Some b ->
      if p.Cm.response_time <= b.Cm.response_time *. 1.02 +. 1e-9 then incr hits
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d within 2%% of optimal" !hits total)
    true
    (!hits >= total - 1)

(* work cap prunes the search; with cap = optimal work the result matches
   the work optimizer's response time *)
let work_cap_prunes () =
  let env = env_of G.Chain 4 in
  let config = S.parallel_config env.Parqo.Env.machine in
  let metric = metric_for env in
  let wopt = (Dp.optimize ~config env).Dp.best in
  match wopt with
  | None -> Alcotest.fail "no work optimum"
  | Some w ->
    let free = Podp.optimize ~config ~metric env in
    let capped = Podp.optimize ~config ~metric ~work_cap:w.Cm.work env in
    (match (free.Podp.best, capped.Podp.best) with
    | Some f, Some c ->
      Alcotest.(check bool) "cap respected" true (c.Cm.work <= w.Cm.work +. 1e-6);
      Alcotest.(check bool) "free at least as fast" true
        (f.Cm.response_time <= c.Cm.response_time +. 1e-6)
    | _ -> Alcotest.fail "missing plan");
    Alcotest.(check bool) "cap shrinks generated plans" true
      (capped.Podp.stats.Stats.generated <= free.Podp.stats.Stats.generated)

(* Theorem 3 bounds the expected cover by 2^l only under independent
   dimensions, an assumption the paper itself calls "likely to be
   optimistic": a plan's time and work dimensions are anti-correlated
   (that tradeoff is the whole point), so measured covers exceed 2^l.
   Assert the honest claim — covers stay bounded and small relative to
   the number of plans per subset — and that a beam cap enforces 2^l. *)
let cover_sizes_reasonable () =
  let env = env_of G.Clique 5 in
  let metric = Mt.descriptor env.Parqo.Env.machine Parqo.Machine.Single in
  let r = Podp.optimize ~config:S.default_config ~metric env in
  Alcotest.(check bool)
    (Printf.sprintf "cover max %d stays bounded" r.Podp.stats.Stats.cover_max)
    true
    (r.Podp.stats.Stats.cover_max <= 128);
  let beamed = Podp.optimize ~config:S.default_config ~metric ~max_cover:16 env in
  List.iter
    (fun (c : Cm.eval) -> ignore c)
    beamed.Podp.cover;
  Alcotest.(check bool) "beamed cover obeys cap" true
    (List.length beamed.Podp.cover <= 16);
  (* the beam is a heuristic: its answer is close to the exact one *)
  match (r.Podp.best, beamed.Podp.best) with
  | Some exact, Some beam ->
    Alcotest.(check bool) "beam within 10% of exact" true
      (beam.Cm.response_time <= exact.Cm.response_time *. 1.10 +. 1e-9)
  | _ -> Alcotest.fail "missing plan"

let plan_str (e : Cm.eval) = Parqo.Join_tree.to_string e.Cm.tree

let check_identical msg (a : Podp.result) (b : Podp.result) =
  (match (a.Podp.best, b.Podp.best) with
  | Some x, Some y ->
    Alcotest.(check string) (msg ^ ": best plan") (plan_str x) (plan_str y);
    (* bit identity, not epsilon: the parallel merge must replay the
       same float operations in the same order *)
    Alcotest.(check int64)
      (msg ^ ": best rt bits")
      (Int64.bits_of_float x.Cm.response_time)
      (Int64.bits_of_float y.Cm.response_time);
    Alcotest.(check int64)
      (msg ^ ": best work bits")
      (Int64.bits_of_float x.Cm.work)
      (Int64.bits_of_float y.Cm.work)
  | None, None -> ()
  | _ -> Alcotest.failf "%s: one run found a plan, the other did not" msg);
  Alcotest.(check (list string))
    (msg ^ ": cover")
    (List.map plan_str a.Podp.cover)
    (List.map plan_str b.Podp.cover);
  Alcotest.(check (list int))
    (msg ^ ": level sizes")
    (Array.to_list a.Podp.level_sizes)
    (Array.to_list b.Podp.level_sizes);
  Alcotest.(check int) (msg ^ ": generated") a.Podp.stats.Stats.generated
    b.Podp.stats.Stats.generated;
  Alcotest.(check int) (msg ^ ": considered") a.Podp.stats.Stats.considered
    b.Podp.stats.Stats.considered

(* property: on random queries the domain-parallel search returns exactly
   the sequential result — best plan, cover and level sizes (the
   deterministic-merge contract of the level loop) — for pool widths
   below, at, and above the subset counts involved *)
let parallel_matches_sequential () =
  let rng = Parqo.Rng.create 21 in
  for _ = 1 to 3 do
    let env = Helpers.random_env rng ~n:4 in
    let config = { S.default_config with S.clone_degrees = [ 1; 2 ] } in
    let metric = metric_for env in
    let seq = Podp.optimize ~config ~metric env in
    List.iter
      (fun k ->
        Helpers.with_forced_pool k (fun pool ->
            let par = Podp.optimize ~config ~metric ~pool env in
            check_identical (Printf.sprintf "domains=%d" k) seq par))
      [ 2; 3; 8 ]
  done

(* the beam path exercises the rank tie-break in Cover.trim; the pruned
   choice must also be identical across domain counts *)
let parallel_matches_sequential_beamed () =
  let rng = Parqo.Rng.create 22 in
  for _ = 1 to 2 do
    let env = Helpers.random_env rng ~n:5 in
    let config = { S.default_config with S.clone_degrees = [ 1; 2 ] } in
    let metric = metric_for env in
    let seq = Podp.optimize ~config ~metric ~max_cover:4 env in
    List.iter
      (fun k ->
        Helpers.with_forced_pool k (fun pool ->
            let par = Podp.optimize ~config ~metric ~max_cover:4 ~pool env in
            check_identical (Printf.sprintf "beamed domains=%d" k) seq par))
      [ 3; 8 ]
  done

(* with incremental costing on, workers price from the memo the
   previous barrier published and number the plans they keep before the
   coordinator absorbs them: the result must still be bit-identical to
   the sequential incremental run at every width *)
let parallel_matches_sequential_cached () =
  let rng = Parqo.Rng.create 29 in
  for _ = 1 to 2 do
    let env = Helpers.random_env rng ~n:5 in
    let config = { S.default_config with S.clone_degrees = [ 1; 2 ] } in
    let metric = metric_for env in
    let seq =
      Podp.optimize ~config ~metric ~max_cover:3 ~plan_cache:true env
    in
    List.iter
      (fun k ->
        Helpers.with_forced_pool k (fun pool ->
            let par =
              Podp.optimize ~config ~metric ~max_cover:3 ~plan_cache:true
                ~pool env
            in
            check_identical (Printf.sprintf "cached domains=%d" k) seq par))
      [ 2; 3; 8 ]
  done

(* one persistent pool across several searches: results identical to
   fresh-pool runs, and the reuse spawns no new domains *)
let persistent_pool_reuse () =
  let rng = Parqo.Rng.create 23 in
  Helpers.with_forced_pool 3 (fun pool ->
      for _ = 1 to 3 do
        let env = Helpers.random_env rng ~n:4 in
        let config = { S.default_config with S.clone_degrees = [ 1; 2 ] } in
        let metric = metric_for env in
        let seq = Podp.optimize ~config ~metric env in
        let par = Podp.optimize ~config ~metric ~pool env in
        check_identical "persistent pool" seq par;
        Alcotest.(check int) "reuse spawned nothing" 0
          par.Podp.stats.Stats.pool.Parqo.Domain_pool.spawned;
        Alcotest.(check bool) "parallel regions ran" true
          (par.Podp.stats.Stats.pool.Parqo.Domain_pool.parallel_runs
           + par.Podp.stats.Stats.pool.Parqo.Domain_pool.sequential_runs
          > 0)
      done)

(* a starved budget reports gave_up no matter how many domains run — with
   both a tiny and a merely insufficient expansion cap *)
let gave_up_consistent_across_domains () =
  let env = env_of G.Chain 5 in
  let metric = metric_for env in
  List.iter
    (fun budget ->
      (* sequential baseline *)
      let r = Podp.optimize ~metric ~budget env in
      Alcotest.(check bool) "domains=1 gives up" true r.Podp.gave_up;
      List.iter
        (fun k ->
          Helpers.with_forced_pool k (fun pool ->
              let r = Podp.optimize ~metric ~budget ~pool env in
              Alcotest.(check bool)
                (Printf.sprintf "domains=%d gives up" k)
                true r.Podp.gave_up))
        [ 2; 4 ])
    [ Parqo.Budget.expansions 1; Parqo.Budget.expansions 40 ]

(* level stats report what actually ran: never more lanes than the pool
   has, and exactly one lane for one-subset levels (the pool fast-paths
   them to the calling domain) *)
let used_domains_honest () =
  let env = env_of G.Chain 5 in
  let metric = metric_for env in
  Helpers.with_forced_pool 3 (fun pool ->
      let r = Podp.optimize ~metric ~pool env in
      let levels = Stats.levels r.Podp.stats in
      List.iter
        (fun (l : Stats.level) ->
          Alcotest.(check bool)
            (Printf.sprintf "level %d: 1 <= domains <= width" l.Stats.level)
            true
            (l.Stats.domains >= 1 && l.Stats.domains <= 3);
          if l.Stats.subsets <= 1 then
            Alcotest.(check int)
              (Printf.sprintf "level %d fast-paths sequentially" l.Stats.level)
              1 l.Stats.domains)
        levels);
  (* sequential search: every level reports exactly one domain *)
  let seq = Podp.optimize ~metric env in
  List.iter
    (fun (l : Stats.level) ->
      Alcotest.(check int)
        (Printf.sprintf "sequential level %d" l.Stats.level)
        1 l.Stats.domains)
    (Stats.levels seq.Podp.stats)

(* per-level stats are recorded in level order, level 1 (access plans)
   first — the stored-size bookkeeping bug recorded level 1 last *)
let level_stats_in_order () =
  let env = env_of G.Chain 5 in
  let r = Podp.optimize ~metric:(metric_for env) env in
  let levels = Stats.levels r.Podp.stats in
  Alcotest.(check (list int)) "levels 1..n in order" [ 1; 2; 3; 4; 5 ]
    (List.map (fun (l : Stats.level) -> l.Stats.level) levels);
  List.iter
    (fun (l : Stats.level) ->
      Alcotest.(check int)
        (Printf.sprintf "level %d stored matches level_sizes" l.Stats.level)
        r.Podp.level_sizes.(l.Stats.level)
        l.Stats.stored;
      Alcotest.(check bool)
        (Printf.sprintf "level %d wall time non-negative" l.Stats.level)
        true
        (l.Stats.wall_ms >= 0.))
    levels;
  Alcotest.(check (list int)) "subset counts are C(5,k)" [ 5; 10; 10; 5; 1 ]
    (List.map (fun (l : Stats.level) -> l.Stats.subsets) levels)

let suite =
  ( "podp",
    [
      t "finds plans" finds_plans;
      t "parallel matches sequential" parallel_matches_sequential;
      t "parallel matches sequential (beamed)" parallel_matches_sequential_beamed;
      t "parallel matches sequential (cached)" parallel_matches_sequential_cached;
      t "persistent pool reuse" persistent_pool_reuse;
      t "gave-up consistent across domains" gave_up_consistent_across_domains;
      t "used_domains reports what ran" used_domains_honest;
      t "level stats in order" level_stats_in_order;
      t "final cover incomparable" final_cover_incomparable;
      t "no worse than naive RT DP" no_worse_than_rt_dp;
      t "optimal vs brute (delta=0)" optimal_vs_brute_delta0;
      t "near-optimal with delta" near_optimal_with_delta;
      t "work cap prunes" work_cap_prunes;
      t "cover sizes reasonable" cover_sizes_reasonable;
    ] )
