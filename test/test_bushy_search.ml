module Podp = Parqo.Podp
module Dp = Parqo.Dp
module Brute = Parqo.Brute
module Cm = Parqo.Costmodel
module S = Parqo.Space
module G = Parqo.Query_gen
module Stats = Parqo.Search_stats
module Mt = Parqo.Metric
module Opt = Parqo.Optimizer

let t name f = Alcotest.test_case name `Quick f

let env_of ?(nodes = 4) shape n =
  let catalog, query = G.generate (G.default_spec shape n) in
  let machine = Parqo.Machine.shared_nothing ~nodes () in
  Parqo.Env.create ~machine ~catalog ~query ()

let work (e : Cm.eval) = e.Cm.work

(* Figure 1 over bushy trees: the bushy search under the total order of
   work *)
let bushy_work ?config ?pool env =
  Podp.optimize ~shape:S.Bushy ?config ~metric:Mt.work ~rank:work ?pool env

let finds_plans () =
  List.iter
    (fun shape ->
      let env = env_of shape 4 in
      match (bushy_work env).Podp.best with
      | Some e ->
        Alcotest.(check bool) "covers all" true
          (Parqo.Bitset.equal
             (Parqo.Join_tree.relations e.Cm.tree)
             (Parqo.Bitset.full 4))
      | None -> Alcotest.fail "no plan")
    [ G.Chain; G.Star; G.Clique ]

(* bushy DP searches a superset of left-deep DP's space: its work optimum
   is never worse (same candidate generator, same objective) *)
let at_least_as_good_as_leftdeep () =
  let rng = Parqo.Rng.create 30 in
  let config =
    {
      S.default_config with
      S.methods = [ Parqo.Join_method.Nested_loops; Parqo.Join_method.Hash_join ];
    }
  in
  for _ = 1 to 6 do
    let env = Helpers.random_env rng ~n:4 in
    let ld = Dp.optimize ~config env in
    let bushy = bushy_work ~config env in
    match (ld.Dp.best, bushy.Podp.best) with
    | Some l, Some b ->
      Alcotest.(check bool) "bushy work <= left-deep work" true
        (b.Cm.work <= l.Cm.work +. 1e-6)
    | _ -> Alcotest.fail "missing plan"
  done

(* bushy DP matches bushy brute force without interesting orders *)
let matches_brute () =
  let rng = Parqo.Rng.create 31 in
  let config =
    {
      S.minimal_config with
      S.methods = [ Parqo.Join_method.Nested_loops; Parqo.Join_method.Hash_join ];
    }
  in
  for _ = 1 to 5 do
    let env = Helpers.random_env rng ~n:4 in
    let dp = bushy_work ~config env in
    let brute = Brute.bushy ~config ~objective:work env in
    match (dp.Podp.best, brute.Brute.best) with
    | Some a, Some b ->
      Helpers.check_float ~eps:1e-6 "same optimum" b.Cm.work a.Cm.work
    | _ -> Alcotest.fail "missing plan"
  done

(* Table 1: plans considered by bushy DP on a clique =
   3^n - 2^(n+1) + n + 1 (with b = 0: bindings fixed for SPJ) — under
   a total order every memo entry holds one plan, so the units counted,
   one per split and outer plan, are the splits *)
let table1_counters () =
  List.iter
    (fun n ->
      let env = env_of G.Clique n in
      let r = bushy_work ~config:S.minimal_config env in
      Alcotest.(check int)
        (Printf.sprintf "considered n=%d" n)
        (int_of_float (Parqo.Combin.dp_bushy_time n ~b:0))
        r.Podp.stats.Stats.considered)
    [ 2; 3; 4; 5; 6 ]

(* the paper §6.4: on a parallel machine bushy partial-order DP finds
   response times at least as good as left-deep partial-order DP *)
let bushy_rt_at_least_as_good () =
  let env = env_of ~nodes:4 G.Star 4 in
  let config = { S.default_config with S.clone_degrees = [ 1; 2 ] } in
  let metric =
    Mt.with_ordering (Mt.descriptor env.Parqo.Env.machine Parqo.Machine.Single)
  in
  let ld = Podp.optimize ~config ~metric env in
  (* beam-bounded: exact bushy po-DP cover products are prohibitive; the
     beam keeps the best plans per subset and still beats left-deep *)
  let bushy = Podp.optimize ~shape:S.Bushy ~config ~metric ~max_cover:24 env in
  match (ld.Podp.best, bushy.Podp.best) with
  | Some l, Some b ->
    Alcotest.(check bool) "bushy rt <= left-deep rt" true
      (b.Cm.response_time <= l.Cm.response_time +. 1e-6)
  | _ -> Alcotest.fail "missing plan"

let beam_bound_respected () =
  let env = env_of G.Chain 4 in
  let metric = Mt.descriptor env.Parqo.Env.machine Parqo.Machine.Single in
  let r = Podp.optimize ~shape:S.Bushy ~metric ~max_cover:4 env in
  Alcotest.(check bool) "has result" true (r.Podp.best <> None);
  Alcotest.(check bool) "cover bounded" true (List.length r.Podp.cover <= 4)

(* -- the reference property -- *)

type case = {
  label : string;
  env : Parqo.Env.t;
  config : S.config;
  metric : Mt.t;
  rank : Cm.eval -> float;
  work_cap : float option;
  max_cover : int option;
  plan_cache : bool;
}

(* Random queries of 3 to 5 relations, each under one setting of the
   metric (work, response time, the default), the work cap (none, the
   one [Optimizer] derives, or tight enough to empty covers and force
   the cartesian fallback), the beam and incremental pricing: the 36
   settings once each, on two annotation spaces.  Five relations without
   a beam take the cheaper one, which keeps the property quick. *)
let reference_cases () =
  let rng = Parqo.Rng.create 61 in
  List.init 36 (fun k ->
      let n = 3 + (k mod 3) in
      let catalog, query = G.random rng ~n () in
      let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
      let env = Parqo.Env.create ~machine ~catalog ~query () in
      let max_cover =
        if (k / 9) mod 2 = 1 then Some (1 + Parqo.Rng.int rng 4) else None
      in
      let config =
        if Parqo.Rng.bool rng || (n = 5 && max_cover = None) then
          S.default_config
        else
          {
            S.default_config with
            S.clone_degrees = [ 1; 2 ];
            materialize_choices = true;
          }
      in
      let response_time (e : Cm.eval) = e.Cm.response_time in
      let metric, rank =
        match k mod 3 with
        | 0 -> (Mt.work, work)
        | 1 -> (Mt.response_time, response_time)
        | _ -> (Opt.default_metric env, response_time)
      in
      let work_opt = (Bushy_reference.optimize_scalar ~config env).best in
      let work_cap, cap_name =
        match ((k / 3) mod 3, work_opt) with
        | 1, Some wo ->
          ( Parqo.Bounds.partial_work_cap
              (Parqo.Bounds.Throughput_degradation 2.)
              ~work_opt:wo.Cm.work ~rt_opt:wo.Cm.response_time,
            "capped" )
        | 2, Some wo -> (Some (0.6 *. wo.Cm.work), "tight cap")
        | _ -> (None, "uncapped")
      in
      let plan_cache = k / 18 = 0 in
      let label =
        Printf.sprintf "case %d: random-%d, %s, %s%s%s%s" k n metric.Mt.name
          cap_name
          (match max_cover with
          | None -> ""
          | Some keep -> Printf.sprintf ", beam %d" keep)
          (if config.S.materialize_choices then ", twins, clones" else "")
          (if plan_cache then "" else ", from scratch")
      in
      { label; env; config; metric; rank; work_cap; max_cover; plan_cache })

let run_case ?pool c =
  Podp.optimize ~shape:S.Bushy ~config:c.config ~metric:c.metric ~rank:c.rank
    ?work_cap:c.work_cap ?max_cover:c.max_cover ~plan_cache:c.plan_cache ?pool
    c.env

let check_same msg (want : Bushy_reference.result) (got : Podp.result) =
  (match (want.Bushy_reference.best, got.Podp.best) with
  | Some x, Some y -> Helpers.check_eval_identical (msg ^ ": best") x y
  | None, None -> ()
  | _ -> Alcotest.failf "%s: one search found a plan, the other did not" msg);
  Alcotest.(check int)
    (msg ^ ": cover size")
    (List.length want.Bushy_reference.cover)
    (List.length got.Podp.cover);
  List.iter2
    (Helpers.check_eval_identical (msg ^ ": cover entry"))
    want.Bushy_reference.cover got.Podp.cover;
  Alcotest.(check (list int))
    (msg ^ ": level sizes")
    (Array.to_list want.Bushy_reference.level_sizes)
    (Array.to_list got.Podp.level_sizes);
  Alcotest.(check int) (msg ^ ": generated")
    want.Bushy_reference.stats.Stats.generated got.Podp.stats.Stats.generated

(* The bushy search equals the reference at every pool width: best plan,
   the whole cover (every float by its bits), level sizes and [generated].
   Under [Metric.work], uncapped and unbeamed, it also equals the scalar
   reference, the work phase's Figure 1. *)
let matches_reference () =
  let expected =
    List.map
      (fun c ->
        ( c,
          Bushy_reference.optimize_po ~config:c.config ~metric:c.metric
            ~rank:c.rank ?work_cap:c.work_cap ?max_cover:c.max_cover c.env ))
      (reference_cases ())
  in
  List.iter
    (fun (c, r) ->
      let got = run_case c in
      check_same (c.label ^ ", width 1") r got;
      if c.metric == Mt.work && c.work_cap = None && c.max_cover = None then
        check_same
          (c.label ^ ", scalar reference")
          (Bushy_reference.optimize_scalar ~config:c.config c.env)
          got)
    expected;
  List.iter
    (fun k ->
      Helpers.with_forced_pool k (fun pool ->
          List.iter
            (fun (c, r) ->
              check_same (Printf.sprintf "%s, width %d" c.label k) r
                (run_case ~pool c))
            expected))
    [ 2; 3; 8 ]

let plan_str (e : Cm.eval) = Parqo.Join_tree.to_string e.Cm.tree

(* Bushy search runs on the pool: [~domains:2] returns what [~domains:1]
   does, and on a host with two cores some level runs on both; so does
   the optimizer's bushy path, work phase included *)
let two_domains_match_one () =
  List.iter
    (fun shape ->
      let env = env_of shape 4 in
      let config = S.parallel_config env.Parqo.Env.machine in
      let metric = Opt.default_metric env in
      let search domains =
        Podp.optimize ~shape:S.Bushy ~config ~metric ~max_cover:8 ~domains env
      in
      let one = search 1 and two = search 2 in
      (match (one.Podp.best, two.Podp.best) with
      | Some a, Some b -> Helpers.check_eval_identical "best" a b
      | _ -> Alcotest.fail "missing plan");
      Alcotest.(check (list string)) "cover"
        (List.map plan_str one.Podp.cover)
        (List.map plan_str two.Podp.cover);
      Alcotest.(check (list int)) "level sizes"
        (Array.to_list one.Podp.level_sizes)
        (Array.to_list two.Podp.level_sizes);
      Alcotest.(check int) "generated" one.Podp.stats.Stats.generated
        two.Podp.stats.Stats.generated;
      if Domain.recommended_domain_count () >= 2 then
        Alcotest.(check bool) "a level ran on two domains" true
          (List.exists
             (fun (l : Stats.level) -> l.Stats.domains = 2)
             (Stats.levels two.Podp.stats));
      let optimize domains =
        Opt.minimize_response_time ~config ~shape:Opt.Bushy
          ~bound:(Parqo.Bounds.Throughput_degradation 2.) ~domains env
      in
      let plans (o : Opt.outcome) =
        List.map plan_str
          (Option.to_list o.Opt.best
          @ Option.to_list o.Opt.work_optimal
          @ o.Opt.cover)
      in
      Alcotest.(check (list string)) "optimizer plans" (plans (optimize 1))
        (plans (optimize 2)))
    [ G.Chain; G.Star ]

(* The budget reaches bushy search: a tiny one gives up, and the
   optimizer still returns a plan over every relation *)
let tiny_budget_gives_up () =
  let env = env_of G.Chain 5 in
  let o =
    Opt.minimize_response_time ~shape:Opt.Bushy
      ~budget:(Parqo.Budget.expansions 10) env
  in
  Alcotest.(check bool) "gave up" true o.Opt.gave_up;
  match o.Opt.best with
  | Some e ->
    Alcotest.(check bool) "covers all" true
      (Parqo.Bitset.equal
         (Parqo.Join_tree.relations e.Cm.tree)
         (Parqo.Bitset.full 5))
  | None -> Alcotest.fail "no plan"

let suite =
  ( "bushy",
    [
      t "finds plans" finds_plans;
      t "at least as good as left-deep" at_least_as_good_as_leftdeep;
      t "matches brute force" matches_brute;
      t "Table 1 counters" table1_counters;
      t "bushy rt wins" bushy_rt_at_least_as_good;
      t "beam bound" beam_bound_respected;
      t "matches the reference at widths 1, 2, 3, 8" matches_reference;
      t "domains 2 match domains 1" two_domains_match_one;
      t "tiny budget gives up and still plans" tiny_budget_gives_up;
    ] )
