(* E18 — incremental costing in the PODP hot path.

   Runs the partial-order DP search with the sub-plan cache on and off
   (sequential), plus cached runs at domains 2 up to the host's cores,
   on the same workloads E17 sweeps, and verifies along the way that
   all runs return exactly the same best plan (down to the response
   time's bits), cover, level sizes and expansion counts — the
   bit-identity contract of incremental pricing and of the
   domain-parallel memo merge.  A second pair of
   sequential runs, on and off, searches under the work cap a session
   derives (throughput degradation 2 over the work optimum), where
   capped candidates are rejected before pricing; it is checked the
   same way.  Wall-clock is the minimum over repeats; results go to
   BENCH_cost.json together with the coordinator's allocation per
   costed plan.

   PARQO_SMOKE=1 shrinks the sweep (one small workload, one repeat) so
   CI gates stay fast, writes nothing, and gates each cached sequential
   run, uncapped and capped: a generous container-safe ceiling on its
   us_per_plan, and a tight one on its minor_words_per_plan — allocation
   on one domain is a deterministic count, so it catches a slower
   candidate loop that the wall-clock ceiling would let through. *)

module T = Parqo.Tableau
module Cm = Parqo.Costmodel
module Stats = Parqo.Search_stats

let smoke = Common.smoke

(* minimum cached sequential throughput the smallest container should
   comfortably beat; the full run on a quiet machine is ~5x faster *)
let smoke_us_per_plan_ceiling = 30.

(* about 1.2x the cached sequential chain-5 smoke run's 169.1 minor
   words per plan when it was set, which repeats exactly from run to
   run; building every candidate's join tree and eval before its cover
   test, with composition kernels that box their floats, allocated
   324.2, and pricing every candidate from scratch again (renumbering
   it, re-costing the materialized twin) 861.5 *)
let smoke_words_per_plan_ceiling = 203.

(* about 1.2x the capped cached sequential chain-5 smoke run's 59.7 to
   62.2 minor words per plan when it was set; building every priced
   candidate before its cover test allocated 109.4, and pricing every
   capped candidate in full before comparing its work with the cap
   293.4 *)
let smoke_capped_words_per_plan_ceiling = 75.

let plan_string (e : Cm.eval) = Parqo.Join_tree.to_string e.Cm.tree

(* the cached run's curve: one pooled row per width from 2 up to the
   host's cores (at least one, which a one-core host clamps to 1) *)
let pooled_domains =
  List.init (max 1 (Domain.recommended_domain_count () - 1)) (fun i -> i + 2)

type run = {
  workload : string;
  n_relations : int;
  capped : bool;  (** searched under the session's work cap *)
  plan_cache : bool;
  domains : int;
  wall_ms : float;
  speedup : float;  (** uncached wall / this wall *)
  plans_expanded : int;
  us_per_plan : float;
  minor_words_per_plan : float;
      (** coordinator-domain minor-heap words per costed plan *)
}

let json_of_run r =
  Printf.sprintf
    "  {\"workload\": %S, \"n_relations\": %d, \"capped\": %b, \
     \"plan_cache\": %b, \"domains\": %d, \"wall_ms\": %.3f, \
     \"speedup\": %.3f, \"plans_expanded\": %d, \"us_per_plan\": %.3f, \
     \"minor_words_per_plan\": %.1f}"
    r.workload r.n_relations r.capped r.plan_cache r.domains r.wall_ms r.speedup
    r.plans_expanded r.us_per_plan r.minor_words_per_plan

let write_json path runs =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\"schema\": [\"workload\", \"n_relations\", \"capped\", \
     \"plan_cache\", \"domains\", \"wall_ms\", \"speedup\", \
     \"plans_expanded\", \"us_per_plan\", \"minor_words_per_plan\"],\n\
     \"cores\": %d,\n\"smoke\": %b,\n\"runs\": [\n%s\n]}\n"
    (Domain.recommended_domain_count ())
    smoke
    (String.concat ",\n" (List.map json_of_run runs));
  close_out oc

(* the E17 configuration: beam cap 8, parallel space *)
let optimize ?work_cap ~plan_cache ~domains env =
  let config = Parqo.Space.parallel_config env.Parqo.Env.machine in
  let metric = Parqo.Optimizer.default_metric env in
  Parqo.Podp.optimize ~config ~metric ~max_cover:8 ?work_cap ~domains
    ~plan_cache env

(* the cap Optimizer.minimize_response_time searches under by default:
   throughput degradation 2 over the work-phase optimum *)
let session_work_cap env =
  let config = Parqo.Space.parallel_config env.Parqo.Env.machine in
  match (Parqo.Dp.optimize ~config env).Parqo.Dp.best with
  | Some wo ->
    Parqo.Bounds.partial_work_cap (Parqo.Bounds.Throughput_degradation 2.)
      ~work_opt:wo.Cm.work ~rt_opt:wo.Cm.response_time
  | None -> failwith "E18: no work-optimal plan"

let best_rt_bits (res : Parqo.Podp.result) =
  match res.Parqo.Podp.best with
  | Some e -> Int64.bits_of_float e.Cm.response_time
  | None -> 0L

let check_identical name (base : Parqo.Podp.result) (r : Parqo.Podp.result) =
  let plan_of (res : Parqo.Podp.result) =
    match res.Parqo.Podp.best with Some e -> plan_string e | None -> "<none>"
  in
  let same_best = String.equal (plan_of base) (plan_of r) in
  let same_bits = Int64.equal (best_rt_bits base) (best_rt_bits r) in
  let same_cover =
    List.length base.Parqo.Podp.cover = List.length r.Parqo.Podp.cover
    && List.for_all2
         (fun a b -> String.equal (plan_string a) (plan_string b))
         base.Parqo.Podp.cover r.Parqo.Podp.cover
  in
  let same_levels = base.Parqo.Podp.level_sizes = r.Parqo.Podp.level_sizes in
  let same_counts =
    base.Parqo.Podp.stats.Stats.generated = r.Parqo.Podp.stats.Stats.generated
    && base.Parqo.Podp.stats.Stats.considered
       = r.Parqo.Podp.stats.Stats.considered
  in
  if not (same_best && same_bits && same_cover && same_levels && same_counts)
  then
    failwith
      (Printf.sprintf
         "E18: %s result diverged from the uncached sequential baseline \
          (best %b bits %b cover %b levels %b counts %b)"
         name same_best same_bits same_cover same_levels same_counts)

let time_run ?work_cap ~repeats ~plan_cache ~domains env =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to repeats do
    let t0 = Unix.gettimeofday () in
    let r = optimize ?work_cap ~plan_cache ~domains env in
    let dt = (Unix.gettimeofday () -. t0) *. 1000. in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let run () =
  Common.header "E18 — incremental costing in PODP"
    [
      "Sequential PODP with incremental pricing on vs off: every";
      "extension grafts the memoized outer plan's expansion and pipes";
      "its descriptor, so only the new root operators are costed.";
      "Cached runs at domains 2..cores ride along, and a sequential";
      "pair on and off under the session's work cap, where capped";
      "candidates are rejected before pricing.  All runs are checked";
      "bit-identical (plan + response-time bits, cover, levels, counts).";
      (if smoke then "[smoke mode]" else "");
    ];
  let workloads =
    if smoke then [ (Parqo.Query_gen.Chain, 5) ]
    else [ (Parqo.Query_gen.Chain, 8); (Parqo.Query_gen.Star, 8) ]
  in
  let repeats = if smoke then 1 else 2 in
  let tbl =
    T.create ~title:"P18. PODP wall time, cached vs uncached costing"
      ~columns:
        [
          ("workload", T.Left);
          ("n", T.Right);
          ("cap", T.Left);
          ("cache", T.Left);
          ("domains", T.Right);
          ("wall ms", T.Right);
          ("speedup", T.Right);
          ("expanded", T.Right);
          ("us/plan", T.Right);
          ("words/plan", T.Right);
        ]
  in
  let runs = ref [] in
  List.iter
    (fun (shape, n) ->
      let name = Parqo.Query_gen.shape_to_string shape in
      let env = Common.shape_env ~nodes:4 shape n in
      let off, off_ms = time_run ~repeats ~plan_cache:false ~domains:1 env in
      let on, on_ms = time_run ~repeats ~plan_cache:true ~domains:1 env in
      check_identical (name ^ "/cached") off on;
      let pooled =
        List.map
          (fun domains ->
            let r, ms = time_run ~repeats ~plan_cache:true ~domains env in
            check_identical (Printf.sprintf "%s/domains=%d" name domains) off r;
            (false, true, domains, r, ms))
          pooled_domains
      in
      let work_cap = session_work_cap env in
      let coff, coff_ms =
        time_run ?work_cap ~repeats ~plan_cache:false ~domains:1 env
      in
      let con, con_ms =
        time_run ?work_cap ~repeats ~plan_cache:true ~domains:1 env
      in
      check_identical (name ^ "/capped/cached") coff con;
      List.iter
        (fun (capped, plan_cache, domains, r, wall_ms) ->
          let r : Parqo.Podp.result = r in
          let expanded = r.Parqo.Podp.stats.Stats.generated in
          let row =
            {
              workload = name;
              n_relations = n;
              capped;
              plan_cache;
              domains;
              wall_ms;
              speedup = (if capped then coff_ms else off_ms) /. wall_ms;
              plans_expanded = expanded;
              us_per_plan = wall_ms *. 1000. /. float_of_int (max 1 expanded);
              minor_words_per_plan =
                r.Parqo.Podp.stats.Stats.minor_words
                /. float_of_int (max 1 expanded);
            }
          in
          runs := row :: !runs;
          T.add_row tbl
            [
              name;
              Common.celli n;
              (if capped then "2x" else "none");
              (if plan_cache then "on" else "off");
              Common.celli domains;
              Common.cell ~decimals:1 wall_ms;
              Common.cell ~decimals:2 row.speedup;
              Common.celli expanded;
              Common.cell ~decimals:2 row.us_per_plan;
              Common.cell ~decimals:1 row.minor_words_per_plan;
            ])
        ([ (false, false, 1, off, off_ms); (false, true, 1, on, on_ms) ]
        @ pooled
        @ [ (true, false, 1, coff, coff_ms); (true, true, 1, con, con_ms) ]))
    workloads;
  T.print tbl;
  Common.write_results "BENCH_cost.json"
    ~what:(Printf.sprintf "%d runs" (List.length !runs))
    (fun path -> write_json path (List.rev !runs));
  if smoke then
    List.iter
      (fun r ->
        if r.plan_cache && r.domains = 1 then begin
          let label = if r.capped then "capped cached" else "cached" in
          if r.us_per_plan > smoke_us_per_plan_ceiling then
            failwith
              (Printf.sprintf
                 "E18 smoke: %s us_per_plan %.2f exceeds the %.0f ceiling \
                  — costing hot path regressed"
                 label r.us_per_plan smoke_us_per_plan_ceiling);
          let words_ceiling =
            if r.capped then smoke_capped_words_per_plan_ceiling
            else smoke_words_per_plan_ceiling
          in
          if r.minor_words_per_plan > words_ceiling then
            failwith
              (Printf.sprintf
                 "E18 smoke: %s minor_words_per_plan %.1f exceeds the %.0f \
                  ceiling — costing hot path allocates more"
                 label r.minor_words_per_plan words_ceiling)
        end)
      !runs
