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
   same way.  A bushy workload runs the same level loop over bushy
   trees (its extensions are splits), uncapped, and is checked the same
   way.  Wall-clock is the minimum over repeats; results go to
   BENCH_cost.json together with the coordinator's allocation per
   costed plan, the words its minor collections promoted per plan, and
   the shared pricing entries the search filled (its reuse of them is
   expanded / entries).

   Minor words are [Gc.minor_words] deltas on the searching domain
   ([Search_stats.gc_sample]), an exact count.  They were
   [Gc.quick_stat] deltas, which under OCaml 5.1 count a minor heap
   only once it is collected, so a search's figure gained or lost what
   the heap held at its two samples; the capped smoke run read 59.7 or
   62.2 words per plan by where its collections fell.  Promoted words
   can only be counted at collections, so each timed search starts
   from an emptied minor heap ([Gc.minor]), and every sequential run,
   of every workload, runs before the first pool is created, because
   [Gc.quick_stat] also sums the pool's domains' counters as of their
   last collection: after a pooled run the capped smoke run's promoted
   words read 0.59 or 0.61 per plan where every run without one read
   0.76.  Both figures then repeat exactly from run to run.

   PARQO_SMOKE=1 shrinks the sweep (chain-5, and the bushy chain-4; one
   repeat) so CI gates stay fast, writes nothing, and gates each cached sequential
   run, uncapped, capped and bushy: a generous container-safe ceiling
   on its us_per_plan, and tight ones on its minor_words_per_plan and
   promoted_words_per_plan — allocation on one domain is a
   deterministic count, so it catches a slower candidate loop that the
   wall-clock ceiling would let through, and promotion catches a table
   that keeps young values alive, which allocates no more. *)

module T = Parqo.Tableau
module Cm = Parqo.Costmodel
module Stats = Parqo.Search_stats

let smoke = Common.smoke

(* minimum cached sequential throughput the smallest container should
   comfortably beat; the full run on a quiet machine is ~5x faster *)
let smoke_us_per_plan_ceiling = 30.

(* about 1.2x the cached sequential chain-5 smoke run's 63.1 minor
   words per plan when it was set; pricing each candidate's new
   operators from its own expansion and composing them into fresh
   vectors allocated 167.2 (169.1 as [Gc.quick_stat] counted it),
   building every candidate's join tree and eval before its cover test
   324.2, and pricing every candidate from scratch again (renumbering
   it, re-costing the materialized twin) 861.5, the last two as
   [Gc.quick_stat] counted them *)
let smoke_words_per_plan_ceiling = 76.

(* about 1.2x the capped cached sequential chain-5 smoke run's 28.2
   minor words per plan when it was set; the same steps back allocated
   61.6, 109.4, and 293.4 when every capped candidate was priced in
   full before its work was compared with the cap *)
let smoke_capped_words_per_plan_ceiling = 34.

(* about 1.2x the promoted words per plan of the same two runs, 1.60
   and 0.74 when they were set.  Tables that also pointed to each inner
   entry's young root operator and base descriptor promoted about twice
   as much, with minor words inside their gates *)
let smoke_promoted_per_plan_ceiling = 1.9
let smoke_capped_promoted_per_plan_ceiling = 0.9

(* about 1.2x the cached sequential bushy chain-4 smoke run's 67.6
   minor words and 2.55 promoted words per plan when they were set;
   pricing every bushy candidate from scratch, as the uncached run
   does, allocates 1262.5 and promotes 13.11 *)
let smoke_bushy_words_per_plan_ceiling = 81.
let smoke_bushy_promoted_per_plan_ceiling = 3.1

let plan_string (e : Cm.eval) = Parqo.Join_tree.to_string e.Cm.tree

(* the cached run's curve: one pooled row per width from 2 up to the
   host's cores (at least one, which a one-core host clamps to 1) *)
let pooled_domains =
  List.init (max 1 (Domain.recommended_domain_count () - 1)) (fun i -> i + 2)

type run = {
  workload : string;
  n_relations : int;
  bushy : bool;  (** searched over bushy trees *)
  capped : bool;  (** searched under the session's work cap *)
  plan_cache : bool;
  domains : int;
  wall_ms : float;
  speedup : float;  (** uncached wall / this wall *)
  plans_expanded : int;
  us_per_plan : float;
  minor_words_per_plan : float;
      (** coordinator-domain minor-heap words per costed plan *)
  promoted_words_per_plan : float;
      (** of those, words the coordinator's minor collections promoted *)
  entries : int;  (** shared pricing entries filled *)
}

let json_of_run r =
  Printf.sprintf
    "  {\"workload\": %S, \"n_relations\": %d, \"bushy\": %b, \
     \"capped\": %b, \"plan_cache\": %b, \"domains\": %d, \"wall_ms\": %.3f, \
     \"speedup\": %.3f, \"plans_expanded\": %d, \"us_per_plan\": %.3f, \
     \"minor_words_per_plan\": %.1f, \"promoted_words_per_plan\": %.2f, \
     \"entries\": %d}"
    r.workload r.n_relations r.bushy r.capped r.plan_cache r.domains
    r.wall_ms r.speedup r.plans_expanded r.us_per_plan r.minor_words_per_plan
    r.promoted_words_per_plan r.entries

let write_json path runs =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\"schema\": [\"workload\", \"n_relations\", \"bushy\", \"capped\", \
     \"plan_cache\", \"domains\", \"wall_ms\", \"speedup\", \
     \"plans_expanded\", \"us_per_plan\", \"minor_words_per_plan\", \
     \"promoted_words_per_plan\", \"entries\"],\n\
     \"cores\": %d,\n\"smoke\": %b,\n\"runs\": [\n%s\n]}\n"
    (Domain.recommended_domain_count ())
    smoke
    (String.concat ",\n" (List.map json_of_run runs));
  close_out oc

(* the E17 configuration: beam cap 8, parallel space *)
let optimize ?work_cap ~shape ~plan_cache ~domains env =
  let config = Parqo.Space.parallel_config env.Parqo.Env.machine in
  let metric = Parqo.Optimizer.default_metric env in
  Parqo.Podp.optimize ~shape ~config ~metric ~max_cover:8 ?work_cap ~domains
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

let time_run ?work_cap ~shape ~repeats ~plan_cache ~domains env =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to repeats do
    (* every search starts from an emptied minor heap *)
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    let r = optimize ?work_cap ~shape ~plan_cache ~domains env in
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
      "The bushy workload runs the same loop over bushy trees, uncapped.";
      (if smoke then "[smoke mode]" else "");
    ];
  let workloads =
    let bushy = (Parqo.Query_gen.Chain, 4, Parqo.Space.Bushy) in
    if smoke then [ (Parqo.Query_gen.Chain, 5, Parqo.Space.Left_deep); bushy ]
    else
      [
        (Parqo.Query_gen.Chain, 8, Parqo.Space.Left_deep);
        (Parqo.Query_gen.Star, 8, Parqo.Space.Left_deep);
        bushy;
      ]
  in
  let repeats = if smoke then 1 else 2 in
  let tbl =
    T.create ~title:"P18. PODP wall time, cached vs uncached costing"
      ~columns:
        [
          ("workload", T.Left);
          ("n", T.Right);
          ("tree", T.Left);
          ("cap", T.Left);
          ("cache", T.Left);
          ("domains", T.Right);
          ("wall ms", T.Right);
          ("speedup", T.Right);
          ("expanded", T.Right);
          ("us/plan", T.Right);
          ("words/plan", T.Right);
          ("promoted/plan", T.Right);
          ("entries", T.Right);
        ]
  in
  let runs = ref [] in
  (* the sequential runs of every workload, then the pooled ones; the
     capped pair runs on the left-deep workloads *)
  let sequential =
    List.map
      (fun (query, n, shape) ->
        let bushy = shape = Parqo.Space.Bushy in
        let name =
          Parqo.Query_gen.shape_to_string query ^ if bushy then "/bushy" else ""
        in
        let env = Common.shape_env ~nodes:4 query n in
        let time_run = time_run ~shape ~repeats in
        let off, off_ms = time_run ~plan_cache:false ~domains:1 env in
        let on, on_ms = time_run ~plan_cache:true ~domains:1 env in
        check_identical (name ^ "/cached") off on;
        let capped =
          if bushy then []
          else begin
            let work_cap = session_work_cap env in
            let coff, coff_ms =
              time_run ?work_cap ~plan_cache:false ~domains:1 env
            in
            let con, con_ms =
              time_run ?work_cap ~plan_cache:true ~domains:1 env
            in
            check_identical (name ^ "/capped/cached") coff con;
            [ (true, false, 1, coff, coff_ms); (true, true, 1, con, con_ms) ]
          end
        in
        (query, n, shape, name, env, off, off_ms, on, on_ms, capped))
      workloads
  in
  List.iter
    (fun (query, n, shape, name, env, off, off_ms, on, on_ms, capped) ->
      let capped_ms =
        match capped with (_, _, _, _, ms) :: _ -> ms | [] -> nan
      in
      let pooled =
        List.map
          (fun domains ->
            let r, ms =
              time_run ~shape ~repeats ~plan_cache:true ~domains env
            in
            check_identical (Printf.sprintf "%s/domains=%d" name domains) off r;
            (false, true, domains, r, ms))
          pooled_domains
      in
      List.iter
        (fun (capped, plan_cache, domains, r, wall_ms) ->
          let r : Parqo.Podp.result = r in
          let stats = r.Parqo.Podp.stats in
          let expanded = stats.Stats.generated in
          let per_plan x = x /. float_of_int (max 1 expanded) in
          let row =
            {
              workload = Parqo.Query_gen.shape_to_string query;
              n_relations = n;
              bushy = shape = Parqo.Space.Bushy;
              capped;
              plan_cache;
              domains;
              wall_ms;
              speedup = (if capped then capped_ms else off_ms) /. wall_ms;
              plans_expanded = expanded;
              us_per_plan = per_plan (wall_ms *. 1000.);
              minor_words_per_plan = per_plan stats.Stats.minor_words;
              promoted_words_per_plan = per_plan stats.Stats.promoted_words;
              entries = stats.Stats.entries;
            }
          in
          runs := row :: !runs;
          T.add_row tbl
            [
              row.workload;
              Common.celli n;
              (if row.bushy then "bushy" else "left-deep");
              (if capped then "2x" else "none");
              (if plan_cache then "on" else "off");
              Common.celli domains;
              Common.cell ~decimals:1 wall_ms;
              Common.cell ~decimals:2 row.speedup;
              Common.celli expanded;
              Common.cell ~decimals:2 row.us_per_plan;
              Common.cell ~decimals:1 row.minor_words_per_plan;
              Common.cell ~decimals:2 row.promoted_words_per_plan;
              Common.celli row.entries;
            ])
        ([ (false, false, 1, off, off_ms); (false, true, 1, on, on_ms) ]
        @ pooled @ capped))
    sequential;
  T.print tbl;
  Common.write_results "BENCH_cost.json"
    ~what:(Printf.sprintf "%d runs" (List.length !runs))
    (fun path -> write_json path (List.rev !runs));
  if smoke then
    List.iter
      (fun r ->
        if r.plan_cache && r.domains = 1 then begin
          let label =
            if r.bushy then "bushy cached"
            else if r.capped then "capped cached"
            else "cached"
          in
          if r.us_per_plan > smoke_us_per_plan_ceiling then
            failwith
              (Printf.sprintf
                 "E18 smoke: %s us_per_plan %.2f exceeds the %.0f ceiling \
                  — costing hot path regressed"
                 label r.us_per_plan smoke_us_per_plan_ceiling);
          let words_ceiling =
            if r.bushy then smoke_bushy_words_per_plan_ceiling
            else if r.capped then smoke_capped_words_per_plan_ceiling
            else smoke_words_per_plan_ceiling
          in
          if r.minor_words_per_plan > words_ceiling then
            failwith
              (Printf.sprintf
                 "E18 smoke: %s minor_words_per_plan %.1f exceeds the %.0f \
                  ceiling — costing hot path allocates more"
                 label r.minor_words_per_plan words_ceiling);
          let promoted_ceiling =
            if r.bushy then smoke_bushy_promoted_per_plan_ceiling
            else if r.capped then smoke_capped_promoted_per_plan_ceiling
            else smoke_promoted_per_plan_ceiling
          in
          if r.promoted_words_per_plan > promoted_ceiling then
            failwith
              (Printf.sprintf
                 "E18 smoke: %s promoted_words_per_plan %.2f exceeds the \
                  %.2f ceiling — the search keeps young values alive"
                 label r.promoted_words_per_plan promoted_ceiling)
        end)
      !runs
