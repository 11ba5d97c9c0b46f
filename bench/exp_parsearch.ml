(* E17 / E21 — domain-parallel partial-order DP search (the §6 hot path).

   Sweeps the PODP search over requested domains ∈ {1, 2, 4, 8} on
   generated workloads, with ONE persistent worker pool per domain count
   reused across all repeats — the pool spawns its workers once, parks
   them between level regions, and the JSON records how many domains
   were actually spawned and used (the pool clamps to the core count by
   default, so requested and effective domains can differ).

   The headline column is OVERHEAD = wall(d) / wall(1): the price of
   running the parallel machinery at all.  On a single-core box the
   clamp makes every run effectively sequential, so overhead measures
   pure coordination cost and must stay ≤ 1.05×; on a multicore box the
   same column doubles as 1/speedup.  Every parallel run is verified
   bit-identical to the sequential one (same best plan, cover, level
   sizes, and plans_expanded — the deterministic merge contract).

   PARQO_SMOKE=1 shrinks the sweep (one small workload, domains
   {1, 2, 4}, 15 interleaved repeats), writes nothing and gates CI:
   overhead at every domain count must stay ≤ 1.3× (looser than the
   full-run bound because the smoke workload's runtime is milliseconds,
   where constant costs loom large), and where the pool runs two or
   more domains it must stay ≤ 0.9×, a real speedup.  Violations fail
   the process loudly.

   Each workload first runs untimed on its widest pool for
   [warm_up_seconds], so the timed blocks start on a host whose cores
   are already busy. *)

module T = Parqo.Tableau
module Cm = Parqo.Costmodel
module Stats = Parqo.Search_stats
module Pool = Parqo.Domain_pool

let smoke = Common.smoke

(* the smoke bound is asserted in CI; the full-run bound documents the
   acceptance criterion and is asserted when regenerating the JSON *)
let overhead_limit = if smoke then 1.3 else 1.05

(* On a host where the pool really runs two or more domains, the smoke
   run must also show a speedup: overhead at most this.  Chain-5 reads
   0.51-0.55 on a 2-vCPU host with 15 interleaved repeats; a pool whose
   regions run one chunk at a time reads 1.03-1.06, and one that runs
   every region on the calling domain reads about 1. *)
let multicore_overhead_limit = 0.9

let plan_string (e : Cm.eval) = Parqo.Join_tree.to_string e.Cm.tree

type run = {
  workload : string;
  n_relations : int;
  domains : int;  (* requested *)
  effective_domains : int;  (* pool width after the core-count clamp *)
  spawned : int;  (* worker domains the pool actually created *)
  wall_ms : float;
  overhead : float;  (* wall(d) / wall(1): ≤ 1 means speedup *)
  speedup : float;
  plans_expanded : int;
  levels : Stats.level list;  (* per-level wall time and domain use *)
}

let json_of_level (l : Stats.level) =
  Printf.sprintf "{\"level\": %d, \"wall_ms\": %.3f, \"domains\": %d}"
    l.Stats.level l.Stats.wall_ms l.Stats.domains

let json_of_run r =
  Printf.sprintf
    "  {\"workload\": %S, \"n_relations\": %d, \"domains\": %d, \
     \"effective_domains\": %d, \"spawned\": %d, \"wall_ms\": %.3f, \
     \"overhead\": %.3f, \"speedup\": %.3f, \"plans_expanded\": %d, \
     \"levels\": [%s]}"
    r.workload r.n_relations r.domains r.effective_domains r.spawned r.wall_ms
    r.overhead r.speedup r.plans_expanded
    (String.concat ", " (List.map json_of_level r.levels))

let write_json path runs =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
     \"schema\": [\"workload\", \"n_relations\", \"domains\", \
     \"effective_domains\", \"spawned\", \"wall_ms\", \"overhead\", \
     \"speedup\", \"plans_expanded\", \"levels\"],\n\
     \"machine\": %s,\n\"smoke\": %b,\n\"overhead_limit\": %.2f,\n\"runs\": [\n%s\n]}\n"
    (Common.machine_json ()) smoke overhead_limit
    (String.concat ",\n" (List.map json_of_run runs));
  close_out oc

(* beam cap 8: the sweep measures the level loop's scaling, not cover
   growth; the cap keeps one run in the seconds at n = 8 *)
let optimize ~pool env =
  let config = Parqo.Space.parallel_config env.Parqo.Env.machine in
  let metric = Parqo.Optimizer.default_metric env in
  Parqo.Podp.optimize ~config ~metric ~max_cover:8 ~pool env

let check_identical name (base : Parqo.Podp.result) (r : Parqo.Podp.result) =
  let plan_of (res : Parqo.Podp.result) =
    match res.Parqo.Podp.best with Some e -> plan_string e | None -> "<none>"
  in
  let same_best = String.equal (plan_of base) (plan_of r) in
  let same_cover =
    List.length base.Parqo.Podp.cover = List.length r.Parqo.Podp.cover
    && List.for_all2
         (fun a b -> String.equal (plan_string a) (plan_string b))
         base.Parqo.Podp.cover r.Parqo.Podp.cover
  in
  let same_levels = base.Parqo.Podp.level_sizes = r.Parqo.Podp.level_sizes in
  let same_expanded =
    base.Parqo.Podp.stats.Stats.generated = r.Parqo.Podp.stats.Stats.generated
  in
  if not (same_best && same_cover && same_levels && same_expanded) then
    failwith
      (Printf.sprintf
         "E17: %s parallel result diverged from sequential (best %b cover %b \
          levels %b expanded %b)"
         name same_best same_cover same_levels same_expanded)

(* A host that has been idle runs its first seconds of work slowly: on
   a 2-vCPU host, after a 45 s pause, chain-5's first blocks read 1.5-2x
   their warm times, and its 2-domain block 68-86 ms against a 42-48 ms
   sequential baseline.  Warming every core first keeps that out of the
   ratios the gate reads. *)
let warm_up_seconds = 2.

let warm_up ~domains env =
  Pool.with_pool ~domains (fun pool ->
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < warm_up_seconds do
        ignore (optimize ~pool env)
      done)

(* all repeats share [pool]: worker spawn cost is paid once at pool
   creation, which is the production shape (serve reuses one pool per
   process) and what the min-over-repeats should measure *)
let time_once ~pool env =
  let t0 = Unix.gettimeofday () in
  let r = optimize ~pool env in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

(* Overhead is a ratio of ~second-scale wall clocks on a possibly noisy
   host, so the baseline is NOT measured once up front: machine drift
   (thermal, neighbours) over a minutes-long sweep easily exceeds the
   5% bound being asserted.  Instead each domain count's repeats are
   interleaved with fresh baseline runs on a persistent domains=1 pool,
   and overhead = min(parallel) / min(paired baseline) — the drift hits
   both sides of the ratio. *)
let time_paired ~repeats ~base_pool ~pool env =
  let best_b = ref infinity and best_d = ref infinity in
  let result = ref None in
  let baseline () =
    let _, db = time_once ~pool:base_pool env in
    if db < !best_b then best_b := db
  in
  for i = 1 to repeats do
    (* alternate which side runs first, so neither always runs right
       after the other's allocation *)
    if i land 1 = 1 then baseline ();
    let r, dd = time_once ~pool env in
    if dd < !best_d then best_d := dd;
    result := Some r;
    if i land 1 = 0 then baseline ()
  done;
  (Option.get !result, !best_d, !best_b)

let run () =
  Common.header "E17 — domain-parallel partial-order DP search"
    [
      "PODP level loop partitioned across a persistent OCaml 5 domain pool;";
      "workers spawned once, parked between levels, chunked work claiming.";
      "Wall-clock = min over repeats on one reused pool per domain count;";
      "every parallel run is checked bit-identical to the sequential one.";
      (Printf.sprintf "cores available: %d%s"
         (Domain.recommended_domain_count ())
         (if smoke then "  [smoke mode]" else ""));
    ];
  let workloads =
    if smoke then [ (Parqo.Query_gen.Chain, 5) ]
    else [ (Parqo.Query_gen.Chain, 8); (Parqo.Query_gen.Star, 8) ]
  in
  let domain_counts = if smoke then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let repeats = if smoke then 15 else 2 in
  let tbl =
    T.create ~title:"P17. PODP wall time vs domains"
      ~columns:
        [
          ("workload", T.Left);
          ("n", T.Right);
          ("domains", T.Right);
          ("eff", T.Right);
          ("wall ms", T.Right);
          ("overhead", T.Right);
          ("speedup", T.Right);
          ("expanded", T.Right);
        ]
  in
  let runs = ref [] in
  let violations = ref [] in
  List.iter
    (fun (shape, n) ->
      let name = Parqo.Query_gen.shape_to_string shape in
      let env = Common.shape_env ~nodes:4 shape n in
      warm_up ~domains:(List.fold_left max 1 domain_counts) env;
      Pool.with_pool ~domains:1 (fun base_pool ->
      let base_r = ref None in
      List.iter
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              let r, wall_ms, base_ms =
                if domains = 1 then
                  (* the d=1 row: one timed run per repeat, paired with
                     itself — overhead is 1 by construction *)
                  let best = ref infinity and result = ref None in
                  for _ = 1 to repeats do
                    let r, dt = time_once ~pool env in
                    if dt < !best then best := dt;
                    result := Some r
                  done;
                  (Option.get !result, !best, !best)
                else time_paired ~repeats ~base_pool ~pool env
              in
              (match !base_r with
               | None -> base_r := Some r
               | Some b -> check_identical name b r);
              let overhead = wall_ms /. base_ms in
              if domains > 1 && overhead > overhead_limit then
                violations :=
                  Printf.sprintf "%s-%d domains=%d overhead %.3f > %.2f" name n
                    domains overhead overhead_limit
                  :: !violations;
              if smoke && Pool.width pool > 1 && overhead > multicore_overhead_limit then
                violations :=
                  Printf.sprintf "%s-%d domains=%d on %d domains: overhead %.3f > %.2f, no speedup"
                    name n domains (Pool.width pool) overhead multicore_overhead_limit
                  :: !violations;
              let row =
                {
                  workload = name;
                  n_relations = n;
                  domains;
                  effective_domains = Pool.width pool;
                  spawned = (Pool.stats pool).Pool.spawned;
                  wall_ms;
                  overhead;
                  speedup = base_ms /. wall_ms;
                  plans_expanded = r.Parqo.Podp.stats.Stats.generated;
                  levels = Stats.levels r.Parqo.Podp.stats;
                }
              in
              runs := row :: !runs;
              T.add_row tbl
                [
                  name;
                  Common.celli n;
                  Common.celli domains;
                  Common.celli row.effective_domains;
                  Common.cell ~decimals:1 wall_ms;
                  Common.cell ~decimals:2 overhead;
                  Common.cell ~decimals:2 row.speedup;
                  Common.celli row.plans_expanded;
                ]))
        domain_counts))
    workloads;
  T.print tbl;
  Common.write_results "BENCH_search.json"
    ~what:(Printf.sprintf "%d runs" (List.length !runs))
    (fun path -> write_json path (List.rev !runs));
  match !violations with
  | [] -> ()
  | v ->
    (* the gate CI relies on: parallel machinery must be near-free,
       and must pay off where there are cores to use *)
    List.iter (Printf.eprintf "E17 OVERHEAD VIOLATION: %s\n") (List.rev v);
    failwith (Printf.sprintf "E17: %d run(s) over an overhead limit" (List.length v))
