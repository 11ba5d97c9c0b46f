(* The seeded inputs of every workload.  The same seed gives the same
   inputs; each workload fixes its mix of cost classes and lets the
   seed choose only the members, orders and arrival times, so figures
   from different seeds measure the same mix. *)

module Q = Parqo.Query
module QG = Parqo.Query_gen
module Rng = Parqo.Rng

(* The session default: a 4-node shared-nothing machine. *)
let machine = Parqo.Machine.shared_nothing ~nodes:4 ()

(* ---- optimize -------------------------------------------------------- *)

type gen = Random | Shape of QG.shape

type opt_op = { label : string; catalog : Parqo.Catalog.t; sql : string }

(* One block of the op list.  Search time jumps with the number of
   relations and of join edges, so the mix keeps each reported
   percentile inside one cost class.  Sorted by search time on a 2-vCPU
   2.1 GHz Xeon, a block is 6 light ops (3 relations, 2 edges: 20-60 ms),
   10 middle ones (3 relations, 3 edges: 60-130 ms) and 4 chain-4s
   (220-340 ms): p50 falls inside the middle class and p90 mid-way
   through the chain-4s.  Join graphs from [Query_gen.random]
   appear only among the light ops: at 4 relations their search time
   varies fourfold with the drawn graph, which would move p90 and the
   throughput from seed to seed.  Every fourth entry asks for an
   ORDER BY. *)
let optimize_block =
  [
    (Shape QG.Chain, 3); (Shape QG.Star, 3); (Random, 3);
    (Shape QG.Chain, 3); (Shape QG.Star, 3); (Shape QG.Chain, 3);
    (Shape QG.Cycle, 3); (Shape QG.Clique, 3); (Shape QG.Cycle, 3); (Shape QG.Clique, 3);
    (Shape QG.Cycle, 3); (Shape QG.Clique, 3); (Shape QG.Cycle, 3); (Shape QG.Clique, 3);
    (Shape QG.Cycle, 3); (Shape QG.Clique, 3);
    (Shape QG.Chain, 4); (Shape QG.Chain, 4); (Shape QG.Chain, 4); (Shape QG.Chain, 4);
  ]

let log_uniform rng lo hi = lo *. exp (Rng.float rng (log (hi /. lo)))

let gen_query rng (g, n) =
  match g with
  | Random -> QG.random rng ~n ()
  | Shape shape ->
    QG.generate
      {
        (QG.default_spec shape n) with
        QG.base_card = log_uniform rng 700. 1400.;
        card_skew = 0.4 +. Rng.float rng 0.2;
        distinct_fraction = 0.08 +. Rng.float rng 0.04;
      }

let opt_op rng i ((g, n) as kind) =
  let catalog, q = gen_query rng kind in
  let order_by = i mod 4 = 0 && q.Q.joins <> [] in
  let sql =
    if not order_by then Q.to_sql q
    else
      let j = List.hd q.Q.joins in
      Printf.sprintf "%s ORDER BY %s.%s" (Q.to_sql q) (Q.alias q j.Q.left.Q.rel)
        j.Q.left.Q.column
  in
  let name = match g with Random -> "random" | Shape s -> QG.shape_to_string s in
  {
    label = Printf.sprintf "%s-%d%s" name n (if order_by then "+order" else "");
    catalog;
    sql;
  }

(* [blocks] blocks, each a seeded shuffle of [optimize_block]. *)
let optimize_ops ~seed ~blocks =
  let rng = Rng.create seed in
  Array.concat
    (List.init blocks (fun _ ->
         let ops = Array.of_list (List.mapi (opt_op rng) optimize_block) in
         Rng.shuffle rng ops;
         ops))

(* The warm-up prefix: a short seeded run of light and heavy ops,
   optimized untimed during set-up. *)
let optimize_warmup ~seed =
  let rng = Rng.create (seed lxor 0x5eed) in
  Array.of_list
    (List.mapi (opt_op rng)
       [ (Shape QG.Chain, 3); (Random, 3); (Shape QG.Cycle, 3); (Shape QG.Clique, 3);
         (Shape QG.Chain, 4); (Shape QG.Chain, 4); (Shape QG.Star, 4) ])

(* ---- serve ----------------------------------------------------------- *)

(* The serving population is fixed (the pool of seed 7); the seed draws
   the stream over it. *)
let serve_pool () = Parqo.Workloads.serving_pool ~seed:7 ()

(* The whole pool's 2- and 3-relation queries appear in every segment,
   so a segment's answers do not depend on the seed's draws. *)
let serve_twos = 9
let serve_threes = 8
let serve_segment = serve_twos + (2 * serve_threes) + 1
let serve_rate = 2.0

(* 200 ms sits in the gap between a 3-relation search's last budget
   check (at most ~100 ms in, before its single top-level subset) and
   its end (190-460 ms on a 2-vCPU 2.1 GHz Xeon): 2-relation searches
   (16-36 ms) finish in time, 3-relation ones finish planned but late
   because the budget cannot interrupt their top level, and 4-relation
   ones (2-2.5 s in full) always degrade. *)
let serve_deadline = 0.2
let serve_queue_cap = 32

(* Distinct-fingerprint members of the pool with [k] relations, in pool
   order. *)
let pool_class pool k =
  let seen = Hashtbl.create 16 in
  Array.to_list pool
  |> List.filter (fun q ->
         Q.n_relations q = k
         && (not (Hashtbl.mem seen (Q.fingerprint q)))
         && (Hashtbl.add seen (Q.fingerprint q) (); true))
  |> Array.of_list

(* Each segment: every 2- and 3-relation query of the pool once, in a
   seeded order, a repeat of each 3-relation query placed after its
   first occurrence (a cache hit), then one seeded 4-relation request.
   A catalog epoch bump lands on that last request (the chaos rule bumps
   request ids congruent to [serve_segment - 1]), so every segment
   starts from a cold cache and hits and misses keep fixed counts.
   Sorted by latency a segment is 8 hits (no search), 9 short misses
   (2 relations), one degraded 4-relation request and 8 long misses (3
   relations): p50 falls mid-way through the short misses and p90 mid-way
   through the long ones. *)
let serve_stream ~seed ~segments pool =
  let twos = pool_class pool 2 and threes = pool_class pool 3
  and fours = pool_class pool 4 in
  if
    Array.length twos <> serve_twos || Array.length threes <> serve_threes
    || Array.length fours = 0
  then invalid_arg "Oplist.serve_stream: the pool's size classes changed";
  let rng = Rng.create seed in
  let queries =
    List.init segments (fun _ ->
        let seq = ref (Array.append twos threes) in
        Rng.shuffle rng !seq;
        Array.iter
          (fun q ->
            let arr = !seq in
            let len = Array.length arr in
            let first = ref 0 in
            Array.iteri (fun i x -> if x == q then first := i) arr;
            let at = !first + 1 + Rng.int rng (len - !first) in
            seq :=
              Array.concat [ Array.sub arr 0 at; [| q |]; Array.sub arr at (len - at) ])
          threes;
        Array.to_list !seq @ [ Rng.pick rng fours ])
    |> List.concat |> Array.of_list
  in
  let arrivals =
    Parqo.Workloads.arrivals rng
      ~process:(Parqo.Workloads.Poisson serve_rate)
      ~n:(Array.length queries)
  in
  Array.mapi
    (fun i q ->
      { Parqo_serve.Server.id = i; arrival = arrivals.(i); query = q;
        deadline = Some serve_deadline })
    queries

(* ---- simulate -------------------------------------------------------- *)

let sim_jobs = 40
let sim_replays = 3

type batch = {
  plans : int array;  (** pooled plan per job *)
  arrivals : float array;  (** unit-rate Poisson; scaled at run time *)
  priorities : int array;
  policy : Parqo.Scheduler.policy;
  brownouts : (float * float * int) list;
      (** (onset, end) as fractions of the arrival horizon, resource *)
  replay : int array;  (** jobs replayed alone under faults *)
  fault_seed : int;
}

let simulate_batches ~seed ~n_plans ~count =
  let rng = Rng.create seed in
  let n_resources = Parqo.Machine.n_resources machine in
  let policies = Array.of_list Parqo.Scheduler.all_policies in
  Array.init count (fun i ->
      let plans = Array.init sim_jobs (fun _ -> Rng.int rng n_plans) in
      let arrivals =
        Parqo.Workloads.arrivals rng ~process:(Parqo.Workloads.Poisson 1.)
          ~n:sim_jobs
      in
      let priorities = Array.init sim_jobs (fun _ -> Rng.int rng 3) in
      let brownouts =
        List.init 2 (fun _ ->
            let at = Rng.float rng 0.5 in
            (at, at +. 0.1 +. Rng.float rng 0.3, Rng.int rng n_resources))
      in
      let replay = Array.init sim_replays (fun _ -> Rng.int rng sim_jobs) in
      {
        plans;
        arrivals;
        priorities;
        policy = policies.(i mod Array.length policies);
        brownouts;
        replay;
        fault_seed = Rng.int rng 1_000_000;
      })

(* ---- execute --------------------------------------------------------- *)

(* [rounds] rounds over [n] prepared queries, each round a seeded
   shuffle, so every query runs equally often. *)
let execute_order ~seed ~rounds ~n =
  let rng = Rng.create seed in
  Array.concat
    (List.init rounds (fun _ ->
         let a = Array.init n Fun.id in
         Rng.shuffle rng a;
         a))
