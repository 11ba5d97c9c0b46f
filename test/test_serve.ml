(* The serving layer: dispositions partition every trace, admission
   control holds the in-flight cap, the plan cache is invisible except
   in speed (bit-identical plans), and an epoch bump makes post-bump
   lookups bit-identical to a fresh optimization against the new
   catalog. *)

module Server = Parqo_serve.Server
module Chaos = Parqo_serve.Chaos
module Cm = Parqo.Costmodel
module B = Parqo.Budget
module W = Parqo.Workloads

let t name f = Alcotest.test_case name `Quick f

let bits = Int64.bits_of_float

(* a small pool so each test stays fast; the capped budget bounds each
   real optimization *)
let small_pool ?(base_card = 1000.) () =
  W.serving_pool ~n_tables:4 ~max_relations:3 ~pool:8 ~base_card ~seed:5 ()

let machine = Parqo.Machine.shared_nothing ~nodes:4 ()

let fast_config =
  {
    Server.default_config with
    Server.budget = B.expansions 5_000;
    default_deadline = Some 10.;
    queue_cap = 64;
  }

let trace ?(n = 40) ?(rate = 100.) ?deadline pool =
  let rng = Parqo.Rng.create 13 in
  let arrivals = W.arrivals rng ~process:(W.Poisson rate) ~n in
  Server.requests rng ~pool ~arrivals ?deadline ()

let check_partition msg (r : Server.run_result) =
  let s = r.Server.stats in
  Alcotest.(check int)
    (msg ^ ": dispositions partition")
    s.Server.n_requests
    (s.Server.planned + s.Server.degraded + s.Server.rejected);
  Array.iter
    (fun (c : Server.completion) ->
      match (c.Server.disposition, c.Server.plan) with
      | (Server.Planned | Server.Degraded _), Some _ -> ()
      | Server.Rejected _, None -> ()
      | Server.Rejected _, Some _ ->
        Alcotest.failf "%s: rejected request %d carries a plan" msg
          c.Server.request.Server.id
      | _, None ->
        Alcotest.failf "%s: admitted request %d has no plan" msg
          c.Server.request.Server.id)
    r.Server.completions

let basics () =
  let catalog, pool = small_pool () in
  let server = Server.create ~config:fast_config ~machine ~catalog () in
  let r = Server.run server (trace pool) in
  check_partition "basics" r;
  let s = r.Server.stats in
  Alcotest.(check int) "nothing rejected at this load" 0 s.Server.rejected;
  Alcotest.(check bool) "pool repeats hit the cache" true
    (s.Server.cache_hits > 0);
  Alcotest.(check bool) "in-flight bounded" true
    (s.Server.max_in_flight <= fast_config.Server.queue_cap);
  Alcotest.(check bool) "throughput positive" true (s.Server.throughput_qps > 0.)

(* the cache is semantically invisible: a second pass over the same
   trace is all hits, with bit-identical plans *)
let warm_pass_identical () =
  let catalog, pool = small_pool () in
  let server = Server.create ~config:fast_config ~machine ~catalog () in
  let reqs = trace pool in
  let cold = Server.run server reqs in
  let warm = Server.run server reqs in
  check_partition "warm" warm;
  Array.iteri
    (fun i (c : Server.completion) ->
      let w = warm.Server.completions.(i) in
      Alcotest.(check bool) "warm pass is all cache hits" true w.Server.cache_hit;
      match (c.Server.plan, w.Server.plan) with
      | Some a, Some b ->
        Alcotest.(check string) "same tree"
          (Parqo.Join_tree.to_string a.Cm.tree)
          (Parqo.Join_tree.to_string b.Cm.tree);
        Alcotest.(check int64) "same response time bits"
          (bits a.Cm.response_time) (bits b.Cm.response_time);
        Alcotest.(check int64) "same work bits" (bits a.Cm.work) (bits b.Cm.work)
      | _ -> Alcotest.fail "missing plan")
    cold.Server.completions

(* property: after a catalog update (epoch bump), every lookup is
   bit-identical to a fresh optimization against the new catalog — no
   stale plan survives the bump *)
let epoch_bump_invalidates () =
  let catalog_a, pool = small_pool () in
  let catalog_b, pool_b = small_pool ~base_card:200. () in
  (* same seed, different statistics: the pools are the same queries *)
  Alcotest.(check int) "same pool" (Array.length pool) (Array.length pool_b);
  let reqs = trace pool in
  let server = Server.create ~config:fast_config ~machine ~catalog:catalog_a () in
  ignore (Server.run server reqs);
  let epoch0 = Server.epoch server in
  Server.update_catalog server catalog_b;
  Alcotest.(check int) "epoch bumped" (epoch0 + 1) (Server.epoch server);
  let after = Server.run server reqs in
  let fresh_server =
    Server.create ~config:fast_config ~machine ~catalog:catalog_b ()
  in
  let fresh = Server.run fresh_server reqs in
  check_partition "post-bump" after;
  Array.iteri
    (fun i (c : Server.completion) ->
      let f = fresh.Server.completions.(i) in
      match (c.Server.plan, f.Server.plan) with
      | Some a, Some b ->
        Alcotest.(check string) "post-bump tree = fresh tree"
          (Parqo.Join_tree.to_string b.Cm.tree)
          (Parqo.Join_tree.to_string a.Cm.tree);
        Alcotest.(check int64) "post-bump rt bits = fresh rt bits"
          (bits b.Cm.response_time) (bits a.Cm.response_time);
        Alcotest.(check int64) "post-bump work bits = fresh work bits"
          (bits b.Cm.work) (bits a.Cm.work)
      | _ -> Alcotest.fail "missing plan")
    after.Server.completions

(* a hopeless deadline degrades to the greedy plan — never an error *)
let hopeless_deadline_degrades () =
  let catalog, pool = small_pool () in
  let server = Server.create ~config:fast_config ~machine ~catalog () in
  let r = Server.run server (trace ~deadline:1e-9 pool) in
  check_partition "hopeless deadline" r;
  Alcotest.(check int) "nothing planned in time" 0 r.Server.stats.Server.planned;
  Array.iter
    (fun (c : Server.completion) ->
      match c.Server.disposition with
      | Server.Degraded _ | Server.Rejected _ -> ()
      | Server.Planned ->
        Alcotest.failf "request %d planned under a 1ns deadline"
          c.Server.request.Server.id)
    r.Server.completions

(* heavy poisoning exercises retry-with-backoff; the stream still
   terminates with every request accounted for *)
let chaos_poison_retries () =
  let catalog, pool = small_pool () in
  let config =
    {
      fast_config with
      Server.chaos =
        { (Chaos.default ~seed:2 ()) with Chaos.poison_rate = 0.6 };
    }
  in
  let server = Server.create ~config ~machine ~catalog () in
  let r = Server.run server (trace pool) in
  check_partition "poisoned" r;
  Alcotest.(check bool) "retries happened" true (r.Server.stats.Server.retries > 0)

(* chaos epoch bumps mid-stream: requests keep completing and the bump
   count is reported *)
let chaos_epoch_bumps () =
  let catalog, pool = small_pool () in
  let config =
    {
      fast_config with
      Server.chaos = { Chaos.none with Chaos.epoch_bump_every = 10 };
    }
  in
  let server = Server.create ~config ~machine ~catalog () in
  let r = Server.run server (trace ~n:40 pool) in
  check_partition "epoch chaos" r;
  Alcotest.(check bool) "bumps recorded" true
    (r.Server.stats.Server.epoch_bumps > 0);
  Alcotest.(check bool) "server epoch advanced" true (Server.epoch server > 0)

(* a tiny queue under a burst sheds load and the cap holds exactly *)
let burst_sheds () =
  let catalog, pool = small_pool () in
  let config = { fast_config with Server.queue_cap = 2; workers = 1 } in
  let server = Server.create ~config ~machine ~catalog () in
  let rng = Parqo.Rng.create 17 in
  let arrivals =
    W.arrivals rng ~process:(W.Burst { size = 20; period = 5. }) ~n:20
  in
  let reqs = Server.requests rng ~pool ~arrivals ~deadline:10. () in
  let r = Server.run server reqs in
  check_partition "burst" r;
  Alcotest.(check bool) "load was shed" true (r.Server.stats.Server.rejected > 0);
  Alcotest.(check bool) "cap held" true (r.Server.stats.Server.max_in_flight <= 2)

(* chaos draws are pure in (seed, request, attempt) *)
let chaos_deterministic () =
  let c = Chaos.default ~seed:9 () in
  for request = 0 to 50 do
    for attempt = 1 to 3 do
      let a = Chaos.draw c ~request ~attempt in
      let b = Chaos.draw c ~request ~attempt in
      Alcotest.(check bool) "replayed draw identical" true (a = b);
      if attempt > 1 then
        Alcotest.(check bool) "bumps only on first attempt" false
          a.Chaos.bump_epoch
    done
  done

let config_validation () =
  let catalog, _ = small_pool () in
  let bad = { Server.default_config with Server.queue_cap = 0 } in
  (match Server.create ~config:bad ~machine ~catalog () with
  | _ -> Alcotest.fail "invalid config accepted"
  | exception Parqo.Parqo_error.Error e ->
    Alcotest.(check string) "subsystem" "serve" e.Parqo.Parqo_error.subsystem);
  let bad_chaos =
    {
      Server.default_config with
      Server.chaos = { Chaos.none with Chaos.poison_rate = 1. };
    }
  in
  match Server.create ~config:bad_chaos ~machine ~catalog () with
  | _ -> Alcotest.fail "invalid chaos accepted"
  | exception Parqo.Parqo_error.Error e ->
    Alcotest.(check bool) "mentions poison" true
      (let needle = "poison_rate" and hay = e.Parqo.Parqo_error.message in
       let n = String.length needle and h = String.length hay in
       let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
       go 0)

(* regression: a machine-topology change must bump the epoch — a
   degraded-machine request never gets a pre-degrade cached plan
   (epochs used to bump on catalog changes only) *)
let machine_update_invalidates () =
  let catalog, pool = small_pool () in
  let reqs = trace pool in
  let server = Server.create ~config:fast_config ~machine ~catalog () in
  ignore (Server.run server reqs);
  let epoch0 = Server.epoch server in
  (* a structurally identical machine is not a topology change *)
  Server.update_machine server (Parqo.Machine.shared_nothing ~nodes:4 ());
  Alcotest.(check int) "no-op update leaves the epoch" epoch0
    (Server.epoch server);
  let degraded = Parqo.Machine.degrade machine ~down:[ 1; 5 ] in
  Server.update_machine server degraded;
  Alcotest.(check int) "degrade bumps the epoch" (epoch0 + 1)
    (Server.epoch server);
  let after = Server.run server reqs in
  check_partition "post-degrade" after;
  let fresh_server =
    Server.create ~config:fast_config ~machine:degraded ~catalog ()
  in
  let fresh = Server.run fresh_server reqs in
  Array.iteri
    (fun i (c : Server.completion) ->
      let f = fresh.Server.completions.(i) in
      match (c.Server.plan, f.Server.plan) with
      | Some a, Some b ->
        Alcotest.(check string) "post-degrade tree = fresh degraded tree"
          (Parqo.Join_tree.to_string b.Cm.tree)
          (Parqo.Join_tree.to_string a.Cm.tree);
        Alcotest.(check int64) "post-degrade rt bits"
          (bits b.Cm.response_time) (bits a.Cm.response_time);
        Alcotest.(check int64) "post-degrade work bits"
          (bits b.Cm.work) (bits a.Cm.work)
      | _ -> Alcotest.fail "missing plan")
    after.Server.completions

(* speed changes are topology changes too: a rescale or a grow must bump
   the epoch, and post-change plans are bit-identical to a fresh server
   built on the changed machine *)
let machine_speed_update_invalidates () =
  let catalog, pool = small_pool () in
  let reqs = trace ~n:16 pool in
  let check_against_fresh msg changed (after : Server.run_result) =
    let fresh_server =
      Server.create ~config:fast_config ~machine:changed ~catalog ()
    in
    let fresh = Server.run fresh_server reqs in
    Array.iteri
      (fun i (c : Server.completion) ->
        let f = fresh.Server.completions.(i) in
        match (c.Server.plan, f.Server.plan) with
        | Some a, Some b ->
          Alcotest.(check string) (msg ^ ": tree = fresh tree")
            (Parqo.Join_tree.to_string b.Cm.tree)
            (Parqo.Join_tree.to_string a.Cm.tree);
          Alcotest.(check int64) (msg ^ ": rt bits")
            (bits b.Cm.response_time) (bits a.Cm.response_time)
        | _ -> Alcotest.fail "missing plan")
      after.Server.completions
  in
  let server = Server.create ~config:fast_config ~machine ~catalog () in
  ignore (Server.run server reqs);
  let epoch0 = Server.epoch server in
  (* an all-nominal rescale leaves every speed in place: no bump *)
  let nominal =
    Parqo.Machine.rescale machine
      ~speeds:
        (List.init (Parqo.Machine.n_resources machine) (fun id -> (id, 1.0)))
  in
  Server.update_machine server nominal;
  Alcotest.(check int) "all-nominal rescale is a no-op" epoch0
    (Server.epoch server);
  (* a brownout rescale is a machine change *)
  let slow = Parqo.Machine.rescale machine ~speeds:[ (0, 0.25) ] in
  Server.update_machine server slow;
  Alcotest.(check int) "rescale bumps the epoch" (epoch0 + 1)
    (Server.epoch server);
  check_against_fresh "post-rescale" slow (Server.run server reqs);
  (* growth is a machine change too *)
  let grown =
    Parqo.Machine.grow ~speed:2. slow [ (Parqo.Resource.Cpu, "cpu-x", 0) ]
  in
  Server.update_machine server grown;
  Alcotest.(check int) "grow bumps the epoch" (epoch0 + 2)
    (Server.epoch server);
  check_against_fresh "post-grow" grown (Server.run server reqs)

(* chaos machine events drive the update_machine path mid-stream; the
   draws are pure, fire only on first attempts, and leave the poison/slow
   stream of the same seed untouched *)
let chaos_machine_events () =
  let catalog, pool = small_pool () in
  let c = { Chaos.none with Chaos.seed = 4; machine_event_rate = 0.9 } in
  for request = 0 to 30 do
    let a = Chaos.machine_draw c ~request ~attempt:1 ~n_resources:9 in
    let b = Chaos.machine_draw c ~request ~attempt:1 ~n_resources:9 in
    Alcotest.(check bool) "machine draw pure" true (a = b);
    Alcotest.(check bool) "only on the first attempt" true
      (Chaos.machine_draw c ~request ~attempt:2 ~n_resources:9 = None)
  done;
  (* enabling machine events must not disturb the poison/slow stream *)
  let loud =
    { (Chaos.default ~seed:4 ()) with Chaos.machine_event_rate = 0.9 }
  in
  let quiet = { loud with Chaos.machine_event_rate = 0. } in
  for request = 0 to 30 do
    Alcotest.(check bool) "poison/slow trace preserved" true
      (Chaos.draw loud ~request ~attempt:1 = Chaos.draw quiet ~request ~attempt:1)
  done;
  (match Chaos.validate { c with Chaos.machine_event_rate = 1.5 } with
  | Ok () -> Alcotest.fail "invalid machine_event_rate accepted"
  | Error _ -> ());
  let config = { fast_config with Server.chaos = c } in
  let server = Server.create ~config ~machine ~catalog () in
  let r = Server.run server (trace ~n:40 pool) in
  check_partition "machine chaos" r;
  Alcotest.(check bool) "machine events applied" true
    (r.Server.stats.Server.machine_events > 0);
  Alcotest.(check bool) "epoch advanced with the machine" true
    (Server.epoch server > 0)

(* regression: one persistent pool serves every request — warm requests
   spawn no domains (spawning happens at pool creation, once), and the
   pooled plans are bit-identical to pool-less serving — on a forced
   2-domain pool and on the pool clamped to the machine's cores that
   [serve] itself creates *)
let shared_pool_no_respawn with_pool () =
  let catalog, pool = small_pool () in
  let reqs = trace ~n:12 pool in
  let baseline =
    let server = Server.create ~config:fast_config ~machine ~catalog () in
    Server.run server reqs
  in
  with_pool 2 (fun dp ->
      let spawned_at_create = (Parqo.Domain_pool.stats dp).Parqo.Domain_pool.spawned in
      Alcotest.(check int) "pool spawns at create"
        (Parqo.Domain_pool.width dp - 1)
        spawned_at_create;
      let server = Server.create ~config:fast_config ~pool:dp ~machine ~catalog () in
      let before = Parqo.Domain_pool.stats dp in
      let r = Server.run server reqs in
      let diff =
        Parqo.Domain_pool.diff_stats before (Parqo.Domain_pool.stats dp)
      in
      (* the Search_stats.spawned of every warm request is this diff:
         zero — requests reuse the pool's workers *)
      Alcotest.(check int) "warm requests spawn nothing" 0
        diff.Parqo.Domain_pool.spawned;
      Alcotest.(check bool) "the pool actually ran regions" true
        (diff.Parqo.Domain_pool.parallel_runs + diff.Parqo.Domain_pool.sequential_runs > 0);
      check_partition "pooled" r;
      Array.iteri
        (fun i (c : Server.completion) ->
          let b = baseline.Server.completions.(i) in
          match (c.Server.plan, b.Server.plan) with
          | Some p, Some q ->
            Alcotest.(check string) "pooled tree = pool-less tree"
              (Parqo.Join_tree.to_string q.Cm.tree)
              (Parqo.Join_tree.to_string p.Cm.tree);
            Alcotest.(check int64) "pooled rt bits"
              (bits q.Cm.response_time) (bits p.Cm.response_time)
          | _ -> Alcotest.fail "missing plan")
        r.Server.completions)

(* property (regression): burst streams emit tied arrivals; serving must
   be reproducible however the caller ordered the trace — ties break by
   request id *)
let burst_tie_order_deterministic () =
  let catalog, pool = small_pool () in
  let rng = Parqo.Rng.create 23 in
  let arrivals =
    W.arrivals rng ~process:(W.Burst { size = 8; period = 0.5 }) ~n:24
  in
  let reqs = Server.requests rng ~pool ~arrivals ~deadline:10. () in
  (* service times are real measured optimizer seconds, so latencies are
     not replayable — the property is that the served order and every
     order-dependent outcome (cache warm-up pattern, dispositions) are *)
  let serve order =
    let server = Server.create ~config:fast_config ~machine ~catalog () in
    let r = Server.run server order in
    Array.map
      (fun (c : Server.completion) ->
        ( ( c.Server.request.Server.id,
            Server.disposition_label c.Server.disposition ),
          (c.Server.cache_hit, c.Server.fingerprint) ))
      r.Server.completions
  in
  let reference = serve reqs in
  for shuffle = 1 to 4 do
    let shuffled = Array.copy reqs in
    Parqo.Rng.shuffle rng shuffled;
    Alcotest.(check (array (pair (pair int string) (pair bool string))))
      (Printf.sprintf "shuffle %d serves identically" shuffle)
      reference (serve shuffled)
  done

let suite =
  ( "serve",
    [
      t "basics" basics;
      t "warm pass is all hits, bit-identical" warm_pass_identical;
      t "epoch bump = fresh optimization" epoch_bump_invalidates;
      t "machine change bumps the epoch" machine_update_invalidates;
      t "speed change bumps the epoch" machine_speed_update_invalidates;
      t "chaos machine events" chaos_machine_events;
      t "shared pool: warm requests spawn nothing"
        (shared_pool_no_respawn Helpers.with_forced_pool);
      t "clamped pool: warm requests spawn nothing"
        (shared_pool_no_respawn Helpers.with_clamped_pool);
      t "burst ties serve deterministically" burst_tie_order_deterministic;
      t "hopeless deadline degrades" hopeless_deadline_degrades;
      t "poisoned requests retry" chaos_poison_retries;
      t "chaos epoch bumps" chaos_epoch_bumps;
      t "burst sheds load, cap holds" burst_sheds;
      t "chaos draws deterministic" chaos_deterministic;
      t "config validation" config_validation;
    ] )
