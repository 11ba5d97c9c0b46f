(* serve: the optimizer as a service, in an open loop at one fixed
   Poisson rate below saturation.  [Server.run] serves a seeded stream
   over [Workloads.serving_pool] with per-request deadlines and a
   catalog epoch bump per segment, one segment per call, on servers
   sharing one [Domain_pool] of [nproc] domains.  It is the only
   workload with plan-cache reads beside epoch-invalidation writes,
   admission control, deadline -> budget -> greedy degradation, and
   pooled parallel search.  Latency runs from each request's arrival on
   the server's virtual clock. *)

open Common
module S = Parqo_serve.Server
module Q = Parqo.Query

let name = "serve"

(* The stream is served three times over, a whole pass at a time, and
   each request's latency is its fastest pass.  Each pass serves every
   segment on a fresh server, so each pass has its own queue history; at
   2 requests per second the queue is nearly always empty, and a
   request's latency is its own search. *)
let passes = 3

(* About 3.1 s of real search per segment of 26 requests on a 2-vCPU
   2.1 GHz Xeon; at least 4 segments keep ten requests above p90. *)
let segments_for seconds = blocks ~seconds ~passes ~per:3.1 ~min:4

type state = {
  catalog : Parqo.Catalog.t;
  stream : S.request array;
  pool : Parqo.Domain_pool.t;
  reference : (string, signature) Hashtbl.t;
      (** offline plan per fingerprint, for the planned-equals-offline
          check; filled after the timed pass *)
  mutable last : S.completion array option;  (** of the last run, for the trace file *)
}

let server_config =
  {
    S.default_config with
    S.queue_cap = Oplist.serve_queue_cap;
    default_deadline = Some Oplist.serve_deadline;
    chaos =
      { Parqo_serve.Chaos.none with Parqo_serve.Chaos.epoch_bump_every = Oplist.serve_segment };
  }

(* What [Server] plans for a query with no deadline: the same search,
   unbudgeted and without a pool (pooled plans are bit-identical). *)
let offline catalog query =
  match optimize ~catalog query with
  | _, { O.best = Some plan; _ } -> signature plan
  | _ -> failwith ("no offline plan for " ^ Q.to_sql query)

let serve span st =
  let server =
    S.create ~config:server_config ~pool:st.pool ~machine:Oplist.machine ~catalog:st.catalog ()
  in
  Span.record span "Server.run" (fun () -> S.run server st.stream)

let setup ~seed ~seconds _span =
  let catalog, pool_queries = Oplist.serve_pool () in
  let stream = Oplist.serve_stream ~seed ~segments:(segments_for seconds) pool_queries in
  let pool = Parqo.Domain_pool.create ~domains:nproc () in
  let st = { catalog; stream; pool; reference = Hashtbl.create 32; last = None } in
  (* warm-up, untimed on its own server: every 2-relation query and two
     3-relation ones *)
  let warm =
    Array.append (Oplist.pool_class pool_queries 2)
      (Array.sub (Oplist.pool_class pool_queries 3) 0 2)
    |> Array.mapi (fun i q ->
           { S.id = i; arrival = float_of_int i; query = q; deadline = None })
  in
  ignore (serve Span.disabled { st with stream = warm });
  st

let release st = Parqo.Domain_pool.shutdown st.pool

let is_rejected (c : S.completion) =
  match c.S.disposition with S.Rejected _ -> true | _ -> false

let is_degraded (c : S.completion) =
  match c.S.disposition with S.Degraded _ -> true | _ -> false
let service (c : S.completion) = c.S.finished -. c.S.started
let wait (c : S.completion) = c.S.started -. c.S.request.S.arrival

let late_by (c : S.completion) =
  Float.max 0. (c.S.finished -. (c.S.request.S.arrival +. Oplist.serve_deadline))

(* Misses whose fingerprint another miss was already searching when they
   started: what single-flight coalescing would absorb. *)
let coalescable (cs : S.completion array) =
  let misses =
    List.filter (fun c -> (not c.S.cache_hit) && not (is_rejected c)) (Array.to_list cs)
  in
  List.length
    (List.filter
       (fun c ->
         List.exists
           (fun o ->
             o != c && o.S.fingerprint = c.S.fingerprint && o.S.started <= c.S.started
             && c.S.started < o.S.finished)
           misses)
       misses)

(* The problems of one run of [st.stream], with the request ids they
   concern: the dispositions, counted from the completions, must match
   the server's counts; every request must complete exactly once;
   admitted requests carry a plan and rejected ones none; in-flight
   requests stay within the queue cap; and a fully planned request gets
   the offline plan of its query. *)
let check st (r : S.run_result) =
  let n = Array.length st.stream in
  let probs = ref [] in
  let bad i msg = probs := (i, msg) :: !probs in
  let index = Hashtbl.create n in
  Array.iteri (fun i (q : S.request) -> Hashtbl.replace index q.S.id i) st.stream;
  let seen = Array.make n 0 in
  let planned = ref 0 and degraded = ref 0 and rejected = ref 0 in
  Array.iter
    (fun (c : S.completion) ->
      let id = c.S.request.S.id in
      match Hashtbl.find_opt index id with
      | None -> bad (-1) (Printf.sprintf "completion for unknown request %d" id)
      | Some i -> begin
        seen.(i) <- seen.(i) + 1;
        match (c.S.disposition, c.S.plan) with
        | S.Rejected _, None -> incr rejected
        | S.Rejected _, Some _ ->
          incr rejected;
          bad id (Printf.sprintf "request %d rejected with a plan" id)
        | S.Planned, None | S.Degraded _, None ->
          bad id (Printf.sprintf "request %d admitted without a plan" id)
        | S.Degraded _, Some _ -> incr degraded
        | S.Planned, Some p ->
          incr planned;
          let expect =
            match Hashtbl.find_opt st.reference c.S.fingerprint with
            | Some sg -> sg
            | None ->
              let sg = offline st.catalog c.S.request.S.query in
              Hashtbl.replace st.reference c.S.fingerprint sg;
              sg
          in
          if signature p <> expect then
            bad id (Printf.sprintf "request %d: planned plan differs from offline" id)
      end)
    r.S.completions;
  Array.iteri
    (fun i k ->
      let id = st.stream.(i).S.id in
      if k <> 1 then bad id (Printf.sprintf "request %d completed %d times" id k))
    seen;
  let s = r.S.stats in
  if (!planned, !degraded, !rejected) <> (s.S.planned, s.S.degraded, s.S.rejected) then
    bad (-1)
      (Printf.sprintf "dispositions %d/%d/%d, server counts %d/%d/%d" !planned !degraded
         !rejected s.S.planned s.S.degraded s.S.rejected);
  if s.S.max_in_flight > server_config.S.queue_cap then
    bad (-1) (Printf.sprintf "max in flight %d exceeds the queue cap" s.S.max_in_flight);
  List.rev !probs

(* Each segment is one [Server.run] on a fresh server; a segment starts
   from a cold cache either way, as the epoch bump lands on its last
   request.  [Server.run] is one call, so nothing can run between its
   requests: [host_samples] kernel runs between segments give the
   host's slowness around each segment, which scales its latencies.
   A full collection first settles the heap a segment leaves behind,
   which would otherwise slow the first kernel runs after it. *)
let host_samples = 40

let host_sample () =
  Gc.full_major ();
  Hostref.samples host_samples

(* Every pass is checked.  The answers, the per-layer figures and the
   trace come from the first pass. *)
let run st span =
  let a = acc () in
  let n = Array.length st.stream in
  let seg = Oplist.serve_segment in
  let segs = n / seg in
  let before = Parqo.Domain_pool.stats st.pool in
  let after_first = ref before in
  let ks = Array.make ((passes * segs) + 1) [||] in
  ks.(0) <- host_sample ();
  let runs =
    Array.init passes (fun pass ->
        let r =
          Array.init segs (fun g ->
              let sub = { st with stream = Array.sub st.stream (g * seg) seg } in
              let t0 = now () in
              Span.set_op span g;
              let r = serve span sub in
              Span.set_op span (-1);
              let wall = now () -. t0 in
              let k = (pass * segs) + g in
              ks.(k + 1) <- host_sample ();
              (sub, r, wall, Hostref.slowness (Array.append ks.(k) ks.(k + 1))))
        in
        if pass = 0 then after_first := Parqo.Domain_pool.stats st.pool;
        r)
  in
  let first = runs.(0) in
  a.slow <- Hostref.slowness (Array.concat (Array.to_list ks));
  let fastest f =
    Array.fold_left ( +. ) 0.
      (Array.init segs (fun g ->
           Array.fold_left (fun b r -> Float.min b (f r.(g))) infinity runs))
  in
  a.raw_wall <- fastest (fun (_, _, w, _) -> w);
  let wall_s = fastest (fun (_, _, w, slow) -> w /. slow) in
  let counts_pool = pool_counts before !after_first in
  let problems =
    List.concat_map
      (fun r -> List.concat_map (fun (sub, r, _, _) -> check sub r) (Array.to_list r))
      (Array.to_list runs)
  in
  List.iter (fun (_, msg) -> problem a msg) problems;
  (* a request fails once, however many of its checks fail *)
  a.nfail <-
    List.length
      (List.sort_uniq compare
         (List.filter_map (fun (i, _) -> if i >= 0 then Some i else None) problems));
  (* each admitted request at its fastest pass, scaled and as measured *)
  let best = Hashtbl.create n and best_raw = Hashtbl.create n in
  let keep tbl id x =
    Hashtbl.replace tbl id
      (Float.min x (Option.value ~default:infinity (Hashtbl.find_opt tbl id)))
  in
  Array.iter
    (Array.iter (fun (_, r, _, slow) ->
         Array.iter
           (fun (c : S.completion) ->
             if not (is_rejected c) then begin
               keep best c.S.request.S.id (ms c.S.latency /. slow);
               keep best_raw c.S.request.S.id (ms c.S.latency)
             end)
           r.S.completions))
    runs;
  Array.iter
    (fun (q : S.request) ->
      match (Hashtbl.find_opt best q.S.id, Hashtbl.find_opt best_raw q.S.id) with
      | Some x, Some y ->
        a.lat <- x :: a.lat;
        a.raw_lat <- y :: a.raw_lat
      | _ -> ())
    st.stream;
  Array.iter
    (fun (_, r, _, _) ->
      Array.iter
        (fun (c : S.completion) ->
          match c.S.plan with Some p when not (is_rejected c) -> answer a p | _ -> ())
        r.S.completions)
    first;
  let cs = Array.concat (List.map (fun (_, r, _, _) -> r.S.completions) (Array.to_list first)) in
  let total f = Array.fold_left (fun acc (_, r, _, _) -> acc + f r.S.stats) 0 first in
  let rejected = total (fun s -> s.S.rejected) in
  st.last <- Some cs;
  let admitted = List.filter (fun c -> not (is_rejected c)) (Array.to_list cs) in
  let misses = List.filter (fun c -> not c.S.cache_hit) admitted in
  let planned_misses = List.filter (fun c -> c.S.disposition = S.Planned) misses in
  let degraded = List.filter is_degraded admitted in
  let p50 l = match l with [] -> 0. | l -> Parqo.Statsu.quantile 0.5 l in
  let sum f l = List.fold_left (fun acc c -> acc +. f c) 0. l in
  let late = List.length (List.filter (fun c -> late_by c > 0.) admitted) in
  let p90 f = Bstats.percentile (Array.of_list (List.map f admitted)) 90 in
  finish a ~wall_s ~attempted:n
    ~counts:
      ([
         ("serve.cache_hit_ratio", share (total (fun s -> s.S.cache_hits)) n);
         ("serve.coalescable_share", share (coalescable cs) (List.length misses));
         ("serve.queue_wait_p50_ms", ms (p50 (List.map wait admitted)));
         ("serve.queue_wait_p90_ms", ms (p90 wait));
         ("serve.miss_service_p50_ms", ms (p50 (List.map service planned_misses)));
         ("serve.degraded_service_p50_ms", ms (p50 (List.map service degraded)));
         ( "serve.useful_search_share",
           Bstats.ratio (sum service planned_misses) (sum service misses) );
         ("serve.late_by_p90_ms", ms (p90 late_by));
         ("serve.epoch_bumps", float_of_int (total (fun s -> s.S.epoch_bumps)));
         ("serve.degraded_share", share (total (fun s -> s.S.degraded)) n);
         ("serve.rejected_share", share rejected n);
         ("serve.deadline_miss_share", share (late + rejected) n);
       ]
      @ counts_pool)

let extra _ ~untraced:_ = ([], [])

(* Per-request breakdown of the traced pass, plus the summaries that
   explain its dispositions: search time per fingerprint against the
   deadline, degraded requests by reason, and how far planned misses
   overshot their deadline. *)
let detail st =
  match st.last with
  | None -> Jsonw.Null
  | Some cs ->
    let cs = Array.to_list cs in
    let reason (c : S.completion) =
      match c.S.disposition with
      | S.Planned -> "planned"
      | S.Degraded why -> "degraded: " ^ why
      | S.Rejected why -> "rejected: " ^ why
    in
    let group key l =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun c ->
          let k = key c in
          Hashtbl.replace tbl k (c :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
        l;
      Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let stats l =
      let a = Array.of_list l in
      if Array.length a = 0 then Jsonw.Null
      else
        Jsonw.Obj
          [
            ("n", Jsonw.Int (Array.length a));
            ("min_ms", Jsonw.Num (ms (Array.fold_left Float.min infinity a)));
            ("median_ms", Jsonw.Num (ms (Parqo.Statsu.quantile 0.5 l)));
            ("max_ms", Jsonw.Num (ms (Array.fold_left Float.max neg_infinity a)));
          ]
    in
    let misses = List.filter (fun c -> (not c.S.cache_hit) && not (is_rejected c)) cs in
    Jsonw.Obj
      [
        ("deadline_ms", Jsonw.Num (ms Oplist.serve_deadline));
        ( "by_reason",
          Jsonw.Obj
            (List.map
               (fun (k, l) ->
                 ( k,
                   Jsonw.Obj
                     [
                       ("n", Jsonw.Int (List.length l));
                       ("service", stats (List.map service l));
                       ("queue_wait", stats (List.map wait l));
                     ] ))
               (group reason cs)) );
        ( "miss_service_by_fingerprint",
          Jsonw.Arr
            (List.map
               (fun (fp, l) ->
                 let c = List.hd l in
                 Jsonw.Obj
                   [
                     ("fingerprint", Jsonw.Str fp);
                     ("relations", Jsonw.Int (Q.n_relations c.S.request.S.query));
                     ( "dispositions",
                       Jsonw.Arr (List.map (fun c -> Jsonw.Str (reason c)) l) );
                     ("service", stats (List.map service l));
                   ])
               (group (fun c -> c.S.fingerprint) misses)) );
        ( "planned_miss_overshoot",
          stats
            (List.filter_map
               (fun c ->
                 if c.S.disposition = S.Planned && late_by c > 0. then Some (late_by c)
                 else None)
               misses) );
        ( "requests",
          Jsonw.Arr
            (List.map
               (fun (c : S.completion) ->
                 Jsonw.Obj
                   [
                     ("id", Jsonw.Int c.S.request.S.id);
                     ("relations", Jsonw.Int (Q.n_relations c.S.request.S.query));
                     ("arrival", Jsonw.Num c.S.request.S.arrival);
                     ("queue_wait_ms", Jsonw.Num (ms (wait c)));
                     ("service_ms", Jsonw.Num (ms (service c)));
                     ("latency_ms", Jsonw.Num (ms c.S.latency));
                     ("cache_hit", Jsonw.Bool c.S.cache_hit);
                     ("disposition", Jsonw.Str (reason c));
                   ])
               cs) );
      ]
