(* E20 — the optimizer as a service under load and chaos.

   A fixed pool of queries over a clique catalog is served from a
   Poisson request stream at several arrival intensities, chaos off and
   on (slow requests, transient failures, mid-request catalog epoch
   bumps).  Reported per cell: disposition counts, retries, cache
   behaviour, virtual throughput and latency percentiles.

   Two invariants are enforced, not just reported:
   - no request is ever lost: planned + degraded + rejected equals the
     stream length in every cell, chaos included, and every admitted
     request carries a plan;
   - admission control holds: max in-flight never exceeds the queue cap.

   Results go to BENCH_serve.json.  PARQO_SMOKE=1 shrinks the stream so
   CI gates stay fast, and writes nothing. *)

module T = Parqo.Tableau
module Server = Parqo_serve.Server
module Chaos = Parqo_serve.Chaos

let smoke = Common.smoke

type run = {
  arrival : string;
  rate : float;
  chaos : bool;
  n_requests : int;
  planned : int;
  degraded : int;
  rejected : int;
  retries : int;
  epoch_bumps : int;
  cache_hits : int;
  throughput_qps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

let json_of_run r =
  Printf.sprintf
    "  {\"arrival\": %S, \"rate\": %.1f, \"chaos\": %b, \"n_requests\": %d, \
     \"planned\": %d, \"degraded\": %d, \"rejected\": %d, \"retries\": %d, \
     \"epoch_bumps\": %d, \"cache_hits\": %d, \"throughput_qps\": %.2f, \
     \"p50_ms\": %.2f, \"p95_ms\": %.2f, \"p99_ms\": %.2f}"
    r.arrival r.rate r.chaos r.n_requests r.planned r.degraded r.rejected
    r.retries r.epoch_bumps r.cache_hits r.throughput_qps r.p50_ms r.p95_ms
    r.p99_ms

let write_json path runs =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\"schema\": [\"arrival\", \"rate\", \"chaos\", \"n_requests\", \
     \"planned\", \"degraded\", \"rejected\", \"retries\", \"epoch_bumps\", \
     \"cache_hits\", \"throughput_qps\", \"p50_ms\", \"p95_ms\", \
     \"p99_ms\"],\n\"smoke\": %b,\n\"runs\": [\n%s\n]}\n"
    smoke
    (String.concat ",\n" (List.map json_of_run runs));
  close_out oc

let run () =
  Printf.printf "E20: optimizer-as-a-service under load and chaos %s\n"
    (if smoke then "[smoke mode]" else "");
  let n = if smoke then 300 else 2000 in
  let rates = if smoke then [ 200. ] else [ 50.; 200.; 1000. ] in
  let catalog, pool = Parqo.Workloads.serving_pool ~seed:7 () in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let tbl =
    T.create ~title:"E20: serving under load"
      ~columns:
        [
          ("rate", T.Right);
          ("chaos", T.Left);
          ("planned", T.Right);
          ("degraded", T.Right);
          ("rejected", T.Right);
          ("retries", T.Right);
          ("hits", T.Right);
          ("qps", T.Right);
          ("p50ms", T.Right);
          ("p95ms", T.Right);
          ("p99ms", T.Right);
        ]
  in
  let runs = ref [] in
  List.iter
    (fun rate ->
      List.iter
        (fun chaos ->
          let rng = Parqo.Rng.create 11 in
          let arrivals =
            Parqo.Workloads.arrivals rng
              ~process:(Parqo.Workloads.Poisson rate) ~n
          in
          let reqs =
            Server.requests rng ~pool ~arrivals ~deadline:0.1 ()
          in
          let config =
            {
              Server.default_config with
              Server.chaos =
                (if chaos then Chaos.default ~seed:3 () else Chaos.none);
            }
          in
          (* a fresh server per cell: cache state must not leak across
             cells or the low-rate cells subsidize the high-rate ones *)
          let server = Server.create ~config ~machine ~catalog () in
          let r = Server.run server reqs in
          let s = r.Server.stats in
          (* invariant: no request lost, chaos or not *)
          if s.Server.planned + s.Server.degraded + s.Server.rejected <> n
          then begin
            Printf.eprintf
              "E20 FAILED: dispositions do not partition the stream \
               (%d + %d + %d <> %d, rate %.0f, chaos %b)\n"
              s.Server.planned s.Server.degraded s.Server.rejected n rate
              chaos;
            exit 1
          end;
          Array.iter
            (fun (c : Server.completion) ->
              match (c.Server.disposition, c.Server.plan) with
              | (Server.Planned | Server.Degraded _), None ->
                Printf.eprintf
                  "E20 FAILED: admitted request %d has no plan\n"
                  c.Server.request.Server.id;
                exit 1
              | Server.Rejected _, Some _ ->
                Printf.eprintf
                  "E20 FAILED: rejected request %d has a plan\n"
                  c.Server.request.Server.id;
                exit 1
              | _ -> ())
            r.Server.completions;
          (* invariant: admission control bounds in-flight work *)
          if s.Server.max_in_flight > config.Server.queue_cap then begin
            Printf.eprintf
              "E20 FAILED: max in flight %d exceeds queue cap %d\n"
              s.Server.max_in_flight config.Server.queue_cap;
            exit 1
          end;
          T.add_row tbl
            [
              T.cell_float rate;
              (if chaos then "on" else "off");
              string_of_int s.Server.planned;
              string_of_int s.Server.degraded;
              string_of_int s.Server.rejected;
              string_of_int s.Server.retries;
              string_of_int s.Server.cache_hits;
              T.cell_float s.Server.throughput_qps;
              T.cell_float (1000. *. s.Server.p50);
              T.cell_float (1000. *. s.Server.p95);
              T.cell_float (1000. *. s.Server.p99);
            ];
          runs :=
            {
              arrival = "poisson";
              rate;
              chaos;
              n_requests = n;
              planned = s.Server.planned;
              degraded = s.Server.degraded;
              rejected = s.Server.rejected;
              retries = s.Server.retries;
              epoch_bumps = s.Server.epoch_bumps;
              cache_hits = s.Server.cache_hits;
              throughput_qps = s.Server.throughput_qps;
              p50_ms = 1000. *. s.Server.p50;
              p95_ms = 1000. *. s.Server.p95;
              p99_ms = 1000. *. s.Server.p99;
            }
            :: !runs)
        [ false; true ])
    rates;
  T.print tbl;
  Common.write_results "BENCH_serve.json"
    ~what:(Printf.sprintf "%d runs" (List.length !runs))
    (fun path -> write_json path (List.rev !runs))
