(* The benchmark's own tests: its statistics, its span arithmetic and
   the determinism of its seeded inputs. *)

open Perfbench

let floats = Alcotest.(array (float 1e-12))
let samples n = Array.init n (fun i -> float_of_int (n - i))

let refuses f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_percentile () =
  Alcotest.(check (float 0.)) "p90 of 100 is the 90th" 90.
    (Bstats.percentile (samples 100) 90);
  Alcotest.(check (float 0.)) "p50 of 20 is the 10th" 10.
    (Bstats.percentile (samples 20) 50);
  Alcotest.(check bool) "p90 of 99 has 9 beyond" true
    (refuses (fun () -> Bstats.percentile (samples 99) 90));
  Alcotest.(check bool) "p50 of 19 has 9 beyond" true
    (refuses (fun () -> Bstats.percentile (samples 19) 50));
  Alcotest.(check bool) "no samples" true (refuses (fun () -> Bstats.percentile [||] 50))

let test_geomean () =
  Alcotest.(check (float 1e-12)) "1 and 100" 10. (Bstats.geomean [| 1.; 100. |]);
  Alcotest.(check (float 1e-12)) "2 and 8" 4. (Bstats.geomean [| 2.; 8. |]);
  Alcotest.(check (float 1e-12)) "constant" 3. (Bstats.geomean [| 3.; 3.; 3. |]);
  Alcotest.(check bool) "zero refused" true
    (refuses (fun () -> Bstats.geomean [| 1.; 0. |]));
  Alcotest.(check bool) "empty refused" true (refuses (fun () -> Bstats.geomean [||]))

let span id name parent start stop =
  { Span.id; name; parent; op = 0; start; stop; minor_words = 0. }

let test_self_time () =
  (* op.x [0,10] has children Optimizer [1,4] and Sql [3,6], which
     overlap on [3,4]; Env [2,3] is a child of Optimizer *)
  let tree =
    [
      span 0 "op.x" (-1) 0. 10.;
      span 1 "Optimizer.minimize_response_time" 0 1. 4.;
      span 2 "Env.create" 1 2. 3.;
      span 3 "Sql.parse" 0 3. 6.;
    ]
  in
  let selfs = List.map snd (Span.self_times tree) in
  Alcotest.check floats "self times" [| 5.; 2.; 1.; 3. |] (Array.of_list selfs);
  Alcotest.(check (list (pair string (float 1e-12))))
    "per layer"
    [ ("bench", 5.); ("cost", 1.); ("query", 3.); ("search", 2.) ]
    (Span.layer_self tree);
  Alcotest.(check (float 1e-12)) "union clipped to the parent" 3.
    (Span.covered ~lo:0. ~hi:4. [ (3., 6.); (-1., 1.); (0.5, 2.) ])

let test_slowness () =
  let ks = Array.map (fun k -> k *. Hostref.nominal_s) [| 1.; 2.; 9.; 3. |] in
  Alcotest.(check (list (float 1e-12)))
    "median of the nearest three, clamped; the outlier 9 never wins"
    [ 1.; 2.; 3.; 3. ]
    (List.init 4 (Hostref.around ks));
  Alcotest.(check (float 1e-12)) "median of a block" 2.5 (Hostref.slowness ks)

let serve_pool = lazy (Oplist.serve_pool ())

let inputs seed =
  let sql_of = Array.map (fun (o : Oplist.opt_op) -> o.Oplist.sql) in
  let sql = sql_of (Oplist.optimize_ops ~seed ~blocks:2) in
  let warm = sql_of (Oplist.optimize_warmup ~seed) in
  let _, pool = Lazy.force serve_pool in
  let stream =
    Array.map
      (fun (r : Parqo_serve.Server.request) ->
        Printf.sprintf "%d %h %s" r.Parqo_serve.Server.id r.Parqo_serve.Server.arrival
          (Parqo.Query.fingerprint r.Parqo_serve.Server.query))
      (Oplist.serve_stream ~seed ~segments:3 pool)
  in
  let join f a = String.concat "," (Array.to_list (Array.map f a)) in
  let batches =
    Array.map
      (fun (b : Oplist.batch) ->
        Printf.sprintf "%s|%s|%s|%s|%s|%s|%d"
          (join string_of_int b.Oplist.plans)
          (join (Printf.sprintf "%h") b.Oplist.arrivals)
          (join string_of_int b.Oplist.priorities)
          (Parqo.Scheduler.policy_to_string b.Oplist.policy)
          (join
             (fun (a, z, r) -> Printf.sprintf "%h:%h:%d" a z r)
             (Array.of_list b.Oplist.brownouts))
          (join string_of_int b.Oplist.replay)
          b.Oplist.fault_seed)
      (Oplist.simulate_batches ~seed ~n_plans:16 ~count:5)
  in
  let order = Array.map string_of_int (Oplist.execute_order ~seed ~rounds:4 ~n:5) in
  [
    ("sql", sql); ("warm-up", warm); ("stream", stream); ("batches", batches);
    ("order", order);
  ]

let test_determinism () =
  let a = inputs 11 and b = inputs 11 and c = inputs 12 in
  List.iter2
    (fun (name, x) (_, y) -> Alcotest.(check (array string)) (name ^ " repeat") x y)
    a b;
  List.iter2
    (fun (name, x) (_, y) -> Alcotest.(check bool) (name ^ " differ") false (x = y))
    a c

let test_serve_mix () =
  (* each segment: the pool's nine 2-relation and eight 3-relation
     queries, a repeat of each 3-relation one after its first
     occurrence, and one 4-relation request, last, carrying the bump *)
  let _, pool = Lazy.force serve_pool in
  let stream = Oplist.serve_stream ~seed:3 ~segments:4 pool in
  Alcotest.(check int) "length" (4 * Oplist.serve_segment) (Array.length stream);
  for seg = 0 to 3 do
    let reqs =
      Array.to_list (Array.sub stream (seg * Oplist.serve_segment) Oplist.serve_segment)
      |> List.map (fun (r : Parqo_serve.Server.request) -> r.Parqo_serve.Server.query)
    in
    let n k = List.length (List.filter (fun q -> Parqo.Query.n_relations q = k) reqs) in
    Alcotest.(check (list int)) "class counts" [ 9; 16; 1 ] [ n 2; n 3; n 4 ];
    Alcotest.(check int) "4-relation request last" 4
      (Parqo.Query.n_relations (List.nth reqs (Oplist.serve_segment - 1)));
    Alcotest.(check int) "distinct fingerprints" 18
      (List.length (List.sort_uniq compare (List.map Parqo.Query.fingerprint reqs)))
  done

(* The serve checks catch a run whose completions do not match its
   stream or its counts. *)
let test_serve_check () =
  let module S = Parqo_serve.Server in
  let catalog, pool_queries = Lazy.force serve_pool in
  let stream =
    Array.mapi
      (fun i q -> { S.id = i; arrival = float_of_int i; query = q; deadline = None })
      (Array.sub (Oplist.pool_class pool_queries 2) 0 3)
  in
  let pool = Parqo.Domain_pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Parqo.Domain_pool.shutdown pool)
    (fun () ->
      let st =
        { W_serve.catalog; stream; pool; reference = Hashtbl.create 4; last = None }
      in
      let r = W_serve.serve Span.disabled st in
      let cs = r.S.completions in
      let flags name (r : S.run_result) =
        Alcotest.(check bool) name true (W_serve.check st r <> [])
      in
      Alcotest.(check (list string)) "a clean run" []
        (List.map snd (W_serve.check st r));
      flags "a missing completion" { r with S.completions = Array.sub cs 0 2 };
      flags "a completion twice" { r with S.completions = [| cs.(0); cs.(0); cs.(2) |] };
      flags "a disposition the counts miss"
        {
          r with
          S.completions =
            Array.mapi
              (fun i c -> if i = 0 then { c with S.disposition = S.Degraded "x" } else c)
              cs;
        };
      flags "a planned request with another query's plan"
        { r with S.completions = [| { cs.(0) with S.plan = cs.(1).S.plan }; cs.(1); cs.(2) |] };
      flags "a rejected request with a plan"
        {
          S.completions = [| { cs.(0) with S.disposition = S.Rejected "x" }; cs.(1); cs.(2) |];
          stats = { r.S.stats with S.planned = 2; rejected = 1 };
        })

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile needs ten beyond" `Quick test_percentile;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
        ] );
      ("spans", [ Alcotest.test_case "self time of a span tree" `Quick test_self_time ]);
      ("host", [ Alcotest.test_case "slowness around an op" `Quick test_slowness ]);
      ( "inputs",
        [
          Alcotest.test_case "seeded op lists are deterministic" `Quick test_determinism;
          Alcotest.test_case "serve segments keep their mix" `Quick test_serve_mix;
        ] );
      ("checks", [ Alcotest.test_case "serve checks catch bad runs" `Quick test_serve_check ]);
    ]
