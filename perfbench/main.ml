(* The parqo benchmark: one workload, one seed, one run.

     main.exe --workload optimize|serve|execute|simulate --seed N
              --seconds S --trace 0|1 [--git-rev R] [--launched T]

   Prints a run record, then as its last line one JSON object with the
   keys correct, attempted, failed and metrics: the end-to-end metrics
   from an untraced pass, or with --trace 1 the per-layer metrics from a
   traced pass of the same ops (spans go to perfbench/_out/).  [T] is
   the Unix time at which the caller started this process; set-up time
   counts from it.  Normally started through perfbench/run.py, which
   builds it first.  With --setup-only it sets up, prints its set-up
   time and exits. *)

open Perfbench
open Common

(* When this process started: the caller's [--launched], or else the
   moment the benchmark's own code first ran. *)
let started = ref (now ())

module type WORKLOAD = sig
  type state

  val name : string
  val passes : int
  val setup : seed:int -> seconds:int -> Span.t -> state
  val release : state -> unit
  val run : state -> Span.t -> phase
  val extra : state -> untraced:phase -> (string * float) list * string list
  val detail : state -> Jsonw.t
end

let workloads : (module WORKLOAD) list =
  [ (module W_optimize); (module W_serve); (module W_execute); (module W_simulate) ]

let end_to_end =
  [
    ("setup_s", "s"); ("p50_ms", "ms"); ("p90_ms", "ms"); ("throughput_per_s", "1/s");
    ("peak_rss_mb", "MB"); ("response_geomean", "model"); ("work_geomean", "model");
  ]

let per_layer =
  [
    ("search.us_per_plan", "us"); ("search.plans_generated", "count");
    ("search.plans_considered", "count"); ("search.minor_words_per_plan", "words");
    ("search.stored_peak", "count"); ("search.cover_max", "count");
    ("search.work_phase_share", "1"); ("search.speedup_nproc", "x");
    ("domain_pool.parallel_regions", "count"); ("domain_pool.parks", "count");
    ("serve.cache_hit_ratio", "1"); ("serve.coalescable_share", "1");
    ("serve.queue_wait_p50_ms", "ms"); ("serve.queue_wait_p90_ms", "ms");
    ("serve.miss_service_p50_ms", "ms"); ("serve.degraded_service_p50_ms", "ms");
    ("serve.useful_search_share", "1"); ("serve.late_by_p90_ms", "ms");
    ("serve.epoch_bumps", "count"); ("serve.degraded_share", "1");
    ("serve.rejected_share", "1"); ("serve.deadline_miss_share", "1");
    ("query.parse_us", "us"); ("cost.env_us", "us");
    ("sim.schedule_ms", "ms"); ("sim.simulate_us", "us"); ("sim.events_per_op", "count");
    ("sim.us_per_event", "us"); ("sim.minor_words_per_event", "words");
    ("exec.parallel_ms", "ms"); ("exec.reference_ms", "ms"); ("exec.compare_ms", "ms");
    ("exec.rows_per_op", "count"); ("exec.minor_words_per_row", "words");
    ("catalog.datagen_s", "s"); ("trace.overhead_share", "1");
    ("host.slowness", "x");
  ]

(* An untraced run reports the median set-up time of [setup_runs]
   processes: itself and copies started with --setup-only.  Each is timed
   from its own start, so each pays the program's cold start, and scaled
   by the host's slowness over [setup_samples] kernel runs right after
   its set-up. *)
let setup_runs = 3
let setup_samples = 100

(* Set-up seconds since [started], as measured and scaled. *)
let setup_time () =
  let raw = now () -. !started in
  (raw, raw /. Hostref.slowness (Hostref.samples setup_samples))

(* Per-layer figures read off the traced pass's spans. *)
let span_metrics ~spans ~counts =
  let in_ops = List.filter (fun s -> s.Span.op >= 0) spans in
  let n name = let k, _, _ = Span.totals in_ops name in float_of_int k in
  let sec name = let _, s, _ = Span.totals in_ops name in s in
  let words name = let _, _, w = Span.totals in_ops name in w in
  let mean name = Bstats.ratio (sec name) (n name) in
  let count key = Option.value ~default:0. (List.assoc_opt key counts) in
  let opt = "Optimizer.minimize_response_time" in
  let sim_s = sec "Scheduler.run" +. sec "Simulator.run" in
  let sim_w = words "Scheduler.run" +. words "Simulator.run" in
  let events = count "sim.events_per_op" *. n "op.simulate" in
  let exec = [ "Parallel_exec.run_query"; "Executor.run_query"; "Batch.equal_bags" ] in
  let rows = count "exec.rows_per_op" *. n "op.execute" in
  let datagen =
    List.fold_left
      (fun acc s ->
        if s.Span.op < 0 && Span.layer_of s.Span.name = "catalog" then
          acc +. Span.duration s
        else acc)
      0. spans
  in
  [
    ( "search.us_per_plan",
      Bstats.ratio (sec opt *. 1e6) (count "search.plans_generated" *. n opt) );
    ("query.parse_us", mean "Sql.parse" *. 1e6);
    ("cost.env_us", mean "Env.create" *. 1e6);
    ("sim.schedule_ms", mean "Scheduler.run" *. 1e3);
    ("sim.simulate_us", mean "Simulator.run" *. 1e6);
    ("sim.us_per_event", Bstats.ratio (sim_s *. 1e6) events);
    ("sim.minor_words_per_event", Bstats.ratio sim_w events);
    ("exec.parallel_ms", mean "Parallel_exec.run_query" *. 1e3);
    ("exec.reference_ms", mean "Executor.run_query" *. 1e3);
    ("exec.compare_ms", mean "Batch.equal_bags" *. 1e3);
    ( "exec.minor_words_per_row",
      Bstats.ratio (List.fold_left (fun a k -> a +. words k) 0. exec) rows );
    ("catalog.datagen_s", datagen);
  ]

let metric_obj names values =
  Jsonw.Obj
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:0. (List.assoc_opt name values) in
         (name, Jsonw.Obj [ ("value", Jsonw.Num v); ("unit", Jsonw.Str unit) ]))
       names)

let write_file path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* Starts a --setup-only copy of this program and returns its set-up
   seconds from the moment it was started, as measured and scaled. *)
let setup_copy ~workload ~seed ~seconds =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let launched = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [|
        Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
        "--seconds"; string_of_int seconds; "--setup-only"; "--launched";
        Printf.sprintf "%.6f" launched;
      |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let text = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Scanf.sscanf text " %f %f" (fun raw scaled -> (raw, scaled))
  | _ -> failwith (Printf.sprintf "set-up copy for seed %d failed" seed)

let drive (module W : WORKLOAD) ~seed ~seconds ~trace ~record =
  let span = if trace then Span.create ~enabled:true else Span.disabled in
  let st = W.setup ~seed ~seconds span in
  let setup = setup_time () in
  Fun.protect
    ~finally:(fun () -> W.release st)
    (fun () ->
      Gc.full_major ();
      let base = W.run st Span.disabled in
      let throughput p = float_of_int p.attempted /. p.wall_s in
      (* the run record carries the host's slowness and the timings as
         measured, before scaling *)
      let record ~ops ~raw =
        record ~ops
          ~extra:[ ("host_slowness", Jsonw.Num base.slowness); ("raw", Jsonw.Obj raw) ]
      in
      let phases, metrics, names, problems, raw =
        if not trace then begin
          let rss = peak_rss_mb () in
          let setups =
            setup
            :: List.init (setup_runs - 1) (fun _ -> setup_copy ~workload:W.name ~seed ~seconds)
          in
          ( [ base ],
            [
              ("setup_s", Parqo.Statsu.quantile 0.5 (List.map snd setups));
              ("p50_ms", Bstats.percentile base.lat_ms 50);
              ("p90_ms", Bstats.percentile base.lat_ms 90);
              ("throughput_per_s", throughput base);
              ("peak_rss_mb", rss);
              ("response_geomean", Bstats.geomean base.response);
              ("work_geomean", Bstats.geomean base.work);
            ],
            end_to_end,
            [],
            [
              ("setup_s", Jsonw.Arr (List.map (fun (r, _) -> Jsonw.Num r) setups));
              ("p50_ms", Jsonw.Num (Bstats.percentile base.raw_lat_ms 50));
              ("p90_ms", Jsonw.Num (Bstats.percentile base.raw_lat_ms 90));
              ("throughput_per_s", Jsonw.Num (float_of_int base.attempted /. base.raw_wall_s));
            ] )
        end
        else begin
          Gc.full_major ();
          let traced = W.run st span in
          let extra, extra_problems = W.extra st ~untraced:base in
          let spans = Span.spans span in
          let metrics =
            traced.counts @ extra
            @ span_metrics ~spans ~counts:traced.counts
            @ [
                ("trace.overhead_share", (traced.wall_s -. base.wall_s) /. base.wall_s);
                ("host.slowness", traced.slowness);
              ]
          in
          let layers = Span.layer_self (List.filter (fun s -> s.Span.op >= 0) spans) in
          let out =
            Jsonw.Obj
              [
                ("record", record ~ops:base.attempted ~raw:[]);
                ("per_layer", metric_obj per_layer metrics);
                ( "layer_self_s",
                  Jsonw.Obj (List.map (fun (l, v) -> (l, Jsonw.Num v)) layers) );
                ("detail", W.detail st);
                ("spans", Span.to_json spans);
              ]
          in
          (try Sys.mkdir "perfbench/_out" 0o755 with Sys_error _ -> ());
          write_file
            (Printf.sprintf "perfbench/_out/trace-%s-seed%d.json" W.name seed)
            (Jsonw.to_string out ^ "\n");
          ([ base; traced ], metrics, per_layer, extra_problems, [])
        end
      in
      let problems = List.concat_map (fun p -> p.problems) phases @ problems in
      List.iter (prerr_endline) problems;
      let attempted = List.fold_left (fun a p -> a + p.attempted) 0 phases in
      let failed = List.fold_left (fun a p -> a + p.failed) 0 phases in
      print_endline
        (Jsonw.to_string (Jsonw.Obj [ ("record", record ~ops:base.attempted ~raw) ]));
      print_endline
        (Jsonw.to_string
           (Jsonw.Obj
              [
                ("correct", Jsonw.Bool (problems = []));
                ("attempted", Jsonw.Int attempted);
                ("failed", Jsonw.Int failed);
                ("metrics", metric_obj names metrics);
              ])))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15 and trace = ref 0 in
  let git_rev = ref "unknown" and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " optimize|serve|execute|simulate");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " nominal timed seconds (sets the op count)");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
      ("--git-rev", Arg.Set_string git_rev, " recorded in the run record");
      ("--launched", Arg.Float (fun t -> started := t), " Unix time this process was started");
      ("--setup-only", Arg.Set setup_only, " set up, print the set-up seconds and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  match List.find_opt (fun (module W : WORKLOAD) -> W.name = !workload) workloads with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some (module W) when !setup_only ->
    let st = W.setup ~seed:!seed ~seconds:!seconds Span.disabled in
    let raw, scaled = setup_time () in
    Printf.printf "%.9f %.9f\n" raw scaled;
    W.release st
  | Some w ->
    let module W = (val w : WORKLOAD) in
    if !seconds < 1 then (prerr_endline "--seconds must be >= 1"; exit 2);
    let record ~ops ~extra =
      Jsonw.Obj
        ([
          ("workload", Jsonw.Str !workload); ("seed", Jsonw.Int !seed);
          ("seconds", Jsonw.Int !seconds); ("ops_per_run", Jsonw.Int ops);
          ("passes", Jsonw.Int W.passes);
          ("traced", Jsonw.Bool (!trace = 1)); ("nproc", Jsonw.Int nproc);
          ("ocaml_version", Jsonw.Str Sys.ocaml_version); ("git_rev", Jsonw.Str !git_rev);
          ("setup_runs", Jsonw.Int (if !trace = 1 then 1 else setup_runs));
        ]
        @ extra)
    in
    drive w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~record
