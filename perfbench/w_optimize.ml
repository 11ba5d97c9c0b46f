(* optimize: ad-hoc queries optimized cold, one at a time, on one
   domain, in a closed loop.  Each op is SQL text through [Sql.parse],
   [Env.create] and [Optimizer.minimize_response_time] with the session
   defaults.  Nearly all its time is search and costing; it bypasses the
   plan cache, deadlines, the domain pool, the simulator and the
   executors. *)

open Common

let name = "optimize"

(* One pass: with times scaled to the host's speed, a second pass over
   the ops steadies the figures no further than more ops do, and more
   queries also steady the mix behind the figures (STEADINESS.md). *)
let passes = 1

(* About 2.7 s per block of 20 ops on a 2-vCPU 2.1 GHz Xeon; at least 8
   blocks keep sixteen ops above p90. *)
let blocks_for seconds = blocks ~seconds ~passes ~per:2.7 ~min:8

type state = {
  ops : Oplist.opt_op array;
  mutable plans : signature option array;  (** of the last untraced pass *)
}

module SS = Parqo.Search_stats

(* The chosen plan with the stats of the response-time and work phases. *)
let optimize_op ?pool span (op : Oplist.opt_op) =
  match
    Span.record span "Sql.parse" (fun () ->
        Parqo.Sql.parse ~catalog:op.Oplist.catalog op.Oplist.sql)
  with
  | Error e -> Error ("parse: " ^ e)
  | Ok query -> (
    let _, o = optimize ~span ~bound ?pool ~catalog:op.Oplist.catalog query in
    match (o.O.best, o.O.work_optimal) with
    | None, _ -> Error "no plan"
    | _, None -> Error "no work-optimal plan"
    | Some best, Some wo ->
      if
        not
          (Parqo.Bounds.admits bound ~work_opt:wo.Cm.work
             ~rt_opt:wo.Cm.response_time best)
      then Error "plan outside the work bound"
      else Ok (best, o.O.stats, Option.value o.O.work_stats ~default:(SS.create ())))

let setup ~seed ~seconds span =
  let ops = Oplist.optimize_ops ~seed ~blocks:(blocks_for seconds) in
  Array.iter
    (fun op -> ignore (optimize_op span op))
    (Oplist.optimize_warmup ~seed);
  { ops; plans = [||] }

let release _ = ()

let pass ?pool st span =
  let a = acc () in
  let n = Array.length st.ops in
  let plans = Array.make n None in
  let gen = ref 0 and cons = ref 0 and peak = ref 0 and cover = ref 0 in
  let words = ref 0. and wgen = ref 0 in
  let wall_s =
    timed_passes span a ~passes ~ops:n "op.optimize"
      (fun i -> optimize_op ?pool span st.ops.(i))
      (fun i r ->
        match r with
        | Error e ->
          fail_op a (Printf.sprintf "op %d (%s): %s" i st.ops.(i).Oplist.label e)
        | Ok (best, rt, wk) ->
          answer a best;
          plans.(i) <- Some (signature best);
          gen := !gen + rt.SS.generated + wk.SS.generated;
          cons := !cons + rt.SS.considered + wk.SS.considered;
          peak := !peak + rt.SS.stored_peak;
          cover := max !cover rt.SS.cover_max;
          words := !words +. rt.SS.minor_words +. wk.SS.minor_words;
          wgen := !wgen + wk.SS.generated)
  in
  let per_op x = float_of_int x /. float_of_int n in
  let phase =
    finish a ~wall_s ~attempted:n
      ~counts:
        [
          ("search.plans_generated", per_op !gen);
          ("search.plans_considered", per_op !cons);
          ("search.stored_peak", per_op !peak);
          ("search.cover_max", float_of_int !cover);
          ("search.minor_words_per_plan", Bstats.ratio !words (float_of_int !gen));
          ( "search.work_phase_share",
            Bstats.ratio (float_of_int !wgen) (float_of_int !gen) );
        ]
  in
  (phase, plans)

let run st span =
  let phase, plans = pass st span in
  if not (Span.enabled span) then st.plans <- plans;
  phase

(* Traced runs only: the same op list on a pool of [nproc] domains.
   Plans must be bit-identical to the one-domain pass. *)
let extra st ~untraced =
  let pool = Parqo.Domain_pool.create ~domains:nproc () in
  Fun.protect
    ~finally:(fun () -> Parqo.Domain_pool.shutdown pool)
    (fun () ->
      let before = Parqo.Domain_pool.stats pool in
      let phase, plans = pass ~pool st Span.disabled in
      let counts = pool_counts before (Parqo.Domain_pool.stats pool) in
      let mismatches =
        List.filter (fun i -> plans.(i) <> st.plans.(i))
          (List.init (Array.length plans) Fun.id)
      in
      let problems =
        phase.problems
        @ List.map (fun i -> Printf.sprintf "op %d: plan differs at %d domains" i nproc)
            mismatches
      in
      ( ("search.speedup_nproc", Bstats.ratio untraced.wall_s phase.wall_s) :: counts,
        problems ))

let detail st =
  Jsonw.Arr
    (Array.to_list
       (Array.map
          (fun (op : Oplist.opt_op) ->
            Jsonw.Obj
              [ ("label", Jsonw.Str op.Oplist.label); ("sql", Jsonw.Str op.Oplist.sql) ])
          st.ops))
