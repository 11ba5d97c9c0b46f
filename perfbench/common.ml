(* What every workload shares: the session's optimizer settings, the
   result of one timed op list, and plan signatures for equality checks. *)

module Cm = Parqo.Costmodel
module O = Parqo.Optimizer

let now = Unix.gettimeofday
let ms s = s *. 1000.
let nproc = Domain.recommended_domain_count ()

(* The session defaults ([Session.create]). *)
let bound = Parqo.Bounds.Throughput_degradation 2.0
let config = Parqo.Space.parallel_config Oplist.machine

let optimize ?(span = Span.disabled) ?bound ?pool ~catalog query =
  let env =
    Span.record span "Env.create" (fun () ->
        Parqo.Env.create ~machine:Oplist.machine ~catalog ~query ())
  in
  let outcome =
    Span.record span "Optimizer.minimize_response_time" (fun () ->
        O.minimize_response_time ~config ?bound ?pool env)
  in
  (env, outcome)

(* The plan a session would choose; set-up only, so a missing plan is a
   broken benchmark, not a failed op. *)
let session_plan ?span ~catalog query =
  match optimize ?span ~bound ~catalog query with
  | env, { O.best = Some plan; _ } -> (env, plan)
  | _ -> failwith ("no plan for " ^ Parqo.Query.to_sql query)

(* Bit-exact identity of a chosen plan. *)
type signature = string * int64 * int64

let signature (e : Cm.eval) : signature =
  ( Parqo.Join_tree.to_string e.Cm.tree,
    Int64.bits_of_float e.Cm.response_time,
    Int64.bits_of_float e.Cm.work )

(* One timed pass over a workload's op list.  Its times are scaled to
   the host's nominal speed ([Hostref]); the raw ones ride along. *)
type phase = {
  wall_s : float;  (** of the timed phase, each op at its fastest pass *)
  lat_ms : float array;  (** per op, its fastest pass *)
  raw_wall_s : float;  (** [wall_s] as measured *)
  raw_lat_ms : float array;  (** [lat_ms] as measured *)
  slowness : float;  (** the host's median slowness during the phase *)
  attempted : int;
  failed : int;
  response : float array;  (** modelled response time of each answer *)
  work : float array;  (** modelled work of each answer *)
  counts : (string * float) list;
      (** per-layer figures the workload measures itself *)
  problems : string list;  (** why ops or whole-run checks failed *)
}

(* Collects per-op outcomes during a pass. *)
type acc = {
  mutable lat : float list;
  mutable raw_lat : float list;
  mutable raw_wall : float;
  mutable slow : float;
  mutable resp : float list;
  mutable wk : float list;
  mutable nfail : int;
  mutable probs : string list;
}

let acc () =
  { lat = []; raw_lat = []; raw_wall = 0.; slow = 1.; resp = []; wk = []; nfail = 0; probs = [] }

let problem a msg =
  if List.length a.probs < 20 then a.probs <- msg :: a.probs

let fail_op a msg =
  a.nfail <- a.nfail + 1;
  problem a msg

let answer a (e : Cm.eval) =
  a.resp <- e.Cm.response_time :: a.resp;
  a.wk <- e.Cm.work :: a.wk

let finish a ~wall_s ~attempted ~counts =
  {
    wall_s;
    lat_ms = Array.of_list (List.rev a.lat);
    raw_wall_s = a.raw_wall;
    raw_lat_ms = Array.of_list (List.rev a.raw_lat);
    slowness = a.slow;
    attempted;
    failed = a.nfail;
    response = Array.of_list (List.rev a.resp);
    work = Array.of_list (List.rev a.wk);
    counts;
    problems = List.rev a.probs;
  }

(* Runs the op list [passes] times over, a whole pass at a time, each op
   inside a root span, with a run of [Hostref.kernel] before each op and
   after the last.  Each op's time is scaled by the host's slowness
   around it, and its latency is its fastest pass: passes spread over
   the run give each op several chances at a quiet moment.  [work i] is
   the timed op; [check i r] judges the first pass's result, untimed
   (the ops are deterministic, so later passes only time them).  Returns
   the seconds of the timed phase with each op at its fastest pass,
   scaled. *)
let timed_passes span a ~passes ~ops name work check =
  let raw = Array.make_matrix passes ops infinity in
  let ks = Array.make ((passes * ops) + 1) 0. in
  let first = Array.make ops (Error Not_found) in
  for pass = 0 to passes - 1 do
    for i = 0 to ops - 1 do
      ks.((pass * ops) + i) <- Hostref.sample ();
      Span.set_op span i;
      let s = now () in
      let r = match Span.record span name (fun () -> work i) with
        | r -> Ok r
        | exception e -> Error e
      in
      raw.(pass).(i) <- now () -. s;
      if pass = 0 then first.(i) <- r
    done
  done;
  ks.(passes * ops) <- Hostref.sample ();
  Span.set_op span (-1);
  Array.iteri
    (fun i r ->
      match r with
      | Ok r -> check i r
      | Error e -> fail_op a (Printf.sprintf "op %d raised %s" i (Printexc.to_string e)))
    first;
  let fastest f = Array.init ops (fun i ->
      let b = ref infinity in
      for pass = 0 to passes - 1 do b := Float.min !b (f pass i) done;
      !b)
  in
  let best = fastest (fun pass i -> raw.(pass).(i) /. Hostref.around ks ((pass * ops) + i)) in
  let best_raw = fastest (fun pass i -> raw.(pass).(i)) in
  let sum = Array.fold_left ( +. ) 0. in
  a.lat <- List.rev_map ms (Array.to_list best);
  a.raw_lat <- List.rev_map ms (Array.to_list best_raw);
  a.raw_wall <- sum best_raw;
  a.slow <- Hostref.slowness ks;
  sum best

(* How many blocks of ops fill [seconds] when each block runs [passes]
   times, at [per] seconds a block on the machine the constant was
   measured on; never fewer than [min]. *)
let blocks ~seconds ~passes ~per ~min =
  max min (int_of_float (Float.round (float_of_int seconds /. (per *. float_of_int passes))))

(* Peak resident memory of this process in MB (VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Pool counters one bracketed call contributed. *)
let pool_counts before after =
  let d = Parqo.Domain_pool.diff_stats before after in
  [
    ("domain_pool.parallel_regions", float_of_int d.Parqo.Domain_pool.parallel_runs);
    ("domain_pool.parks", float_of_int d.Parqo.Domain_pool.parks);
  ]

(* A share of the samples. *)
let share n d = if d = 0 then 0. else float_of_int n /. float_of_int d
