(* A persistent pool of worker domains for level-synchronous parallel
   loops.

   The pre-pool implementation spawned and joined fresh domains for every
   parallel region — O(levels × domains) spawns per search, each spawn a
   stop-the-world event for the runtime.  Here the workers are spawned
   once at [create] and parked on a condition variable between regions:
   starting a region is one epoch increment plus a broadcast, finishing
   it is one counter decrement per worker.  A parked worker blocks inside
   [Condition.wait], which enters a blocking section, so the runtime's
   backup thread answers stop-the-world polls on its behalf — an idle
   pool does not slow the GC of the calling domain.

   Work distribution is chunked self-scheduling: workers claim contiguous
   index ranges with one fetch-and-add per chunk (adaptive size
   [max 1 (remaining / (8 × width))], so claims start coarse and shrink
   toward the tail for load balance) instead of one atomic operation per
   task.  Callers write results into per-index slots and merge them in
   index order after the barrier, which keeps the overall result
   independent of the scheduling.

   The pool never runs more domains than the machine has cores: [create]
   clamps the width to [Domain.recommended_domain_count ()] unless
   [~oversubscribe:true] (used by the determinism tests, which need real
   cross-domain execution even on a single-core box).  Oversubscribing
   allocating domains on too few cores serializes them through the minor
   collector's stop-the-world barrier — the 3–8× slowdown the earlier
   per-level spawning exhibited on one core — so on a clamped pool the
   [domains > 1] path degrades to the sequential loop and costs only the
   chunk bookkeeping. *)

type stats = {
  spawned : int;
  parallel_runs : int;
  sequential_runs : int;
  parks : int;
}

let no_stats = { spawned = 0; parallel_runs = 0; sequential_runs = 0; parks = 0 }

type t = {
  requested : int;
  width : int;  (* calling domain + spawned workers, after clamping *)
  mutable workers : unit Domain.t array;
  m : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  (* region state, guarded by [m] except where noted *)
  mutable epoch : int;
  mutable job : (worker:int -> lo:int -> hi:int -> unit) option;
  mutable chunk : pos:int -> default:int -> int;  (* the region's claim size *)
  mutable tasks : int;
  mutable active : int;  (* workers still inside the current epoch *)
  mutable failure : exn option;  (* first worker exception of the epoch *)
  mutable stopping : bool;
  next : int Atomic.t;  (* chunk claim cursor (lock-free) *)
  abort : bool Atomic.t;  (* a task raised: stop claiming *)
  participated : bool array;  (* per worker, reset each region *)
  (* lifetime counters, guarded by [m] *)
  mutable n_parallel_runs : int;
  mutable n_sequential_runs : int;
  mutable n_parks : int;
}

let chunk_size ~width ~tasks ~pos = max 1 ((tasks - pos) / (8 * width))
let default_chunk ~pos:_ ~default = default

(* Record the region's first exception and stop claiming. *)
let record_failure t exn =
  Atomic.set t.abort true;
  Mutex.lock t.m;
  if t.failure = None then t.failure <- Some exn;
  Mutex.unlock t.m

(* Claim and run chunks until the cursor passes [tasks] or a failure
   aborts the region.  Exceptions from [job] and from the caller's
   [chunk] hook are recorded (first wins) and abort the region; the
   claim loop itself never raises, so a worker always leaves the epoch
   and the caller always waits for it. *)
let claim_loop t ~worker ~tasks ~chunk job =
  let claimed = ref false in
  let rec go () =
    if not (Atomic.get t.abort) then begin
      let pos = Atomic.get t.next in
      if pos < tasks then
        match chunk ~pos ~default:(chunk_size ~width:t.width ~tasks ~pos) with
        | exception exn -> record_failure t exn
        | size ->
          let size = max 1 size in
          let lo = Atomic.fetch_and_add t.next size in
          if lo < tasks then begin
            let hi = min tasks (lo + size) in
            if not !claimed then begin
              claimed := true;
              t.participated.(worker) <- true
            end;
            (try job ~worker ~lo ~hi with exn -> record_failure t exn);
            go ()
          end
    end
  in
  go ()

let worker_main t worker =
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.m;
    while t.epoch = !last && not t.stopping do
      Condition.wait t.work_ready t.m
    done;
    if t.stopping then begin
      running := false;
      Mutex.unlock t.m
    end
    else begin
      last := t.epoch;
      let job = Option.get t.job and tasks = t.tasks and chunk = t.chunk in
      Mutex.unlock t.m;
      claim_loop t ~worker ~tasks ~chunk job;
      Mutex.lock t.m;
      t.active <- t.active - 1;
      t.n_parks <- t.n_parks + 1;
      if t.active = 0 then Condition.signal t.work_done;
      Mutex.unlock t.m
    end
  done

let create ?(oversubscribe = false) ~domains () =
  if domains < 1 then invalid_arg "Domain_pool.create: domains < 1";
  let width =
    if oversubscribe then domains
    else max 1 (min domains (Domain.recommended_domain_count ()))
  in
  let t =
    {
      requested = domains;
      width;
      workers = [||];
      m = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      epoch = 0;
      job = None;
      chunk = default_chunk;
      tasks = 0;
      active = 0;
      failure = None;
      stopping = false;
      next = Atomic.make 0;
      abort = Atomic.make false;
      participated = Array.make width false;
      n_parallel_runs = 0;
      n_sequential_runs = 0;
      n_parks = 0;
    }
  in
  t.workers <-
    Array.init (width - 1) (fun i -> Domain.spawn (fun () -> worker_main t (i + 1)));
  t

let requested t = t.requested
let width t = t.width

let stats t =
  Mutex.lock t.m;
  let s =
    {
      spawned = Array.length t.workers;
      parallel_runs = t.n_parallel_runs;
      sequential_runs = t.n_sequential_runs;
      parks = t.n_parks;
    }
  in
  Mutex.unlock t.m;
  s

let diff_stats a b =
  {
    spawned = b.spawned - a.spawned;
    parallel_runs = b.parallel_runs - a.parallel_runs;
    sequential_runs = b.sequential_runs - a.sequential_runs;
    parks = b.parks - a.parks;
  }

let shutdown t =
  Mutex.lock t.m;
  let workers = t.workers in
  if not t.stopping then begin
    t.stopping <- true;
    t.workers <- [||];
    Condition.broadcast t.work_ready
  end;
  Mutex.unlock t.m;
  Array.iter Domain.join workers

(* The sequential path still iterates in chunks, sized as with
   workers, so a caller sees the same kind of claims at every width. *)
let run_sequential t ~tasks ~chunk job =
  Mutex.lock t.m;
  t.n_sequential_runs <- t.n_sequential_runs + 1;
  Mutex.unlock t.m;
  let pos = ref 0 in
  while !pos < tasks do
    let size =
      chunk ~pos:!pos ~default:(chunk_size ~width:1 ~tasks ~pos:!pos)
    in
    let hi = min tasks (!pos + max 1 size) in
    job ~worker:0 ~lo:!pos ~hi;
    pos := hi
  done;
  min tasks 1

let run_ranged ?(chunk = default_chunk) t ~tasks job =
  if tasks < 0 then invalid_arg "Domain_pool.run_ranged: tasks < 0";
  if t.stopping then invalid_arg "Domain_pool.run_ranged: pool is shut down";
  if t.width = 1 || tasks <= 1 then run_sequential t ~tasks ~chunk job
  else begin
    Mutex.lock t.m;
    if t.active <> 0 || t.job <> None then begin
      Mutex.unlock t.m;
      invalid_arg "Domain_pool.run_ranged: concurrent run on one pool"
    end;
    Atomic.set t.next 0;
    Atomic.set t.abort false;
    Array.fill t.participated 0 t.width false;
    t.job <- Some job;
    t.chunk <- chunk;
    t.tasks <- tasks;
    t.failure <- None;
    t.active <- Array.length t.workers;
    t.epoch <- t.epoch + 1;
    t.n_parallel_runs <- t.n_parallel_runs + 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.m;
    (* the calling domain participates as worker 0 *)
    claim_loop t ~worker:0 ~tasks ~chunk job;
    Mutex.lock t.m;
    while t.active > 0 do
      Condition.wait t.work_done t.m
    done;
    t.job <- None;
    t.chunk <- default_chunk;
    let failure = t.failure in
    t.failure <- None;
    let participants =
      Array.fold_left (fun n p -> if p then n + 1 else n) 0 t.participated
    in
    Mutex.unlock t.m;
    (match failure with Some exn -> raise exn | None -> ());
    max 1 participants
  end

let run t ~tasks f =
  ignore
    (run_ranged t ~tasks (fun ~worker:_ ~lo ~hi ->
         for i = lo to hi - 1 do
           f i
         done))

let with_pool ?oversubscribe ~domains f =
  let t = create ?oversubscribe ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
