(* The persistent worker pool under the PODP level loop: workers are
   spawned once, parked between regions, and claim chunked index ranges.
   Everything here runs oversubscribed — the pool clamps to the core
   count by default, and CI may well have one core, so forcing real
   spawned domains is the only way to exercise cross-domain execution —
   and under the watchdog, so a hung region fails instead of hanging. *)

module Pool = Parqo.Domain_pool

let t name f = Alcotest.test_case name `Quick f

(* every index of every region is executed exactly once, across many
   region shapes (tasks above, below, and equal to the width) *)
let exactly_once () =
  Helpers.with_forced_pool 4 (fun pool ->
      List.iter
        (fun tasks ->
          let counts = Array.init (max tasks 1) (fun _ -> Atomic.make 0) in
          ignore
            (Pool.run_ranged pool ~tasks (fun ~worker:_ ~lo ~hi ->
                 for i = lo to hi - 1 do
                   Atomic.incr counts.(i)
                 done));
          for i = 0 to tasks - 1 do
            Alcotest.(check int)
              (Printf.sprintf "tasks=%d index %d runs once" tasks i)
              1
              (Atomic.get counts.(i))
          done)
        [ 0; 1; 2; 3; 4; 5; 17; 100; 1000 ])

(* ranges partition [0, tasks): contiguous, disjoint, in-bounds.  The
   workers only record the ranges they claimed; every assertion runs on
   the calling domain once the region is over — Alcotest is not
   domain-safe, and a check raising on a worker must not be able to
   wedge the region. *)
let ranges_partition () =
  Helpers.with_forced_pool 3 (fun pool ->
      let tasks = 500 in
      let claims = ref [] in
      let m = Mutex.create () in
      ignore
        (Pool.run_ranged pool ~tasks (fun ~worker ~lo ~hi ->
             Mutex.protect m (fun () -> claims := (worker, lo, hi) :: !claims)));
      let owner = Array.make tasks (-1) in
      List.iter
        (fun (worker, lo, hi) ->
          Alcotest.(check bool) "lo < hi" true (lo < hi);
          Alcotest.(check bool) "bounds" true (lo >= 0 && hi <= tasks);
          for i = lo to hi - 1 do
            Alcotest.(check int)
              (Printf.sprintf "index %d unclaimed" i)
              (-1) owner.(i);
            owner.(i) <- worker
          done)
        !claims;
      Array.iteri
        (fun i w ->
          Alcotest.(check bool)
            (Printf.sprintf "index %d claimed by a lane" i)
            true
            (w >= 0 && w < Pool.width pool))
        owner)

(* one pool serves many regions: the workers are spawned once and parked
   between runs, not respawned *)
let reuse_across_runs () =
  Helpers.with_forced_pool 4 (fun pool ->
      let total = Atomic.make 0 in
      for round = 1 to 10 do
        Pool.run pool ~tasks:(10 * round) (fun _ ->
            Atomic.incr total)
      done;
      Alcotest.(check int) "all tasks of all rounds ran" 550 (Atomic.get total);
      let s = Pool.stats pool in
      Alcotest.(check int) "spawned once, not per region" 3 s.Pool.spawned;
      Alcotest.(check int) "ten parallel regions" 10 s.Pool.parallel_runs;
      Alcotest.(check int) "workers parked after each region" 30 s.Pool.parks)

(* a raising task aborts the region, reraises on the caller, and leaves
   the pool usable for the next region — no worker is lost *)
let exception_safe () =
  Helpers.with_forced_pool 4 (fun pool ->
      (try
         Pool.run pool ~tasks:100 (fun i -> if i = 57 then failwith "boom");
         Alcotest.fail "exception was swallowed"
       with Failure msg -> Alcotest.(check string) "reraised" "boom" msg);
      (* the same pool still runs a full region afterwards *)
      let hits = Array.init 64 (fun _ -> Atomic.make 0) in
      Pool.run pool ~tasks:64 (fun i -> Atomic.incr hits.(i));
      Array.iteri
        (fun i c ->
          Alcotest.(check int) (Printf.sprintf "post-failure index %d" i) 1
            (Atomic.get c))
        hits)

(* with_pool shuts the workers down even when the body raises *)
let with_pool_bracket () =
  let escaped = ref None in
  (try
     Helpers.with_forced_pool 3 (fun pool ->
         escaped := Some pool;
         failwith "body")
   with Failure _ -> ());
  match !escaped with
  | None -> Alcotest.fail "body never ran"
  | Some pool ->
    (* double shutdown is idempotent; a shut-down pool rejects regions *)
    Pool.shutdown pool;
    Alcotest.check_raises "rejects after shutdown"
      (Invalid_argument "Domain_pool.run_ranged: pool is shut down")
      (fun () -> Pool.run pool ~tasks:4 (fun _ -> ()))

(* clamping: requested width never exceeds the core count by default,
   and the sequential fast path reports one participant *)
let clamps_and_fast_paths () =
  Helpers.with_watchdog (fun () ->
      Pool.with_pool ~domains:64 (fun pool ->
          Alcotest.(check int) "requested preserved" 64 (Pool.requested pool);
          Alcotest.(check bool) "clamped to cores" true
            (Pool.width pool <= Domain.recommended_domain_count ())));
  Helpers.with_forced_pool 4 (fun pool ->
      (* tasks <= 1 must not involve any worker *)
      let ran = ref [] in
      let used =
        Pool.run_ranged pool ~tasks:1 (fun ~worker ~lo ~hi ->
            ran := (worker, lo, hi) :: !ran)
      in
      Alcotest.(check int) "one participant" 1 used;
      Alcotest.(check (list (triple int int int))) "caller lane only"
        [ (0, 0, 1) ] !ran;
      let s = Pool.stats pool in
      Alcotest.(check int) "fast path counted sequential" 1
        s.Pool.sequential_runs);
  Alcotest.check_raises "domains < 1 rejected"
    (Invalid_argument "Domain_pool.create: domains < 1") (fun () ->
      ignore (Pool.create ~domains:0 ()))

(* participants never exceed the width, and with enough tasks every lane
   of an oversubscribed pool eventually participates in some region *)
let participants_bounded () =
  Helpers.with_forced_pool 3 (fun pool ->
      for _ = 1 to 5 do
        let used = Pool.run_ranged pool ~tasks:200 (fun ~worker:_ ~lo ~hi ->
            (* a little work so workers get a chance to claim *)
            let s = ref 0 in
            for i = lo to hi - 1 do s := !s + i done;
            Sys.opaque_identity !s |> ignore)
        in
        Alcotest.(check bool) "1 <= used <= width" true
          (used >= 1 && used <= Pool.width pool)
      done)

(* [run_ranged ~chunk]: claims sized by the caller still cover every
   index exactly once, and where no other lane races for the cursor —
   the sequential path — each claim ends where the hook says, here on
   multiples of 7 *)
let chunk_hook () =
  let tasks = 100 in
  let chunk ~pos ~default:_ = min tasks (((pos / 7) + 1) * 7) - pos in
  Helpers.with_forced_pool 3 (fun pool ->
      let counts = Array.init tasks (fun _ -> Atomic.make 0) in
      ignore
        (Pool.run_ranged ~chunk pool ~tasks (fun ~worker:_ ~lo ~hi ->
             for i = lo to hi - 1 do
               Atomic.incr counts.(i)
             done));
      Array.iteri
        (fun i c ->
          Alcotest.(check int)
            (Printf.sprintf "index %d runs once" i)
            1 (Atomic.get c))
        counts);
  Helpers.with_watchdog (fun () ->
      Pool.with_pool ~domains:1 (fun pool ->
          let claims = ref [] in
          ignore
            (Pool.run_ranged ~chunk pool ~tasks (fun ~worker:_ ~lo ~hi ->
                 claims := (lo, hi) :: !claims));
          Alcotest.(check (list (pair int int)))
            "sequential claims are the groups"
            (List.init 15 (fun g -> (7 * g, min tasks ((7 * g) + 7))))
            (List.rev !claims)))

(* a raising [chunk] hook is reraised once, whether it raises on the
   calling domain or on a worker, and the next region on the pool runs.
   The worker case makes sure a worker asks the hook: the caller's hook
   waits until one has. *)
let raising_chunk_hook () =
  Helpers.with_forced_pool 2 (fun pool ->
      let caller = Domain.self () in
      let tasks = 64 in
      let region ~raise_on =
        let asked = Atomic.make false in
        let chunk ~pos:_ ~default =
          let on_caller = Domain.self () = caller in
          if on_caller = (raise_on = `Caller) then begin
            Atomic.set asked true;
            failwith "hook"
          end;
          if on_caller then
            while not (Atomic.get asked) do
              Domain.cpu_relax ()
            done;
          default
        in
        match Pool.run_ranged ~chunk pool ~tasks (fun ~worker:_ ~lo:_ ~hi:_ -> ()) with
        | (_ : int) -> Alcotest.fail "the hook's exception was swallowed"
        | exception Failure msg -> Alcotest.(check string) "reraised" "hook" msg
      in
      List.iter
        (fun raise_on ->
          region ~raise_on;
          let counts = Array.init tasks (fun _ -> Atomic.make 0) in
          ignore
            (Pool.run_ranged pool ~tasks (fun ~worker:_ ~lo ~hi ->
                 for i = lo to hi - 1 do
                   Atomic.incr counts.(i)
                 done));
          Array.iteri
            (fun i c ->
              Alcotest.(check int)
                (Printf.sprintf "next region: index %d runs once" i)
                1 (Atomic.get c))
            counts)
        [ `Caller; `Worker ])

let suite =
  ( "domain_pool",
    [
      t "every index exactly once" exactly_once;
      t "chunks partition the index space" ranges_partition;
      t "pool reused across regions" reuse_across_runs;
      t "worker exception reraised, pool survives" exception_safe;
      t "with_pool shuts down on raise" with_pool_bracket;
      t "clamping and sequential fast path" clamps_and_fast_paths;
      t "participants bounded by width" participants_bounded;
      t "caller-sized chunks" chunk_hook;
      t "raising chunk hook reraised, pool survives" raising_chunk_hook;
    ] )
