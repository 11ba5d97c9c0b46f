module Cm = Parqo_cost.Costmodel
module Bitset = Parqo_util.Bitset
module Domain_pool = Parqo_util.Domain_pool
module Env = Parqo_cost.Env

type result = {
  best : Cm.eval option;
  cover : Cm.eval list;
  stats : Search_stats.t;
  level_sizes : int array;
  gave_up : bool;
}

(* Stable total key on plans: used to break exact rank ties so that beam
   pruning and final-plan selection are deterministic — independent of
   cover order, and therefore identical between the sequential and the
   domain-parallel search.  [Join_tree.key] is precomputed at plan
   construction, so a tie comparison costs no string building. *)
let plan_key (e : Cm.eval) = Parqo_plan.Join_tree.key e.Cm.tree
let tie a b = String.compare (plan_key a) (plan_key b)

(* Outcome of one subset's cover computation, produced by a worker domain
   into its own arena and merged by the coordinator.  Counters ride along
   instead of being written to the shared stats record so the merge — not
   the scheduling — decides accumulation order. *)
type subset_result = {
  worker : int;  (** arena holding the post-beam cover *)
  start : int;  (** slice start in that arena *)
  len : int;  (** slice length *)
  considered : int;
  generated : int;
  cover_pre : int;  (** cover size before the beam cut *)
}

(* A growable append-only plan buffer.  Worker arenas collect each
   subset's post-beam cover as a contiguous slice (newest first, the
   cover's [elements] order); the coordinator's memo arena absorbs those
   slices at the level barrier, in increasing subset-mask order, so the
   memo layout — and everything downstream — is bit-identical to the
   sequential run's. *)
type arena = { mutable buf : Cm.eval array; mutable len : int }

let arena_create () = { buf = [||]; len = 0 }

let arena_room a n seed =
  if a.len + n > Array.length a.buf then begin
    let cap = max (a.len + n) (max 64 (2 * Array.length a.buf)) in
    let buf = Array.make cap seed in
    Array.blit a.buf 0 buf 0 a.len;
    a.buf <- buf
  end

let arena_push a e =
  arena_room a 1 e;
  a.buf.(a.len) <- e;
  a.len <- a.len + 1

let now_ms () = Unix.gettimeofday () *. 1000.

(* Shared counters are touched per batch, not per candidate: each worker
   accumulates its expansion ticks locally and flushes them to the atomic
   budget tracker every [tick_grain] candidates (and at chunk end), so
   the cap can overshoot by at most [width × tick_grain] expansions in
   exchange for an uncontended hot loop. *)
let tick_grain = 1024

let search ~config ~rank ~work_cap ~final_filter ~max_cover ~budget ~pool
    ~pool_stats0 ~plan_cache ~metric (env : Env.t) =
  let gc0 = Gc.quick_stat () in
  let width = Domain_pool.width pool in
  let tracker = Budget.start budget in
  let gave_up = ref false in
  (* Incremental costing: every candidate at level l + 1 joins a
     memoized level-l plan with an access plan, both already evaluated,
     so pricing it costs only the new root operators (Cm.price_join on a
     per-worker descriptor scratch).  The memo arena and the level-1
     access evaluations are the children's cache: nothing is looked up
     by key.  Each materialized candidate is the twin of the pipelined
     one generated just before it (Cm.materialized_twin), and operator
     trees are numbered only when a plan enters the memo.  With
     [plan_cache] off every candidate is evaluated from scratch instead —
     the reference the incremental path is bit-identical to. *)
  let scratches =
    if plan_cache then Array.init width (fun _ -> Cm.scratch env) else [||]
  in
  let apply_beam cover =
    match max_cover with
    | None -> ()
    | Some keep -> Cover.Flat.trim ~tie cover ~keep ~rank
  in
  let n = Env.n_relations env in
  let stats = Search_stats.create () in
  (* One reusable flat cover per worker (index 0 doubles as the
     coordinator's): entry coordinates are materialized once per
     candidate into the cover's scratch row, dominance tests run on the
     flat dims array.  Cleared per subset, capacity retained. *)
  let covers =
    Array.init width (fun _ ->
        Cover.Flat.create ~n_dims:metric.Metric.arity
          ?refines:metric.Metric.refines ())
  in
  let cover_add cover e =
    Metric.fill_dims metric e (Cover.Flat.scratch cover);
    ignore (Cover.Flat.add cover e)
  in
  (* The memo: one contiguous slice of the coordinator's arena per
     subset mask, in the cover's [elements] order (newest first).  Memo
     entries are only read as plans (their pruning coordinates matter
     only during their own subset's cover maintenance), so the arena
     stores bare evaluations — no per-entry dims rows retained. *)
  let memo = arena_create () in
  let memo_off = Array.make (1 lsl n) 0 in
  let memo_len = Array.make (1 lsl n) 0 in
  let absorb_cover ~mask cover =
    memo_off.(mask) <- memo.len;
    memo_len.(mask) <- Cover.Flat.size cover;
    Cover.Flat.iter_newest_first (arena_push memo) cover
  in
  let level_sizes = Array.make (n + 1) 0 in
  (* per-relation access plans are annotation-independent of the level
     loop: generate and evaluate them once, as level 1 and as the inner
     side of every extension *)
  let access_evals =
    Array.init n (fun rel ->
        List.map (Cm.evaluate env) (Space.access_plans env config rel))
  in
  let admissible e =
    match work_cap with None -> true | Some cap -> e.Cm.work <= cap +. 1e-9
  in
  let level_start = ref (now_ms ()) in
  let finish_level ~level ~subsets ~cover_max ~used_domains =
    let t = now_ms () in
    Search_stats.observe_level stats
      {
        Search_stats.level;
        subsets;
        stored = level_sizes.(level);
        cover_max;
        wall_ms = t -. !level_start;
        domains = used_domains;
      };
    level_start := t
  in
  (* accessPlans — always generated, so even an exhausted budget leaves
     single-relation plans for the caller's fallback logic *)
  let l1_cover_max = ref 0 in
  let l1_ticks = ref 0 in
  for rel = 0 to n - 1 do
    Search_stats.considered stats 1;
    let cover = covers.(0) in
    Cover.Flat.clear cover;
    List.iter
      (fun e ->
        Search_stats.generated stats 1;
        incr l1_ticks;
        if admissible e then cover_add cover e)
      access_evals.(rel);
    apply_beam cover;
    Search_stats.observe_cover stats (Cover.Flat.size cover);
    if Cover.Flat.size cover > !l1_cover_max then
      l1_cover_max := Cover.Flat.size cover;
    let mask = Bitset.to_int (Bitset.singleton rel) in
    absorb_cover ~mask cover;
    level_sizes.(1) <- level_sizes.(1) + memo_len.(mask)
  done;
  Budget.tick tracker !l1_ticks;
  (* stored sizes are recorded in level order, level 1 first *)
  if n > 0 then begin
    Search_stats.observe_stored stats level_sizes.(1);
    finish_level ~level:1 ~subsets:n ~cover_max:!l1_cover_max ~used_domains:1
  end;
  (* The level loop: within a level every subset's cover depends only on
     the memo slices of strictly smaller subsets (written at earlier
     barriers), so the subsets of one size are embarrassingly parallel
     and level boundaries are barriers.  Workers append each subset's
     post-beam cover to their own arena; the coordinator absorbs the
     slices into the memo arena in increasing mask order, making the
     result bit-identical to the sequential (domains = 1) run. *)
  let arenas = Array.init width (fun _ -> arena_create ()) in
  for size = 2 to n do
    let subsets = Array.of_list (Bitset.subsets_of_size n ~size) in
    let n_subsets = Array.length subsets in
    let results : subset_result option array = Array.make n_subsets None in
    let compute ~worker ~ticks s =
      let considered = ref 0 and generated = ref 0 in
      let best_plans = covers.(worker) in
      Cover.Flat.clear best_plans;
      let consider e =
        incr generated;
        incr ticks;
        if !ticks >= tick_grain then begin
          Budget.tick tracker !ticks;
          ticks := 0
        end;
        if admissible e then cover_add best_plans e
      in
      (* one annotated join of [p] and [a] for each materialization
         choice, in [Space.combine_candidates] order: pipelined, then
         its materialized twin *)
      let price =
        if plan_cache then begin
          let scratch = scratches.(worker) in
          fun ~method_ ~clone p a ->
            let e =
              Cm.price_join ~scratch env ~method_ ~clone ~outer:p ~inner:a
            in
            consider e;
            if config.Space.materialize_choices then
              consider (Cm.materialized_twin e)
        end
        else fun ~method_ ~clone p a ->
          let evaluate materialize =
            consider
              (Cm.evaluate env
                 (Parqo_plan.Join_tree.join ~clone ~materialize method_
                    ~outer:p.Cm.tree ~inner:a.Cm.tree))
          in
          evaluate false;
          if config.Space.materialize_choices then evaluate true
      in
      let extend ~require_connection =
        Bitset.iter
          (fun j ->
            let s_j = Bitset.remove j s in
            let joined = Space.connects env s_j (Bitset.singleton j) in
            if (not require_connection) || joined then begin
              let methods = Space.join_methods config ~joined in
              let mask = Bitset.to_int s_j in
              let off = memo_off.(mask) in
              for k = off to off + memo_len.(mask) - 1 do
                let p = memo.buf.(k) in
                incr considered;
                List.iter
                  (fun a ->
                    List.iter
                      (fun method_ ->
                        List.iter
                          (fun clone -> price ~method_ ~clone p a)
                          config.Space.clone_degrees)
                      methods)
                  access_evals.(j)
              done
            end)
          s
      in
      extend ~require_connection:true;
      if Cover.Flat.size best_plans = 0 then extend ~require_connection:false;
      let cover_pre = Cover.Flat.size best_plans in
      apply_beam best_plans;
      (* the kept plans enter the memo: only they get node ids *)
      let arena = arenas.(worker) in
      let start = arena.len in
      let enter = if plan_cache then Cm.numbered else Fun.id in
      Cover.Flat.iter_newest_first
        (fun e -> arena_push arena (enter e))
        best_plans;
      {
        worker;
        start;
        len = arena.len - start;
        considered = !considered;
        generated = !generated;
        cover_pre;
      }
    in
    (* One budget check (a clock read under time caps) per claimed chunk,
       not per subset: an exhausted budget skips the chunk whole, leaving
       its result slots empty — same semantics as the per-subset check at
       a coarser cancellation granularity. *)
    let used_domains =
      Domain_pool.run_ranged pool ~tasks:n_subsets
        (fun ~worker ~lo ~hi ->
          if not (Budget.exhausted tracker) then begin
            let ticks = ref 0 in
            for i = lo to hi - 1 do
              results.(i) <- Some (compute ~worker ~ticks subsets.(i))
            done;
            if !ticks > 0 then Budget.tick tracker !ticks
          end)
    in
    let cover_max = ref 0 in
    Array.iteri
      (fun i r ->
        match r with
        | None -> gave_up := true
        | Some r ->
          Search_stats.considered stats r.considered;
          Search_stats.generated stats r.generated;
          Search_stats.observe_cover stats r.cover_pre;
          if r.cover_pre > !cover_max then cover_max := r.cover_pre;
          level_sizes.(size) <- level_sizes.(size) + r.len;
          let mask = Bitset.to_int subsets.(i) in
          memo_off.(mask) <- memo.len;
          memo_len.(mask) <- r.len;
          let src = arenas.(r.worker) in
          if r.len > 0 then begin
            arena_room memo r.len src.buf.(r.start);
            Array.blit src.buf r.start memo.buf memo.len r.len;
            memo.len <- memo.len + r.len
          end)
      results;
    (* worker arenas are consumed; recycle them for the next level *)
    Array.iter (fun a -> a.len <- 0) arenas;
    Search_stats.observe_stored stats level_sizes.(size);
    finish_level ~level:size ~subsets:n_subsets ~cover_max:!cover_max
      ~used_domains
  done;
  Search_stats.observe_pool stats
    (Domain_pool.diff_stats pool_stats0 (Domain_pool.stats pool));
  let cover =
    if n = 0 then []
    else begin
      let mask = Bitset.to_int (Bitset.full n) in
      let acc = ref [] in
      for k = memo_off.(mask) + memo_len.(mask) - 1 downto memo_off.(mask) do
        acc := memo.buf.(k) :: !acc
      done;
      !acc
    end
  in
  let best =
    List.filter final_filter cover
    |> List.fold_left
         (fun acc e ->
           match acc with
           | None -> Some e
           | Some b ->
             let c = Float.compare (rank e) (rank b) in
             if c < 0 || (c = 0 && tie e b < 0) then Some e else Some b)
         None
  in
  Search_stats.observe_gc stats ~before:gc0 ~after:(Gc.quick_stat ());
  { best; cover; stats; level_sizes; gave_up = !gave_up }

let optimize ?(config = Space.default_config)
    ?(rank = fun (e : Cm.eval) -> e.Cm.response_time) ?work_cap
    ?(final_filter = fun _ -> true) ?max_cover ?(budget = Budget.unlimited)
    ?(domains = 1) ?pool ?(plan_cache = true) ~metric (env : Env.t) =
  let go ~pool_stats0 pool =
    search ~config ~rank ~work_cap ~final_filter ~max_cover ~budget ~pool
      ~pool_stats0 ~plan_cache ~metric env
  in
  match pool with
  (* a persistent pool's spawns belong to whoever created it; an
     internal pool's whole lifetime belongs to this search *)
  | Some pool -> go ~pool_stats0:(Domain_pool.stats pool) pool
  | None ->
    Domain_pool.with_pool ~domains (go ~pool_stats0:Domain_pool.no_stats)
