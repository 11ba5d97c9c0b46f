(* The reference partial-order DP: [Podp.search]'s earlier level loop,
   in which the unit of parallel work is a whole subset.  A worker
   computes each claimed subset's cover in one pass, cartesian fallback,
   beam and numbering included, and the coordinator absorbs the covers
   in increasing mask order.  It searches the space [Podp] does: the
   subsets and sides [Space.joinable] admits, and, when a subset's
   connected extensions leave its cover empty, its cartesian ones.  The
   property tests compare [Podp.optimize] against it at every pool
   width: best plan, cover in element order, level sizes and counters
   must be identical.  [~memo] hands every memo
   entry to a test that prices joins of real memo plans. *)

module Cm = Parqo.Costmodel
module Bitset = Parqo.Bitset
module Domain_pool = Parqo.Domain_pool
module Env = Parqo.Env
module Space = Parqo.Space
module Cover = Parqo.Cover
module Budget = Parqo.Budget
module Search_stats = Parqo.Search_stats
module Metric = Parqo.Metric

(* An earlier incremental pricing, kept with the class term tables it
   served: [price_join] prices one join of two evaluated plans from
   their evaluations, leaves the bound's two terms in the scratch, and
   the DP records them per class ([record_class_terms]) to reject a
   capped candidate of a seen class without expanding it
   ([class_rejects]).  It builds the join's eval outright, and
   [materialized_twin] derives the materialized join from the
   pipelined one.  [Costmodel] now keeps whole shared entries and
   builds only what a cover admits; the reference loop still runs on
   these. *)
module Ref_cm = struct
  module Op = Parqo.Op
  module P = Parqo.Props
  module Descriptor = Parqo.Descriptor
  module Opcost = Parqo.Opcost

  let of_descriptor ~tree ~optree ~ordering descriptor =
    {
      Cm.tree;
      optree;
      descriptor;
      response_time = Descriptor.response_time descriptor;
      work = Descriptor.work descriptor;
      ordering;
    }

  type scratch = {
    ds : Descriptor.scratch;
    last : float array;
        (* [| outer term; inner term; bound |] of the last join priced *)
    class_limit : float array;  (* [| limit |] the class tables serve *)
    mutable slots : int;  (* table entries per class *)
    mutable outer_terms : float array;  (* (outer class, slot); nan: unseen *)
    mutable inner_terms : float array;  (* (inner class, slot); nan: unseen *)
  }

  let scratch (env : Env.t) =
    {
      ds = Descriptor.scratch env.placement.Parqo.Placement.dim;
      last = Array.make 3 0.;
      class_limit = [| infinity |];
      slots = 0;
      outer_terms = [||];
      inner_terms = [||];
    }

  let work_bound ~outer_work ~outer_term ~inner_term =
    outer_work +. outer_term +. inner_term

  let slack = 1e-9
  let over_limit ~limit bound = bound > limit *. (1. +. slack)

  let nan_table a n =
    let a =
      if Array.length a >= n then a
      else Array.make (max n (2 * Array.length a)) nan
    in
    Array.fill a 0 n nan;
    a

  let reset_classes s ~limit ~outer_classes ~inner_classes ~slots =
    s.class_limit.(0) <- limit;
    s.slots <- slots;
    s.outer_terms <- nan_table s.outer_terms (outer_classes * slots);
    s.inner_terms <- nan_table s.inner_terms (inner_classes * slots)

  let class_rejects s ~outer ~outer_class ~inner_class ~slot =
    let ot = s.outer_terms.((outer_class * s.slots) + slot)
    and it = s.inner_terms.((inner_class * s.slots) + slot) in
    (* nan <> nan: both terms recorded *)
    ot = ot && it = it
    && over_limit ~limit:s.class_limit.(0)
         (work_bound ~outer_work:outer.Cm.work ~outer_term:ot ~inner_term:it)

  let record_class_terms s ~outer_class ~inner_class ~slot =
    s.outer_terms.((outer_class * s.slots) + slot) <- s.last.(0);
    s.inner_terms.((inner_class * s.slots) + slot) <- s.last.(1)

  let rec side_bases (env : Env.t) stop (node : Op.node) acc =
    if node == stop then acc
    else
      match node.Op.children with
      | [ c ] ->
        side_bases env stop c
          ((node, Opcost.base env.placement env.estimator node) :: acc)
      | _ -> invalid_arg "Costmodel: join side is not a unary chain"

  let rec side_work acc = function
    | [] -> acc
    | (_, b) :: rest -> side_work (acc +. Descriptor.work b) rest

  let composed (node : Op.node) d =
    match node.Op.composition with
    | Op.Materialized -> Descriptor.sync d
    | Op.Pipelined -> d

  let rec compose_side s p d = function
    | [] -> d
    | (node, b) :: rest ->
      compose_side s p (composed node (Descriptor.pipe_s s p d b)) rest

  let check_sides (ctx : Cm.join_context) (oe : Cm.eval) (ie : Cm.eval) =
    if
      not
        (Bitset.equal (Parqo.Join_tree.relations oe.Cm.tree)
           ctx.Parqo.Expand.outer_rels
        && Bitset.equal (Parqo.Join_tree.relations ie.Cm.tree)
             ctx.Parqo.Expand.inner_rels)
    then invalid_arg "Costmodel.price_join: plans outside the join context"

  let price_join ~scratch ~limit (env : Env.t) (ctx : Cm.join_context)
      ~method_ ~clone ~outer:(oe : Cm.eval) ~inner:(ie : Cm.eval) : Cm.eval option
      =
    check_sides ctx oe ie;
    let root =
      Parqo.Expand.expand_join ~config:env.expand_config ctx ~method_ ~clone
        ~composition:Op.Pipelined ~outer:oe.Cm.optree ~inner:ie.Cm.optree
        ~outer_ordering:(Lazy.from_val oe.Cm.ordering)
        ~inner_ordering:(Lazy.from_val ie.Cm.ordering)
    in
    match root.Op.children with
    | [ l; r ] ->
      let rb = Opcost.base env.placement env.estimator root in
      let lb = side_bases env oe.Cm.optree l [] in
      let rbs = side_bases env ie.Cm.optree r [] in
      let free = Opcost.nl_inner_is_free root in
      let outer_term = side_work 0. lb in
      let inner_new = side_work (Descriptor.work rb) rbs in
      let inner_term = if free then inner_new else inner_new +. ie.Cm.work in
      let bound = work_bound ~outer_work:oe.Cm.work ~outer_term ~inner_term in
      scratch.last.(0) <- outer_term;
      scratch.last.(1) <- inner_term;
      scratch.last.(2) <- bound;
      if over_limit ~limit bound then None
      else begin
        let s = scratch.ds and p = env.dparams in
        let dl = compose_side s p oe.Cm.descriptor lb in
        let descriptor =
          if free then Descriptor.pipe_s s p dl rb
          else
            Descriptor.tree_s s p dl (compose_side s p ie.Cm.descriptor rbs) rb
        in
        let ordering =
          P.join_ordering method_ ~clone
            ~outer_key:(Lazy.from_val ctx.Parqo.Expand.outer_key)
            ~outer:(Lazy.from_val oe.Cm.ordering)
        in
        let tree =
          Parqo.Join_tree.join ~clone method_ ~outer:oe.Cm.tree
            ~inner:ie.Cm.tree
        in
        Some (of_descriptor ~tree ~optree:root ~ordering descriptor)
      end
    | _ -> invalid_arg "Costmodel: join root is not binary"

  (* The pipelined join [e] with its output materialized: the root's
     composition flipped and the descriptor synced, which is what
     [Cm.evaluate] computes of the materialized tree. *)
  let materialized_twin (e : Cm.eval) =
    match (e.Cm.optree, e.Cm.tree) with
    | ( { Op.composition = Op.Pipelined; _ },
        Parqo.Join_tree.Join
          { Parqo.Join_tree.method_; clone; outer; inner; materialize = false; _ }
      ) ->
      {
        e with
        Cm.tree =
          Parqo.Join_tree.join ~clone ~materialize:true method_ ~outer ~inner;
        optree = { e.Cm.optree with Op.composition = Op.Materialized };
        descriptor = Descriptor.sync e.Cm.descriptor;
      }
    | _ -> invalid_arg "materialized_twin: not a pipelined join"
end

(* Stable total key on plans: used to break exact rank ties so that beam
   pruning and final-plan selection are deterministic — independent of
   cover order, and therefore identical between the sequential and the
   domain-parallel search.  [Join_tree.key] is precomputed at plan
   construction, so a tie comparison costs no string building. *)
let plan_key (e : Cm.eval) = Parqo.Join_tree.key e.Cm.tree
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
  rejected : int;  (** of [generated], rejected by the work bound *)
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
    ~pool_stats0 ~plan_cache ~metric ~memo:on_memo (env : Env.t) =
  let gc0 = Search_stats.gc_sample () in
  let width = Domain_pool.width pool in
  let tracker = Budget.start budget in
  let gave_up = ref false in
  (* Incremental costing: every candidate at level l + 1 joins a
     memoized level-l plan with an access plan, both already evaluated,
     so pricing it costs only the new root operators (Ref_cm.price_join on a
     per-worker scratch, over a join context computed once per
     extension).  The memo arena and the level-1 access evaluations are
     the children's cache: nothing is looked up by key.  Each
     materialized candidate is the twin of the pipelined one generated
     just before it (Ref_cm.materialized_twin), and operator trees are
     numbered only when a plan enters the memo.  Under a work cap,
     candidates are bounded before they are composed, and per extension
     the bound's terms are kept per class (Ref_cm.class_rejects), so a capped
     candidate of a seen class is counted without being expanded.  With
     [plan_cache] off every candidate is evaluated from scratch instead —
     the reference the incremental path is bit-identical to. *)
  let scratches =
    if plan_cache then Array.init width (fun _ -> Ref_cm.scratch env) else [||]
  in
  let limit =
    match work_cap with None -> infinity | Some cap -> cap +. 1e-9
  in
  let bounded = work_cap <> None in
  let twins = config.Space.materialize_choices in
  let clones = Array.of_list config.Space.clone_degrees in
  let n_clones = Array.length clones in
  let methods_of ~joined = Array.of_list (Space.join_methods config ~joined) in
  let methods_joined = methods_of ~joined:true
  and methods_cartesian = methods_of ~joined:false in
  let apply_beam cover =
    match max_cover with
    | None -> ()
    | Some keep -> Cover.trim ~tie cover ~keep ~rank
  in
  let n = Env.n_relations env in
  let joinable = Space.joinable env in
  let stats = Search_stats.create () in
  (* One reusable flat cover per worker (index 0 doubles as the
     coordinator's): entry coordinates are materialized once per
     candidate into the cover's scratch row, dominance tests run on the
     flat dims array.  Cleared per subset, capacity retained. *)
  let covers =
    Array.init width (fun _ ->
        Cover.create ~n_dims:metric.Metric.arity
          ?refines:metric.Metric.refines ())
  in
  let cover_add cover e =
    metric.Metric.fill (Cm.eval_view e) (Cover.scratch cover);
    ignore (Cover.add cover (Cm.key_of e) e)
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
    memo_len.(mask) <- Cover.size cover;
    Cover.iter_newest_first (arena_push memo) cover
  in
  let level_sizes = Array.make (n + 1) 0 in
  (* per-relation access plans are annotation-independent of the level
     loop: generate and evaluate them once, as level 1 and as the inner
     side of every extension *)
  let access_evals =
    Array.init n (fun rel ->
        Array.of_list
          (List.map (Cm.evaluate env) (Space.access_plans env config rel)))
  in
  let admissible e = (not bounded) || e.Cm.work <= limit in
  (* The outer plans of one extension — [len] memo entries from [off] —
     grouped by the operators a join adds above them
     (Cm.outer_shape_equal): each plan's class, and the class count. *)
  let classify ~off ~len =
    let cls = Array.make len 0 and first = Array.make len 0 in
    let n_classes = ref 0 in
    for i = 0 to len - 1 do
      let p = memo.buf.(off + i) in
      let c = ref 0 in
      while
        !c < !n_classes
        && not (Cm.outer_shape_equal p memo.buf.(off + first.(!c)))
      do
        incr c
      done;
      if !c = !n_classes then begin
        first.(!c) <- i;
        incr n_classes
      end;
      cls.(i) <- !c
    done;
    (cls, !n_classes)
  in
  let level_start = ref (now_ms ()) in
  let finish_level ~level ~subsets ~generated ~cover_max ~used_domains =
    let t = now_ms () in
    Search_stats.observe_level stats
      {
        Search_stats.level;
        subsets;
        generated;
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
    Cover.clear cover;
    Array.iter
      (fun e ->
        Search_stats.generated stats 1;
        incr l1_ticks;
        if admissible e then cover_add cover e)
      access_evals.(rel);
    apply_beam cover;
    Search_stats.observe_cover stats (Cover.size cover);
    if Cover.size cover > !l1_cover_max then
      l1_cover_max := Cover.size cover;
    let mask = Bitset.to_int (Bitset.singleton rel) in
    absorb_cover ~mask cover;
    level_sizes.(1) <- level_sizes.(1) + memo_len.(mask)
  done;
  Budget.tick tracker !l1_ticks;
  (* stored sizes are recorded in level order, level 1 first *)
  if n > 0 then begin
    Search_stats.observe_stored stats level_sizes.(1);
    finish_level ~level:1 ~subsets:n ~generated:!l1_ticks
      ~cover_max:!l1_cover_max ~used_domains:1
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
    let subsets =
      Array.of_list (List.filter joinable (Bitset.subsets_of_size n ~size))
    in
    let n_subsets = Array.length subsets in
    let results : subset_result option array = Array.make n_subsets None in
    let compute ~worker ~ticks s =
      let considered = ref 0 and generated = ref 0 and rejected = ref 0 in
      let best_plans = covers.(worker) in
      Cover.clear best_plans;
      let tick () =
        incr ticks;
        if !ticks >= tick_grain then begin
          Budget.tick tracker !ticks;
          ticks := 0
        end
      in
      let consider e =
        incr generated;
        tick ();
        if admissible e then cover_add best_plans e
      in
      (* a candidate over the cap, and its materialized twin (same work) *)
      let reject () =
        incr generated;
        incr rejected;
        tick ();
        if twins then begin
          incr generated;
          incr rejected;
          tick ()
        end
      in
      (* every annotated join of the memo plans of [s_j] with the access
         plans of [j], in [Space.combine_candidates] order: per memo plan,
         access plan, method and clone degree, the pipelined join, then
         its materialized twin *)
      let join_all ~joined s_j j =
        let mask = Bitset.to_int s_j in
        let off = memo_off.(mask) and len = memo_len.(mask) in
        considered := !considered + len;
        let methods = if joined then methods_joined else methods_cartesian in
        let accs = access_evals.(j) in
        (* the candidate joining [p] and [a] with method [mi] and clone
           degree [ki], and its twin; the classes index the bound's
           terms *)
        let price =
          if plan_cache then begin
            let scratch = scratches.(worker) in
            let ctx =
              Cm.join_context env ~outer:s_j ~inner:(Bitset.singleton j)
            in
            fun p ~outer_class a ~inner_class ~mi ~ki ->
              let slot = (mi * n_clones) + ki in
              if
                bounded
                && Ref_cm.class_rejects scratch ~outer:p ~outer_class
                     ~inner_class ~slot
              then reject ()
              else begin
                (match
                   Ref_cm.price_join ~scratch ~limit env ctx
                     ~method_:methods.(mi) ~clone:clones.(ki) ~outer:p ~inner:a
                 with
                | Some c ->
                  consider c;
                  if twins then consider (Ref_cm.materialized_twin c)
                | None -> reject ());
                if bounded then
                  Ref_cm.record_class_terms scratch ~outer_class ~inner_class
                    ~slot
              end
          end
          else fun p ~outer_class:_ a ~inner_class:_ ~mi ~ki ->
            let evaluate materialize =
              consider
                (Cm.evaluate env
                   (Parqo.Join_tree.join ~clone:clones.(ki) ~materialize
                      methods.(mi) ~outer:p.Cm.tree ~inner:a.Cm.tree))
            in
            evaluate false;
            if twins then evaluate true
        in
        let plan_class =
          if not (bounded && plan_cache) then Array.make len 0
          else begin
            let cls, n_classes = classify ~off ~len in
            Ref_cm.reset_classes scratches.(worker) ~limit
              ~outer_classes:n_classes ~inner_classes:(Array.length accs)
              ~slots:(Array.length methods * n_clones);
            cls
          end
        in
        for i = 0 to len - 1 do
          let p = memo.buf.(off + i) in
          let outer_class = plan_class.(i) in
          for inner_class = 0 to Array.length accs - 1 do
            let a = accs.(inner_class) in
            for mi = 0 to Array.length methods - 1 do
              for ki = 0 to n_clones - 1 do
                price p ~outer_class a ~inner_class ~mi ~ki
              done
            done
          done
        done
      in
      let extend ~cartesian =
        Bitset.iter
          (fun j ->
            let s_j = Bitset.remove j s in
            let joined = Space.connects env s_j (Bitset.singleton j) in
            if joinable s_j && joined <> cartesian then join_all ~joined s_j j)
          s
      in
      extend ~cartesian:false;
      if Cover.size best_plans = 0 then extend ~cartesian:true;
      let cover_pre = Cover.size best_plans in
      apply_beam best_plans;
      (* the kept plans enter the memo: only they get node ids *)
      let arena = arenas.(worker) in
      let start = arena.len in
      let enter = if plan_cache then Cm.numbered else Fun.id in
      Cover.iter_newest_first
        (fun e -> arena_push arena (enter e))
        best_plans;
      {
        worker;
        start;
        len = arena.len - start;
        considered = !considered;
        generated = !generated;
        rejected = !rejected;
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
    let cover_max = ref 0 and level_generated = ref 0 in
    Array.iteri
      (fun i r ->
        match r with
        | None -> gave_up := true
        | Some r ->
          Search_stats.considered stats r.considered;
          Search_stats.generated stats r.generated;
          level_generated := !level_generated + r.generated;
          Search_stats.rejected stats r.rejected;
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
    finish_level ~level:size ~subsets:n_subsets ~generated:!level_generated
      ~cover_max:!cover_max ~used_domains
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
  Search_stats.observe_gc stats ~before:gc0 ~after:(Search_stats.gc_sample ());
  (* every memo entry, for the tests that price joins of real memo
     plans *)
  Array.iteri
    (fun mask len ->
      if len > 0 then
        on_memo (Bitset.of_int_unsafe mask)
          (Array.sub memo.buf memo_off.(mask) len))
    memo_len;
  { Parqo.Podp.best; cover; stats; level_sizes; gave_up = !gave_up }

let optimize ?(config = Space.default_config)
    ?(rank = fun (e : Cm.eval) -> e.Cm.response_time) ?work_cap
    ?(final_filter = fun _ -> true) ?max_cover ?(budget = Budget.unlimited)
    ?(domains = 1) ?pool ?(plan_cache = true) ?(memo = fun _ _ -> ()) ~metric
    (env : Env.t) =
  let go ~pool_stats0 pool =
    search ~config ~rank ~work_cap ~final_filter ~max_cover ~budget ~pool
      ~pool_stats0 ~plan_cache ~metric ~memo env
  in
  match pool with
  (* a persistent pool's spawns belong to whoever created it; an
     internal pool's whole lifetime belongs to this search *)
  | Some pool -> go ~pool_stats0:(Domain_pool.stats pool) pool
  | None ->
    Domain_pool.with_pool ~domains (go ~pool_stats0:Domain_pool.no_stats)
