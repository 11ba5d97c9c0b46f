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

(* One subset's post-beam cover: a slice of the arena of the worker that
   finished it, and the cover's size before the beam cut. *)
type subset_result = {
  worker : int;  (** arena holding the post-beam cover *)
  start : int;  (** slice start in that arena *)
  len : int;  (** slice length *)
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

(* One worker's partial cover of one subset: the cover of the candidates
   it priced there, each entry tagged with its unit, and their counts.
   The lane that finishes the subset empties it and hands it back to its
   owner through [free]. *)
type part = {
  mutable subset : int;  (** index of the subset in its level *)
  cover : (Cm.candidate, Cm.eval) Cover.t;
  mutable considered : int;
  mutable generated : int;
  mutable rejected : int;  (** of [generated], rejected by the work bound *)
  mutable entries : int;  (** shared pricing entries filled *)
  free : bool Atomic.t;
}

let now_ms () = Unix.gettimeofday () *. 1000.

(* Shared counters are touched per batch, not per candidate: each worker
   accumulates its expansion ticks locally and flushes them to the atomic
   budget tracker every [tick_grain] candidates (and at chunk end), so
   the cap can overshoot by at most [width × tick_grain] expansions in
   exchange for an uncontended hot loop. *)
let tick_grain = 1024

(* a subset's start decision: made once, by the first worker to touch it *)
let undecided = 0
let started = 1
let skipped = 2

(* Per worker: its partial covers ([n_parts] of them, reused once their
   subsets are finished), the cover it merges a subset's partial covers
   into, the arena of finished covers, and the extension it has loaded
   in its pricing scratch. *)
type lane = {
  mutable parts : part array;
  mutable n_parts : int;
  merged : (Cm.candidate, Cm.eval) Cover.t;
  arena : arena;
  mutable ext : int;  (** loaded extension, index in the pass; -1: none *)
  mutable price_plan : int -> unit;  (** prices memo plan [i] of [ext] *)
  mutable part : part;  (** where the priced candidates go: its newest *)
  mutable tag : int;  (** the unit they belong to *)
  mutable ticks : int;  (** expansions not yet flushed to the budget *)
}

let search ~shape ~config ~rank ~work_cap ~final_filter ~max_cover ~budget
    ~pool ~pool_stats0 ~plan_cache ~metric (env : Env.t) =
  let gc0 = Search_stats.gc_sample () in
  let width = Domain_pool.width pool in
  let tracker = Budget.start budget in
  let gave_up = ref false in
  (* Incremental costing: every candidate joins a memoized plan with an
     inner plan — an access plan (left-deep) or another memoized plan
     (bushy) — both already evaluated, so pricing it costs only the new
     root operators.  A lane loads each extension into its scratch
     (Cm.extension, over a join context computed once per extension),
     with the memo plans grouped into classes (Cm.outer_shape_equal):
     what a join's new operators cost is computed once per (inner plan,
     method, clone) and once per (class, method, clone), and a candidate
     costs one expansion and the composition of its outer side and root
     (Cm.price).  The memo arena and the level-1 access evaluations are
     the children's cache:
     nothing is looked up by key.  A priced candidate is tested against
     the partial cover before it is built: its coordinates are filled
     from its cost, and only a candidate the cover admits gets its join
     tree, key and eval (Cm.admit, which copies its descriptor out of
     the scratch).  Each materialized candidate is the twin of the
     pipelined one generated just before it (Cm.materialized_twin),
     tested after that one has entered, and operator trees are numbered
     only when a plan enters the memo.  Under a work cap a candidate is
     bounded from the entries before it is expanded.  With [plan_cache]
     off every candidate is evaluated from scratch instead — the
     reference the incremental path is bit-identical to. *)
  let scratches =
    if plan_cache then Array.init width (fun _ -> Cm.scratch env) else [||]
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
  let stats = Search_stats.create () in
  (* Flat covers: entry coordinates are materialized once per candidate
     into the cover's scratch row, dominance tests run on the flat dims
     array.  Cleared for reuse, capacity retained. *)
  let new_cover () =
    Cover.create ~n_dims:metric.Metric.arity ?refines:metric.Metric.refines ()
  in
  let cover_add cover e =
    metric.Metric.fill e (Cover.scratch cover);
    ignore (Cover.add cover (Cm.without_tree e) e)
  in
  let new_part () =
    {
      subset = -1;
      cover = new_cover ();
      considered = 0;
      generated = 0;
      rejected = 0;
      entries = 0;
      free = Atomic.make true;
    }
  in
  let no_part = new_part () in
  let lanes =
    Array.init width (fun _ ->
        {
          parts = [||];
          n_parts = 0;
          merged = new_cover ();
          arena = arena_create ();
          ext = -1;
          price_plan = ignore;
          part = no_part;
          tag = 0;
          ticks = 0;
        })
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
     side of every left-deep extension *)
  let access_evals =
    Array.init n (fun rel ->
        Array.of_list
          (List.map (Cm.evaluate env) (Space.access_plans env config rel)))
  in
  let admissible e = (not bounded) || e.Cm.work <= limit in
  (* an extension's inner plans: the access plans of its relation
     (left-deep), or the memo slice of its inner side (bushy) *)
  let inner_plans inner =
    match shape with
    | Space.Left_deep -> access_evals.(Bitset.choose inner)
    | Space.Bushy ->
      let mask = Bitset.to_int inner in
      Array.sub memo.buf memo_off.(mask) memo_len.(mask)
  in
  (* The outer plans of one extension — [len] memo entries from [off] —
     grouped by the operators a join adds above them
     (Cm.outer_shape_equal): each plan's class, each class's first plan,
     and the class count. *)
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
    (cls, first, !n_classes)
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
    let cover = lanes.(0).merged in
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
  let tick lane =
    lane.ticks <- lane.ticks + 1;
    if lane.ticks >= tick_grain then begin
      Budget.tick tracker lane.ticks;
      lane.ticks <- 0
    end
  in
  (* Count a candidate, then test it: within the cap and, its
     coordinates filled, not covered by the lane's partial cover.  The
     caller builds an admitted candidate's eval and [enter]s it. *)
  let admits lane c =
    let part = lane.part in
    part.generated <- part.generated + 1;
    tick lane;
    admissible c
    && begin
      metric.Metric.fill c (Cover.scratch part.cover);
      not (Cover.is_covered part.cover c)
    end
  in
  let enter lane c e = Cover.insert lane.part.cover ~tag:lane.tag c e in
  (* a priced join of [p] and [a], built only if admitted; the cover
     keeps the built plan's cost, not the scratch's *)
  let offer lane p a c =
    if admits lane c then begin
      let e = Cm.admit ~outer:p ~inner:a c in
      enter lane (Cm.without_tree e) e
    end
  in
  (* a candidate over the cap, and its materialized twin (same work) *)
  let reject lane =
    let part = lane.part in
    part.generated <- part.generated + 1;
    part.rejected <- part.rejected + 1;
    tick lane;
    if twins then begin
      part.generated <- part.generated + 1;
      part.rejected <- part.rejected + 1;
      tick lane
    end
  in
  (* Load the extension joining [outer] to [inner] into a lane:
     [price_plan i] then prices every annotated join of memo plan [i] of
     [outer] with the inner plans, in [Space.combine_candidates] order —
     per inner plan, method and clone degree, the pipelined join, then
     its materialized twin. *)
  let load ~worker lane ~outer ~inner ~joined =
    let mask = Bitset.to_int outer in
    let off = memo_off.(mask) and len = memo_len.(mask) in
    let methods = if joined then methods_joined else methods_cartesian in
    let inners = inner_plans inner in
    let cls, first, classes =
      if plan_cache then classify ~off ~len else (Array.make len 0, [||], 0)
    in
    (* the candidate joining [p] and [a] with method [mi] and clone
       degree [ki], and its twin *)
    let price =
      if plan_cache then begin
        let x =
          Cm.extension scratches.(worker) env
            (Cm.join_context env ~outer ~inner)
            ~inner:inners ~methods ~clones ~classes ~limit
        in
        fun p ~outer_class a ~inner ~mi ~ki ->
          match
            Cm.price x ~outer:p ~outer_class ~inner ~method_:mi ~clone:ki
          with
          | Some c ->
            offer lane p a c;
            if twins then offer lane p a (Cm.materialized_twin c)
          | None -> reject lane
      end
      else fun p ~outer_class:_ a ~inner:_ ~mi ~ki ->
        let evaluate materialize =
          let e =
            Cm.evaluate env
              (Parqo_plan.Join_tree.join ~clone:clones.(ki) ~materialize
                 methods.(mi) ~outer:p.Cm.tree ~inner:a.Cm.tree)
          in
          let c = Cm.without_tree e in
          if admits lane c then enter lane c e
        in
        evaluate false;
        if twins then evaluate true
    in
    let slots = Array.length methods * n_clones in
    lane.price_plan <-
      (fun i ->
        let p = memo.buf.(off + i) in
        let outer_class = cls.(i) in
        (* the shared entries a lane pricing the extension alone fills:
           the inner ones at its first plan, a class's outer ones at the
           class's first plan — so the count is the same at every
           width *)
        if plan_cache then begin
          let part = lane.part in
          if i = 0 then
            part.entries <- part.entries + (Array.length inners * slots);
          if first.(outer_class) = i then part.entries <- part.entries + slots
        end;
        for inner = 0 to Array.length inners - 1 do
          let a = inners.(inner) in
          for mi = 0 to Array.length methods - 1 do
            for ki = 0 to n_clones - 1 do
              price p ~outer_class a ~inner ~mi ~ki
            done
          done
        done)
  in
  let enter = if plan_cache then Cm.numbered else Fun.id in
  (* The level loop.  Within a level every subset's cover depends only on
     the memo slices of strictly smaller subsets (written at earlier
     barriers), so its candidates are independent and level boundaries
     are barriers.  The unit of parallel work is one memo plan of the
     outer side of one extension of one subset: the level's units, in
     the sequential candidate order (subsets in mask order, extensions
     in their order, memo plans in memo order), are claimed in ranges
     across the pool — whole subsets while enough remain.  A lane folds
     the candidates of its units into one partial cover per subset it
     reaches, each entry tagged with its unit.  The lane that prices a
     subset's last unit folds the subset's partial covers in tag order
     (Cover.merge) — which is the sequential cover, element order
     included (the merge lemma, MODEL.md §12) — or takes a lone one as
     is; then come the cartesian fallback for an empty cover, the beam
     and the numbering.  After the barrier the coordinator absorbs the
     finished covers into the memo in increasing mask order.  At width 1
     this is the sequential loop. *)
  for size = 2 to n do
    let subsets = Array.of_list (Bitset.subsets_of_size n ~size) in
    let n_subsets = Array.length subsets in
    let results : subset_result option array = Array.make n_subsets None in
    (* per subset, summed over its partial covers when it is finished and
       added to the stats in mask order — the merge, not the scheduling,
       decides accumulation order *)
    let considered = Array.make n_subsets 0
    and generated = Array.make n_subsets 0
    and rejected = Array.make n_subsets 0
    and entries = Array.make n_subsets 0 in
    (* Budget: a subset starts only if the budget is not exhausted when a
       worker first touches it — one atomic decision, so racing workers
       agree — and a started subset is completed, fallback included. *)
    let state = Array.init n_subsets (fun _ -> Atomic.make undecided) in
    let decide i =
      let st = state.(i) in
      if Atomic.get st = undecided then
        ignore
          (Atomic.compare_and_set st undecided
             (if Budget.exhausted tracker then skipped else started));
      Atomic.get st = started
    in
    (* each subset's extensions, as (outer side, inner side, connected,
       units): left-deep, relation j joined to S - j, in [Bitset.iter]
       order; bushy, the splits (S1, S - S1) in
       [Bitset.proper_nonempty_subsets] order.  A unit is one memo plan
       of the outer side; an extension whose inner side has no plan has
       no unit *)
    let extensions =
      Array.map
        (fun s ->
          let extension outer =
            let inner = Bitset.diff s outer in
            let units =
              if shape = Space.Bushy && memo_len.(Bitset.to_int inner) = 0
              then 0
              else memo_len.(Bitset.to_int outer)
            in
            (outer, inner, Space.connects env outer inner, units)
          in
          List.map extension
            (match shape with
            | Space.Left_deep ->
              List.map (fun j -> Bitset.remove j s) (Bitset.to_list s)
            | Space.Bushy -> Bitset.proper_nonempty_subsets s))
        subsets
    in
    (* [all.(i)]: subset [i] prices every extension, cartesian ones
       included — at once when no connected extension has a candidate,
       else in a second pass when the connected candidates leave its
       cover empty *)
    let all =
      Array.map
        (List.for_all (fun (_, _, joined, len) -> (not joined) || len = 0))
        extensions
    in
    let used_domains = ref 1 in
    (* [again.(i)]: subset [i]'s connected candidates left its cover
       empty, so it runs the cartesian fallback in a second pass *)
    let again = Array.make n_subsets false in
    (* Finish subset [i] from its partial covers: fold them in tag order
       (a lone one is taken as is), then the fallback check, the beam and
       the numbering.  The kept plans go to the finishing lane's arena;
       the candidates are let go. *)
    let finish ~worker i parts =
      List.iter
        (fun p ->
          considered.(i) <- considered.(i) + p.considered;
          generated.(i) <- generated.(i) + p.generated;
          rejected.(i) <- rejected.(i) + p.rejected;
          entries.(i) <- entries.(i) + p.entries)
        parts;
      let lane = lanes.(worker) in
      let cover =
        match parts with
        | [ p ] -> p.cover
        | parts ->
          Cover.clear lane.merged;
          Cover.merge ~into:lane.merged (List.map (fun p -> p.cover) parts);
          lane.merged
      in
      if Cover.size cover = 0 && not all.(i) then again.(i) <- true
      else begin
        let cover_pre = Cover.size cover in
        apply_beam cover;
        (* the kept plans enter the memo: only they get node ids *)
        let arena = lane.arena in
        let start = arena.len in
        Cover.iter_newest_first (fun e -> arena_push arena (enter e)) cover;
        results.(i) <-
          Some { worker; start; len = arena.len - start; cover_pre };
        Cover.clear cover
      end;
      List.iter
        (fun p ->
          Cover.clear p.cover;
          Atomic.set p.free true)
        parts
    in
    let pass ids =
      (* the pass's unit table: its extensions with candidates, in
         candidate order, and each one's first unit (strictly ascending) *)
      let table = ref [] and firsts = ref [] and n_units = ref 0 in
      let units = Array.make n_subsets 0 in
      Array.iter
        (fun i ->
          List.iter
            (fun (outer, inner, joined, len) ->
              if (all.(i) || joined) && len > 0 then begin
                table := (i, outer, inner, joined) :: !table;
                firsts := !n_units :: !firsts;
                n_units := !n_units + len;
                units.(i) <- units.(i) + len
              end)
            extensions.(i))
        ids;
      let table = Array.of_list (List.rev !table) in
      let n_ext = Array.length table in
      (* [first.(x)]: extension [x]'s first unit; [first.(n_ext)]: the
         pass's unit count *)
      let first = Array.of_list (List.rev (!n_units :: !firsts)) in
      (* the extension holding unit [u] *)
      let rec find u lo hi =
        if hi - lo <= 1 then lo
        else
          let mid = (lo + hi) / 2 in
          if first.(mid) <= u then find u mid hi else find u lo mid
      in
      (* a started subset's units not yet priced: the lane that prices
         the last of them finishes the subset, and then no lane touches
         its partial covers any more *)
      let remaining = Array.map Atomic.make units in
      (* each lane's partial cover of each subset, by (subset, lane) *)
      let slots = Array.make (n_subsets * width) no_part in
      let parts_of i =
        let acc = ref [] in
        for w = width - 1 downto 0 do
          let p = slots.((i * width) + w) in
          if p != no_part then acc := p :: !acc
        done;
        !acc
      in
      (* the lane's partial cover of subset [i]: a lane reaches subsets
         in ascending order, so it is the newest part, or a free one *)
      let part_for ~worker lane i =
        if lane.part.subset = i then lane.part
        else begin
          let rec find_free k =
            if k = lane.n_parts then begin
              if k = Array.length lane.parts then
                lane.parts <-
                  Array.append lane.parts
                    (Array.init (max 1 k) (fun _ -> new_part ()));
              lane.n_parts <- k + 1;
              lane.parts.(k)
            end
            else if Atomic.get lane.parts.(k).free then lane.parts.(k)
            else find_free (k + 1)
          in
          let p = find_free 0 in
          Atomic.set p.free false;
          p.subset <- i;
          p.considered <- 0;
          p.generated <- 0;
          p.rejected <- 0;
          p.entries <- 0;
          slots.((i * width) + worker) <- p;
          lane.part <- p;
          p
        end
      in
      Array.iter
        (fun lane ->
          lane.part <- no_part;
          lane.ext <- -1)
        lanes;
      let claimed ~worker ~lo ~hi =
        let lane = lanes.(worker) in
        let u = ref lo and x = ref (find lo 0 n_ext) in
        while !u < hi do
          let i, outer, inner, joined = table.(!x) and f = first.(!x) in
          let stop = min hi first.(!x + 1) in
          if decide i then begin
            if lane.ext <> !x then begin
              load ~worker lane ~outer ~inner ~joined;
              lane.ext <- !x
            end;
            let part = part_for ~worker lane i in
            for unit = !u to stop - 1 do
              part.considered <- part.considered + 1;
              lane.tag <- unit;
              lane.price_plan (unit - f)
            done;
            let n = stop - !u in
            if Atomic.fetch_and_add remaining.(i) (-n) = n then
              finish ~worker i (parts_of i)
          end;
          u := stop;
          incr x
        done;
        if lane.ticks > 0 then begin
          Budget.tick tracker lane.ticks;
          lane.ticks <- 0
        end
      in
      (* A claim takes the rest of its subset while more subsets remain
         than lanes, and the pool's shrinking ranges otherwise: a subset
         split across lanes keeps a partial cover per lane alive until it
         is finished, which costs memory, so only the last [width]
         subsets — the top level's one among them — are split, to keep
         every lane busy. *)
      let sub_end = Array.make n_subsets 0 and after = Array.make n_subsets 0 in
      let n_after = ref 0 in
      for x = n_ext - 1 downto 0 do
        let i, _, _, _ = table.(x) in
        if sub_end.(i) = 0 then begin
          sub_end.(i) <- first.(x + 1);
          after.(i) <- !n_after;
          incr n_after
        end
      done;
      let chunk ~pos ~default =
        let i, _, _, _ = table.(find pos 0 n_ext) in
        if after.(i) >= width then sub_end.(i) - pos else default
      in
      let ran =
        Domain_pool.run_ranged ~chunk pool ~tasks:first.(n_ext) claimed
      in
      if ran > !used_domains then used_domains := ran;
      (* a subset without units is decided, and finished, at the barrier *)
      Array.iter
        (fun i -> if units.(i) = 0 && decide i then finish ~worker:0 i [])
        ids
    in
    pass (Array.init n_subsets Fun.id);
    let fallback =
      List.filter (fun i -> again.(i)) (List.init n_subsets Fun.id)
    in
    if fallback <> [] then begin
      List.iter (fun i -> all.(i) <- true) fallback;
      pass (Array.of_list fallback)
    end;
    let cover_max = ref 0 in
    Array.iteri
      (fun i r ->
        match r with
        | None -> gave_up := true
        | Some r ->
          Search_stats.considered stats considered.(i);
          Search_stats.generated stats generated.(i);
          Search_stats.rejected stats rejected.(i);
          Search_stats.entries stats entries.(i);
          Search_stats.observe_cover stats r.cover_pre;
          if r.cover_pre > !cover_max then cover_max := r.cover_pre;
          level_sizes.(size) <- level_sizes.(size) + r.len;
          let mask = Bitset.to_int subsets.(i) in
          memo_off.(mask) <- memo.len;
          memo_len.(mask) <- r.len;
          let src = lanes.(r.worker).arena in
          if r.len > 0 then begin
            arena_room memo r.len src.buf.(r.start);
            Array.blit src.buf r.start memo.buf memo.len r.len;
            memo.len <- memo.len + r.len
          end)
      results;
    (* worker arenas are consumed; recycle them for the next level *)
    Array.iter (fun lane -> lane.arena.len <- 0) lanes;
    Search_stats.observe_stored stats level_sizes.(size);
    finish_level ~level:size ~subsets:n_subsets
      ~generated:(Array.fold_left ( + ) 0 generated)
      ~cover_max:!cover_max ~used_domains:!used_domains
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
  Search_stats.observe_gc stats ~before:gc0
    ~after:(Search_stats.gc_sample ());
  { best; cover; stats; level_sizes; gave_up = !gave_up }

let optimize ?(shape = Space.Left_deep) ?(config = Space.default_config)
    ?(rank = fun (e : Cm.eval) -> e.Cm.response_time) ?work_cap
    ?(final_filter = fun _ -> true) ?max_cover ?(budget = Budget.unlimited)
    ?(domains = 1) ?pool ?(plan_cache = true) ~metric (env : Env.t) =
  let go ~pool_stats0 pool =
    search ~shape ~config ~rank ~work_cap ~final_filter ~max_cover ~budget
      ~pool ~pool_stats0 ~plan_cache ~metric env
  in
  match pool with
  (* a persistent pool's spawns belong to whoever created it; an
     internal pool's whole lifetime belongs to this search *)
  | Some pool -> go ~pool_stats0:(Domain_pool.stats pool) pool
  | None ->
    Domain_pool.with_pool ~domains (go ~pool_stats0:Domain_pool.no_stats)
