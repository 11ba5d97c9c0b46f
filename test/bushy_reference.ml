(* The reference bushy DP: the search [Podp.optimize ~shape:Bushy]
   replaced, a second level loop that enumerates, for every relation
   subset, every ordered split into two non-empty disjoint parts and
   prices each candidate from scratch ([Costmodel.evaluate]).  It is kept
   as it was, but for three rules it now shares with [Podp]: the beam
   trims a cover once per subset (it trimmed on a 2x overshoot while
   adding), exact rank ties are broken by the plan key, in the beam and
   in the final choice, and the cartesian fallback runs when the
   connected splits leave a subset's cover empty (it ran only when they
   generated no candidate, so a work cap that rejected every connected
   candidate left the subset empty).  It searches the space [Podp] does:
   the subsets [Space.joinable] admits, split into two joinable sides,
   the cartesian splits only in the fallback.  The property tests
   compare the bushy search against it at every pool width: best plan,
   cover in element order, level sizes and [generated] must be
   identical. *)

module Cm = Parqo.Costmodel
module Bitset = Parqo.Bitset
module Env = Parqo.Env
module Space = Parqo.Space
module Cover = Parqo.Cover
module Metric = Parqo.Metric
module Search_stats = Parqo.Search_stats

type result = {
  best : Cm.eval option;
  cover : Cm.eval list;
  stats : Search_stats.t;
  level_sizes : int array;
}

let tie (a : Cm.eval) (b : Cm.eval) =
  String.compare (Parqo.Join_tree.key a.Cm.tree) (Parqo.Join_tree.key b.Cm.tree)

(* The common skeleton: per subset an abstract mutable accumulator [cell]
   collects candidate plans; splits are ordered pairs (S1, S2) of
   non-empty disjoint parts, so both operand orders are explored. *)
let run ~config ~make_cell ~add ~contents (env : Env.t) =
  let n = Env.n_relations env in
  let joinable = Space.joinable env in
  let stats = Search_stats.create () in
  let memo = Array.make (1 lsl n) [] in
  let level_sizes = Array.make (n + 1) 0 in
  for rel = 0 to n - 1 do
    Search_stats.considered stats 1;
    let cell = make_cell () in
    let trees = Space.access_plans env config rel in
    Search_stats.generated stats (List.length trees);
    List.iter (fun tree -> add stats cell (Cm.evaluate env tree)) trees;
    memo.(Bitset.to_int (Bitset.singleton rel)) <- contents cell
  done;
  level_sizes.(1) <-
    List.fold_left ( + ) 0
      (List.init n (fun r -> List.length memo.(Bitset.to_int (Bitset.singleton r))));
  for size = 2 to n do
    let subsets = List.filter joinable (Bitset.subsets_of_size n ~size) in
    List.iter
      (fun s ->
        let cell = make_cell () in
        let try_splits ~cartesian =
          List.iter
            (fun s1 ->
              let s2 = Bitset.diff s s1 in
              if
                joinable s1 && joinable s2
                && Space.connects env s1 s2 <> cartesian
              then begin
                Search_stats.considered stats 1;
                List.iter
                  (fun p1 ->
                    List.iter
                      (fun p2 ->
                        List.iter
                          (fun tree ->
                            Search_stats.generated stats 1;
                            add stats cell (Cm.evaluate env tree))
                          (Space.combine_candidates env config
                             ~outer:p1.Cm.tree ~inner:p2.Cm.tree))
                      memo.(Bitset.to_int s2))
                  memo.(Bitset.to_int s1)
              end)
            (Bitset.proper_nonempty_subsets s)
        in
        try_splits ~cartesian:false;
        if contents cell = [] then try_splits ~cartesian:true;
        let plans = contents cell in
        level_sizes.(size) <- level_sizes.(size) + List.length plans;
        memo.(Bitset.to_int s) <- plans)
      subsets;
    Search_stats.observe_stored stats level_sizes.(size)
  done;
  Search_stats.observe_stored stats level_sizes.(1);
  let final = if n = 0 then [] else memo.(Bitset.to_int (Bitset.full n)) in
  (final, stats, level_sizes)

let argmin rank plans =
  List.fold_left
    (fun acc e ->
      match acc with
      | None -> Some e
      | Some b ->
        let c = Float.compare (rank e) (rank b) in
        if c < 0 || (c = 0 && tie e b < 0) then Some e else Some b)
    None plans

let optimize_scalar ?(config = Space.default_config)
    ?(objective = fun (e : Cm.eval) -> e.Cm.work) (env : Env.t) =
  let make_cell () = ref None in
  let add _stats cell e =
    match !cell with
    | None -> cell := Some e
    | Some b -> if objective e < objective b then cell := Some e
  in
  let contents cell = Option.to_list !cell in
  let final, stats, level_sizes = run ~config ~make_cell ~add ~contents env in
  { best = argmin objective final; cover = final; stats; level_sizes }

let optimize_po ?(config = Space.default_config)
    ?(rank = fun (e : Cm.eval) -> e.Cm.response_time) ?work_cap
    ?(final_filter = fun _ -> true) ?max_cover ~metric (env : Env.t) =
  let admissible e =
    match work_cap with None -> true | Some cap -> e.Cm.work <= cap +. 1e-9
  in
  let make_cell () =
    Cover.create ~n_dims:metric.Metric.arity ?refines:metric.Metric.refines ()
  in
  let add stats cover e =
    if admissible e then begin
      metric.Metric.fill (Cm.eval_view e) (Cover.scratch cover);
      ignore (Cover.add cover (Cm.key_of e) e);
      Search_stats.observe_cover stats (Cover.size cover)
    end
  in
  let contents cover =
    (match max_cover with
    | None -> ()
    | Some keep -> Cover.trim ~tie cover ~keep ~rank);
    Cover.elements cover
  in
  let final, stats, level_sizes = run ~config ~make_cell ~add ~contents env in
  { best = argmin rank (List.filter final_filter final); cover = final; stats; level_sizes }
