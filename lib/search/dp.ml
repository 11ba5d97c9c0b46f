module Cm = Parqo_cost.Costmodel
module Bitset = Parqo_util.Bitset
module Env = Parqo_cost.Env

type result = {
  best : Cm.eval option;
  stats : Search_stats.t;
  level_sizes : int array;
}

(* Every candidate joins the memo winner of a smaller subset with an
   access plan, both already evaluated, so it is priced incrementally
   (Cm.price_join over a join context computed once per extension), and
   it is built (Cm.admit) only when it beats the incumbent; only the
   final plan's operator tree is numbered.  The fold keeps the first
   candidate of least objective (strict [<]).  Under the default
   objective, total work, a candidate can therefore win only if its work
   is below the incumbent's: it is priced with the incumbent's work as
   the limit, and one whose work bound exceeds it is dropped before it is
   composed.  Its materialized twin has the same work, so it can never
   win either and is only counted.  A custom objective prices every
   candidate and its twin. *)
let optimize ?(config = Space.default_config) ?objective (env : Env.t) =
  let gc0 = Gc.quick_stat () in
  let n = Env.n_relations env in
  let stats = Search_stats.create () in
  let bounded, objective =
    match objective with
    | None -> (true, fun (c : Cm.candidate) -> c.Cm.work)
    | Some f -> (false, f)
  in
  let memo : Cm.eval option array = Array.make (1 lsl n) None in
  let level_sizes = Array.make (n + 1) 0 in
  (* accessPlan; the evaluations double as the inner side of every
     extension *)
  let access_evals =
    Array.init n (fun rel ->
        List.map (Cm.evaluate env) (Space.access_plans env config rel))
  in
  for rel = 0 to n - 1 do
    Search_stats.considered stats 1;
    Search_stats.generated stats (List.length access_evals.(rel));
    memo.(Bitset.to_int (Bitset.singleton rel)) <-
      fst
        (List.fold_left
           (fun (best, best_obj) e ->
             let o = objective (Cm.without_tree e) in
             if Option.is_none best || o < best_obj then (Some e, o)
             else (best, best_obj))
           (None, infinity) access_evals.(rel))
  done;
  level_sizes.(1) <- n;
  let scratch = Cm.scratch env in
  let twins = config.Space.materialize_choices in
  let per_candidate = if twins then 2 else 1 in
  (* increasingly larger subsets *)
  for size = 2 to n do
    let subsets = Bitset.subsets_of_size n ~size in
    List.iter
      (fun s ->
        let best = ref None and best_obj = ref infinity in
        (* build [c], a join of [p] and [a], if it beats the incumbent *)
        let keep p a c =
          let o = objective c in
          if Option.is_none !best || o < !best_obj then begin
            best := Some (Cm.admit ~outer:p ~inner:a c);
            best_obj := o
          end
        in
        let price ctx p a ~method_ ~clone =
          let limit =
            match !best with
            | Some (b : Cm.eval) when bounded -> b.Cm.work
            | _ -> infinity
          in
          Search_stats.generated stats per_candidate;
          match
            Cm.price_join ~scratch ~limit env ctx ~method_ ~clone ~outer:p
              ~inner:a
          with
          | None -> Search_stats.rejected stats per_candidate
          | Some c ->
            keep p a c;
            if twins && not bounded then keep p a (Cm.materialized_twin c)
        in
        let extend ~require_connection =
          Bitset.iter
            (fun j ->
              let s_j = Bitset.remove j s in
              match memo.(Bitset.to_int s_j) with
              | None -> ()
              | Some p ->
                let inner = Bitset.singleton j in
                let joined = Space.connects env s_j inner in
                if joined || not require_connection then begin
                  Search_stats.considered stats 1;
                  let ctx = Cm.join_context env ~outer:s_j ~inner in
                  let methods = Space.join_methods config ~joined in
                  List.iter
                    (fun a ->
                      List.iter
                        (fun method_ ->
                          List.iter
                            (fun clone -> price ctx p a ~method_ ~clone)
                            config.Space.clone_degrees)
                        methods)
                    access_evals.(j)
                end)
            s
        in
        extend ~require_connection:true;
        if Option.is_none !best then extend ~require_connection:false;
        if Option.is_some !best then
          level_sizes.(size) <- level_sizes.(size) + 1;
        memo.(Bitset.to_int s) <- !best)
      subsets;
    Search_stats.observe_stored stats level_sizes.(size)
  done;
  Search_stats.observe_stored stats level_sizes.(1);
  let best =
    if n = 0 then None
    else Option.map Cm.numbered memo.(Bitset.to_int (Bitset.full n))
  in
  Search_stats.observe_gc stats ~before:gc0 ~after:(Gc.quick_stat ());
  { best; stats; level_sizes }
