module Cm = Parqo_cost.Costmodel
module Bitset = Parqo_util.Bitset
module Env = Parqo_cost.Env

type result = {
  best : Cm.eval option;
  n_plans : int;
  stats : Search_stats.t;
}

let better objective a b =
  match a with
  | None -> Some b
  | Some a' -> if objective b < objective a' then Some b else a

let leftdeep ?(config = Space.default_config)
    ?(objective = fun (e : Cm.eval) -> e.Cm.response_time) ?(on_plan = fun _ -> ())
    (env : Env.t) =
  let n = Env.n_relations env in
  let joinable = Space.joinable env in
  let stats = Search_stats.create () in
  let best = ref None in
  let n_plans = ref 0 in
  let full = Bitset.full n in
  let complete e =
    incr n_plans;
    on_plan e;
    best := better objective !best e
  in
  let rec extend covered tree =
    if Bitset.equal covered full then complete (Cm.evaluate env tree)
    else
      for rel = 0 to n - 1 do
        let next = Bitset.add rel covered in
        if (not (Bitset.mem rel covered)) && joinable next then begin
          Search_stats.considered stats 1;
          let candidates = Space.join_candidates env config ~outer:tree ~rel in
          Search_stats.generated stats (List.length candidates);
          List.iter (extend next) candidates
        end
      done
  in
  for rel = 0 to n - 1 do
    Search_stats.considered stats 1;
    let starts = Space.access_plans env config rel in
    Search_stats.generated stats (List.length starts);
    List.iter (extend (Bitset.singleton rel)) starts
  done;
  { best = !best; n_plans = !n_plans; stats }

let bushy ?(config = Space.default_config)
    ?(objective = fun (e : Cm.eval) -> e.Cm.response_time) ?(on_plan = fun _ -> ())
    (env : Env.t) =
  let n = Env.n_relations env in
  let joinable = Space.joinable env in
  let stats = Search_stats.create () in
  (* all plans for a subset; no memoization — this is the brute force *)
  let rec plans_for s =
    if Bitset.cardinal s = 1 then begin
      Search_stats.considered stats 1;
      let starts = Space.access_plans env config (Bitset.choose s) in
      Search_stats.generated stats (List.length starts);
      starts
    end
    else
      List.concat_map
        (fun s1 ->
          let s2 = Bitset.diff s s1 in
          Search_stats.considered stats 1;
          List.concat_map
            (fun outer ->
              List.concat_map
                (fun inner ->
                  let cs = Space.combine_candidates env config ~outer ~inner in
                  Search_stats.generated stats (List.length cs);
                  cs)
                (plans_for s2))
            (plans_for s1))
        (List.filter
           (fun s1 -> joinable s1 && joinable (Bitset.diff s s1))
           (Bitset.proper_nonempty_subsets s))
  in
  let all = if n = 0 then [] else plans_for (Bitset.full n) in
  let best = ref None in
  let n_plans = ref 0 in
  List.iter
    (fun tree ->
      let e = Cm.evaluate env tree in
      incr n_plans;
      on_plan e;
      best := better objective !best e)
    all;
  { best = !best; n_plans = !n_plans; stats }
