include Scheduler.Solo

let run = Scheduler.run_solo

let simulate_plan ?faults ?recovery (env : Parqo_cost.Env.t) tree =
  let optree =
    Parqo_optree.Expand.expand ~config:env.Parqo_cost.Env.expand_config
      env.Parqo_cost.Env.estimator tree
  in
  run ?faults ?recovery (Task_graph.of_optree env optree)

let utilization o =
  if o.makespan <= 0. then 1.
  else o.total_work /. (o.makespan *. float_of_int (Array.length o.busy))

let timeline ?(width = 50) o =
  let span = Float.max 1e-9 o.makespan in
  let col t = int_of_float (float_of_int width *. t /. span) in
  let stage_faults id =
    List.length (List.filter (fun f -> f.f_stage = Some id) o.faults)
  in
  let rows =
    List.filter_map
      (fun (id, start) ->
        match List.assoc_opt id o.stage_finish with
        | None -> None
        | Some finish -> Some (id, start, finish))
      o.stage_start
    |> List.sort (fun (_, s1, _) (_, s2, _) -> Float.compare s1 s2)
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (id, start, finish) ->
      let s = col start and f = max (col start + 1) (col finish) in
      let bar =
        String.concat ""
          [
            String.make s ' ';
            String.make (min (width - s) (f - s)) '=';
            String.make (max 0 (width - f)) ' ';
          ]
      in
      let annot =
        match stage_faults id with
        | 0 -> ""
        | n -> Printf.sprintf "  (%d fault%s)" n (if n = 1 then "" else "s")
      in
      Buffer.add_string buf
        (Printf.sprintf "stage %-3d |%s| %.1f .. %.1f%s\n" id bar start finish
           annot))
    rows;
  List.iter
    (fun rp ->
      Buffer.add_string buf
        (Printf.sprintf "replan at %.1f after %s -> %s\n" rp.rp_at
           (trigger_to_string rp.rp_trigger) rp.rp_plan))
    o.replans;
  Buffer.contents buf
