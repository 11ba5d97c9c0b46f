module Op = Parqo_optree.Op
module Env = Parqo_cost.Env

type task = { task_id : int; label : string; demands : float array }

type stage = {
  stage_id : int;
  tasks : task list;
  deps : int list;
  op_root : Op.node option;
}

type t = { stages : stage array; n_resources : int; root_stage : int }

let of_optree (env : Env.t) root =
  let n_resources = Parqo_machine.Machine.n_resources env.Env.machine in
  (* mutable stage builders *)
  let stages : (int, task list * int list) Hashtbl.t = Hashtbl.create 16 in
  let roots : (int, Op.node) Hashtbl.t = Hashtbl.create 16 in
  let next_stage = ref 0 in
  let new_stage node =
    let id = !next_stage in
    incr next_stage;
    Hashtbl.replace stages id ([], []);
    Hashtbl.replace roots id node;
    id
  in
  let add_task stage task =
    let tasks, deps = Hashtbl.find stages stage in
    Hashtbl.replace stages stage (task :: tasks, deps)
  in
  let add_dep ~on stage =
    let tasks, deps = Hashtbl.find stages stage in
    Hashtbl.replace stages stage (tasks, on :: deps)
  in
  let task_of (node : Op.node) =
    let d = Parqo_cost.Opcost.base env.Env.placement env.Env.estimator node in
    {
      task_id = node.Op.id;
      label = Op.kind_name node.Op.kind;
      demands =
        Parqo_util.Vecf.to_array
          (Parqo_cost.Descriptor.work_vector d);
    }
  in
  let rec assign (node : Op.node) stage =
    add_task stage (task_of node);
    let children =
      (* an index probed by nested loops induces no scanning task *)
      if Parqo_cost.Opcost.nl_inner_is_free node then [ List.hd node.Op.children ]
      else node.Op.children
    in
    List.iter
      (fun (c : Op.node) ->
        match c.Op.composition with
        | Op.Pipelined -> assign c stage
        | Op.Materialized ->
          let child_stage = new_stage c in
          add_dep ~on:child_stage stage;
          assign c child_stage)
      children
  in
  let root_stage = new_stage root in
  assign root root_stage;
  let stages_arr =
    Array.init !next_stage (fun id ->
        let tasks, deps = Hashtbl.find stages id in
        {
          stage_id = id;
          tasks = List.rev tasks;
          deps = List.sort_uniq compare deps;
          op_root = Hashtbl.find_opt roots id;
        })
  in
  { stages = stages_arr; n_resources; root_stage }

let total_work t =
  Array.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc task -> acc +. Array.fold_left ( +. ) 0. task.demands)
        acc s.tasks)
    0. t.stages

let validate t =
  let n = Array.length t.stages in
  let in_range id = id >= 0 && id < n in
  if not (in_range t.root_stage) then Error "root stage out of range"
  else begin
    let bad_id = ref None in
    Array.iteri
      (fun i s -> if !bad_id = None && s.stage_id <> i then bad_id := Some i)
      t.stages;
    let bad_dep =
      Array.exists
        (fun s -> List.exists (fun d -> not (in_range d)) s.deps)
        t.stages
    in
    let bad_demand = ref None in
    Array.iter
      (fun s ->
        List.iter
          (fun task ->
            if Array.length task.demands > t.n_resources then
              bad_demand :=
                Some
                  (Printf.sprintf "task %s: %d demand entries but %d resources"
                     task.label (Array.length task.demands) t.n_resources)
            else
              Array.iter
                (fun d ->
                  if (not (Float.is_finite d)) || d < 0. then
                    bad_demand :=
                      Some
                        (Printf.sprintf "task %s: negative or non-finite demand"
                           task.label))
                task.demands)
          s.tasks)
      t.stages;
    if !bad_id <> None then
      Error
        (Printf.sprintf "stage_id mismatch at index %d"
           (Option.get !bad_id))
    else if bad_dep then Error "dependency out of range"
    else
      match !bad_demand with
      | Some msg -> Error msg
      | None -> begin
      (* cycle check via DFS colors *)
      let color = Array.make n 0 in
      let rec dfs id =
        if color.(id) = 1 then false
        else if color.(id) = 2 then true
        else begin
          color.(id) <- 1;
          let ok = List.for_all dfs t.stages.(id).deps in
          color.(id) <- 2;
          ok
        end
      in
      let acyclic =
        Array.for_all (fun s -> dfs s.stage_id) t.stages
      in
      if acyclic then Ok () else Error "dependency cycle"
    end
  end
