(* Watch a parallel plan execute: lower an operator tree to its stage
   DAG, run the fluid simulator, and print the event trace and a small
   per-resource utilization report.

   Run with: dune exec examples/simulate.exe *)

module Sim = Parqo.Simulator
module TG = Parqo.Task_graph

let () =
  let catalog, query =
    Parqo.Query_gen.generate
      (Parqo.Query_gen.default_spec Parqo.Query_gen.Chain 3)
  in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let env = Parqo.Env.create ~machine ~catalog ~query () in
  let tree =
    Parqo.Join_tree.join ~clone:4 Parqo.Join_method.Hash_join
      ~outer:
        (Parqo.Join_tree.join ~clone:2 Parqo.Join_method.Sort_merge
           ~outer:(Parqo.Join_tree.access 0)
           ~inner:(Parqo.Join_tree.access 1))
      ~inner:(Parqo.Join_tree.access 2)
  in
  Printf.printf "plan: %s\n\n" (Parqo.Join_tree.to_string tree);
  let optree = Parqo.Expand.expand env.Parqo.Env.estimator tree in
  Format.printf "operator tree:@.%a@." Parqo.Op.pp optree;
  let graph = TG.of_optree env optree in
  Printf.printf "stage DAG: %d stages, %.1f units of total work\n\n"
    (Array.length graph.TG.stages) (TG.total_work graph);
  Array.iter
    (fun (s : TG.stage) ->
      Printf.printf "  stage %d (deps: %s): %s\n" s.TG.stage_id
        (String.concat "," (List.map string_of_int s.TG.deps))
        (String.concat ", "
           (List.map (fun (t : TG.task) -> t.TG.label) s.TG.tasks)))
    graph.TG.stages;
  let outcome = Sim.run graph in
  Printf.printf "\nevent trace:\n";
  List.iter
    (fun (e : Sim.event) -> Printf.printf "  t=%8.2f  %s\n" e.Sim.at e.Sim.what)
    outcome.Sim.trace;
  Printf.printf "\nstage timeline:\n%s" (Sim.timeline outcome);
  Printf.printf "\nmakespan %.2f, utilization %.0f%%\n" outcome.Sim.makespan
    (100. *. Sim.utilization outcome);
  Printf.printf "per-resource busy time:\n";
  Array.iteri
    (fun id busy ->
      let r = Parqo.Machine.resource machine id in
      Printf.printf "  %-6s %8.2f  %s\n" r.Parqo.Resource.name busy
        (String.make (int_of_float (40. *. busy /. outcome.Sim.makespan)) '#'))
    outcome.Sim.busy;
  (* compare against the cost model and the sequential baseline *)
  let e = Parqo.Costmodel.evaluate env tree in
  let seq = Parqo.Task_graph.total_work graph in
  Printf.printf
    "\ncost model predicted %.2f; sequential execution would take %.2f (%.1fx)\n"
    e.Parqo.Costmodel.response_time seq (seq /. outcome.Sim.makespan)
