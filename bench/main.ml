(* The experiment harness: regenerates every quantitative artifact of the
   paper (see DESIGN.md section 3) and runs the micro-benchmarks.

   Usage:
     dune exec bench/main.exe                 -- all tables, then micro
     dune exec bench/main.exe -- --tables     -- tables only
     dune exec bench/main.exe -- --micro      -- micro-benchmarks only
     dune exec bench/main.exe -- --only e12   -- one experiment (e1..e12)
*)

let experiments =
  [
    ("e1", Exp_table1.run);
    ("e2", Exp_examples.run);
    ("e4", Exp_theorem3.run);
    ("e5", Exp_desiderata.run);
    ("e6", Exp_bounds.run);
    ("e7", Exp_bushy.run);
    ("e8", Exp_cover.run);
    ("e9", Exp_fidelity.run);
    ("e10", Exp_speedup.run);
    ("e11", Exp_scale.run);
    ("e12", Exp_crossover.run);
    ("e13", Exp_twophase.run);
    ("e14", Exp_estimation.run);
    ("e15", Exp_robustness.run);
    ("e16", Exp_faults.run);
    ("e17", Exp_parsearch.run);
    ("e18", Exp_cost.run);
    ("e19", Exp_replan.run);
    ("e20", Exp_serve.run);
    ("e22", Exp_sched.run);
    ("e23", Exp_hetero.run);
    ("e24", Exp_exec.run);
  ]

let tables () = List.iter (fun (_, run) -> run ()) experiments

let () =
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  let t0 = Unix.gettimeofday () in
  let rec only = function
    | "--only" :: name :: _ -> Some (String.lowercase_ascii name)
    | _ :: rest -> only rest
    | [] -> None
  in
  let rec csv = function
    | "--csv" :: dir :: _ -> Some dir
    | _ :: rest -> csv rest
    | [] -> None
  in
  Parqo.Tableau.set_csv_dir (csv args);
  (match only args with
  | Some name -> (
    match List.assoc_opt name experiments with
    | Some run -> run ()
    | None ->
      Printf.eprintf "unknown experiment %s (known: %s)\n" name
        (String.concat ", " (List.map fst experiments));
      exit 1)
  | None ->
    if has "--micro" then Micro.run ()
    else if has "--tables" then tables ()
    else begin
      tables ();
      Micro.run ()
    end);
  Printf.printf "total harness time: %.1fs\n" (Unix.gettimeofday () -. t0)
