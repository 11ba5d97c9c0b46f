(* Example 3 and Theorem 2: response time violates the principle of
   optimality — on the paper's raw numbers, and end-to-end through the
   full cost model and search on the CTR/CI database. *)

module Sc = Parqo.Scenarios
module Cm = Parqo.Costmodel
module J = Parqo.Join_tree
module M = Parqo.Join_method
module AP = Parqo.Access_path

let t name f = Alcotest.test_case name `Quick f

let paper_numbers_exact () =
  let e = Sc.example3 () in
  Helpers.check_float "RT(p1) = 20" 20. e.Sc.rt_p1;
  Helpers.check_float "RT(p2) = 25" 25. e.Sc.rt_p2;
  Helpers.check_float "RT(NL(p1,.)) = 60" 60. e.Sc.rt_join_p1;
  Helpers.check_float "RT(NL(p2,.)) = 40" 40. e.Sc.rt_join_p2;
  Alcotest.(check bool) "violates PO" true (Sc.example3_violates_po ())

(* the same phenomenon arises organically in the full pipeline: scanning
   the clustered index (disk 0) is faster standalone, but the subsequent
   index-nested-loops probe also hits disk 0, so the plan through the
   unclustered index on disk 1 wins the join *)
let end_to_end_violation () =
  let catalog, query, machine = Sc.ctr_ci () in
  let env = Parqo.Env.create ~machine ~catalog ~query () in
  let find_index name =
    List.find
      (fun (i : Parqo.Index.t) -> i.Parqo.Index.name = name)
      (Parqo.Catalog.indexes catalog)
  in
  let p1 = J.access ~path:(AP.Index_scan (find_index "i_ct")) 0 in
  let p2 = J.access ~path:(AP.Index_scan (find_index "i_cr")) 0 in
  let join p = J.join M.Nested_loops ~outer:p ~inner:(J.access ~path:(AP.Index_scan (find_index "i_c")) 1) in
  let rt tree = (Cm.evaluate env tree).Cm.response_time in
  (* subplan order *)
  Alcotest.(check bool) "p1 faster standalone" true (rt p1 < rt p2);
  (* extended order inverts: contention on disk 0 *)
  Alcotest.(check bool) "p2's extension wins" true (rt (join p2) < rt (join p1))

(* consequence for search: Figure 1 with the RT objective keeps p1 for
   the subquery and misses the optimum; Figure 2's cover set keeps both *)
let podp_fixes_the_example () =
  let catalog, query, machine = Sc.ctr_ci () in
  let env = Parqo.Env.create ~machine ~catalog ~query () in
  let config = Parqo.Space.default_config in
  let objective (e : Cm.eval) = e.Cm.response_time in
  let naive =
    Parqo.Podp.optimize ~config ~metric:Parqo.Metric.response_time env
  in
  let metric = Parqo.Metric.descriptor machine Parqo.Machine.Per_resource in
  let po = Parqo.Podp.optimize ~config ~metric env in
  let brute = Parqo.Brute.leftdeep ~config ~objective env in
  match (naive.Parqo.Podp.best, po.Parqo.Podp.best, brute.Parqo.Brute.best) with
  | Some n, Some p, Some b ->
    Helpers.check_float ~eps:1e-6 "po-DP achieves the true optimum"
      b.Cm.response_time p.Cm.response_time;
    Alcotest.(check bool) "naive DP is no better than po-DP" true
      (p.Cm.response_time <= n.Cm.response_time +. 1e-9)
  | _ -> Alcotest.fail "missing plan"

let example2_table_rendered () =
  (* the Example 2 computation is part of Scenarios; verify the table is
     complete and self-consistent *)
  let rows = Sc.example2 () in
  Alcotest.(check int) "seven rows" 7 (List.length rows);
  List.iter
    (fun (r : Sc.example2_row) ->
      Alcotest.(check bool) "tf <= tl" true
        (r.Sc.computed.Parqo.Tdesc.tf <= r.Sc.computed.Parqo.Tdesc.tl))
    rows

let suite =
  ( "po-violation",
    [
      t "paper numbers exact" paper_numbers_exact;
      t "end-to-end violation" end_to_end_violation;
      t "po-dp fixes the example" podp_fixes_the_example;
      t "example 2 table" example2_table_rendered;
    ] )
