module P = Parqo.Props
module J = Parqo.Join_tree
module M = Parqo.Join_method
module O = Parqo.Ordering
module G = Parqo.Query_gen
module AP = Parqo.Access_path

let t name f = Alcotest.test_case name `Quick f

let setup () =
  let catalog, query = G.generate (G.default_spec G.Chain 3) in
  (catalog, query)

let join_preds () =
  let _, query = setup () in
  let j01 =
    match J.join M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1) with
    | J.Join j -> j
    | J.Access _ -> assert false
  in
  Alcotest.(check int) "connected pair" 1 (List.length (P.join_preds query j01));
  let j02 =
    match J.join M.Nested_loops ~outer:(J.access 0) ~inner:(J.access 2) with
    | J.Join j -> j
    | J.Access _ -> assert false
  in
  Alcotest.(check int) "cartesian pair" 0 (List.length (P.join_preds query j02))

let sort_keys () =
  let _, query = setup () in
  let j =
    match J.join M.Sort_merge ~outer:(J.access 0) ~inner:(J.access 1) with
    | J.Join j -> j
    | J.Access _ -> assert false
  in
  let outer_key = P.sort_key_outer query j in
  let inner_key = P.sort_key_inner query j in
  Alcotest.(check int) "outer key" 1 (List.length outer_key);
  Alcotest.(check int) "inner key" 1 (List.length inner_key);
  Alcotest.(check int) "outer side rel" 0 (List.hd outer_key).O.rel;
  Alcotest.(check int) "inner side rel" 1 (List.hd inner_key).O.rel;
  Alcotest.(check string) "join column" "j0_1" (List.hd outer_key).O.column

let orderings () =
  let catalog, query = setup () in
  (* seq scan has no order *)
  Alcotest.(check bool) "scan unordered" true
    (O.equal O.none (P.ordering query (J.access 0)));
  (* index scan delivers the index key *)
  let idx = List.hd (Parqo.Catalog.indexes_of catalog "t0") in
  let tree = J.access ~path:(AP.Index_scan idx) 0 in
  Alcotest.(check bool) "index scan ordered" true
    (P.ordering query tree <> O.none);
  (* cloning destroys order *)
  let cloned = J.access ~path:(AP.Index_scan idx) ~clone:2 0 in
  Alcotest.(check bool) "cloned scan unordered" true
    (O.equal O.none (P.ordering query cloned));
  (* sort-merge delivers the outer key; hash preserves outer order *)
  let sm = J.join M.Sort_merge ~outer:(J.access 0) ~inner:(J.access 1) in
  Alcotest.(check bool) "SM ordered on join col" true
    (P.ordering query sm <> O.none);
  let hj = J.join M.Hash_join ~outer:tree ~inner:(J.access 1) in
  Alcotest.(check bool) "HJ preserves outer order" true
    (O.equal (P.ordering query tree) (P.ordering query hj))

let partitioning () =
  let _, query = setup () in
  let cloned_join =
    J.join ~clone:4 M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1)
  in
  (match P.partition_column query cloned_join with
  | Some c -> Alcotest.(check string) "partition on join col" "j0_1" c.O.column
  | None -> Alcotest.fail "expected a partition column");
  Alcotest.(check bool) "degree-1 join unpartitioned" true
    (P.partition_column query
       (J.join M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1))
    = None)

(* Interesting orders over the serving pool's clique catalog, which
   indexes every table on each of its join columns.  Query 1 joins t0
   and t5 on j0_5, so t0's indexes on j0_1 .. j0_4 order on columns no
   join predicate names. *)
module Q = Parqo.Query

let pool () = Parqo.Workloads.serving_pool ~seed:7 ()

let index catalog name =
  List.find
    (fun (i : Parqo.Index.t) -> i.Parqo.Index.name = name)
    (Parqo.Catalog.indexes catalog)

(* [q] with its ORDER BY replaced *)
let ordered_by (q : Q.t) order_by =
  Q.create ~relations:(Array.to_list q.Q.relations) ~joins:q.Q.joins
    ~selections:q.Q.selections ~order_by ()

let scan_order query idx = P.ordering query (J.access ~path:(AP.Index_scan idx) 0)

let col column = { O.rel = 0; column }

let check_order msg want got =
  Alcotest.(check string) msg (O.to_string want) (O.to_string got)

let unnamed_index_unordered () =
  let catalog, queries = pool () in
  let q = queries.(1) in
  check_order "named join column keeps its order" [ col "j0_5" ]
    (scan_order q (index catalog "idx_t0_j0_5"));
  check_order "unnamed column: no order" O.none
    (scan_order q (index catalog "idx_t0_j0_1"))

let order_by_keeps_order () =
  let catalog, queries = pool () in
  let q = ordered_by queries.(1) [ { Q.rel = 0; column = "j0_1" } ] in
  check_order "ORDER BY column keeps its order" [ col "j0_1" ]
    (scan_order q (index catalog "idx_t0_j0_1"));
  check_order "a column neither names: no order" O.none
    (scan_order q (index catalog "idx_t0_j0_2"))

let multi_column_prefix () =
  let _, queries = pool () in
  let q = queries.(1) in
  let multi columns =
    Parqo.Index.create ~name:"idx_t0_multi" ~table:"t0" ~columns ()
  in
  check_order "named prefix only" [ col "j0_5" ]
    (scan_order q (multi [ "j0_5"; "j0_1"; "j0_2" ]));
  check_order "an unnamed first column cuts the whole order" O.none
    (scan_order q (multi [ "j0_1"; "j0_5" ]));
  check_order "the ORDER BY lengthens the prefix" [ col "j0_5"; col "j0_1" ]
    (scan_order
       (ordered_by q [ { Q.rel = 0; column = "j0_1" } ])
       (multi [ "j0_5"; "j0_1"; "j0_2" ]))

(* The rule's soundness: expanding and costing a plan from its
   children's whole index orders gives the same operator tree and the
   bit-identical descriptor as from their cut orders, final sort
   included.  Random left-deep and bushy plans over every pool query,
   with and without an ORDER BY on an unnamed column, over the pool's
   catalog plus a three-column index per table whose columns only
   partly name a query's joins. *)
let rec uncut query = function
  | J.Access a ->
    if a.clone > 1 then O.none else AP.ordering ~rel:a.rel a.path
  | J.Join j ->
    P.join_ordering j.method_ ~clone:j.clone
      ~outer_key:(lazy (P.sort_key_outer query j))
      ~outer:(lazy (uncut query j.outer))

(* [Expand.expand] with the children's orders taken from [ordering];
   counts the joins whose children's orders the cut changes *)
let expand_with ~cut ordering (env : Parqo.Env.t) tree =
  let est = env.Parqo.Env.estimator in
  let query = Parqo.Env.query env in
  let rec go = function
    | J.Access a -> Parqo.Expand.expand_access est a
    | J.Join j ->
      if
        not
          (O.equal (uncut query j.outer) (P.ordering query j.outer)
          && O.equal (uncut query j.inner) (P.ordering query j.inner))
      then incr cut;
      let ctx =
        Parqo.Expand.context est ~outer:(J.relations j.outer)
          ~inner:(J.relations j.inner)
      in
      Parqo.Expand.expand_join ~config:env.Parqo.Env.expand_config ctx
        ~method_:j.method_ ~clone:j.clone
        ~composition:(if j.materialize then Parqo.Op.Materialized else Parqo.Op.Pipelined)
        ~outer:(go j.outer) ~inner:(go j.inner)
        ~outer_ordering:(lazy (ordering j.outer))
        ~inner_ordering:(lazy (ordering j.inner))
  in
  Parqo.Expand.renumber (go tree)

let cut_orders_cost_the_same () =
  let module Cm = Parqo.Costmodel in
  let catalog, queries = pool () in
  let catalog =
    List.fold_left
      (fun c i ->
        let j a = Printf.sprintf "j%d_%d" (min i a) (max i a) in
        Parqo.Catalog.add_index c
          (Parqo.Index.create
             ~name:(Printf.sprintf "idx_t%d_multi" i)
             ~table:(Printf.sprintf "t%d" i)
             ~columns:[ j ((i + 1) mod 6); j ((i + 2) mod 6); "val" ]
             ()))
      catalog (List.init 6 Fun.id)
  in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let config =
    {
      (Parqo.Space.parallel_config machine) with
      Parqo.Space.materialize_choices = true;
    }
  in
  let rng = Parqo.Rng.create 28 in
  let cut = ref 0 and sorts = ref 0 in
  Array.iteri
    (fun qi (q : Q.t) ->
      let unnamed =
        (* the first index column of relation 0 that no join names *)
        List.find (fun c -> not (Q.interesting q 0 c))
          (List.concat_map
             (fun (i : Parqo.Index.t) -> i.Parqo.Index.columns)
             (Parqo.Catalog.indexes_of catalog (Q.table_name q 0)))
      in
      List.iter
        (fun query ->
          let env = Parqo.Env.create ~machine ~catalog ~query () in
          let required = Cm.required_order env in
          for k = 1 to 12 do
            let tree =
              Parqo.Random_plans.random_tree ~bushy:(k mod 2 = 0) rng env config
            in
            let msg = Printf.sprintf "query %d, %s" qi (J.to_string tree) in
            let whole = expand_with ~cut (uncut query) env tree in
            let e = Cm.evaluate ~required_order:required env tree in
            let plain = Cm.evaluate env tree in
            Alcotest.(check string) (msg ^ ": operator tree")
              (Parqo.Op.to_string plain.Cm.optree) (Parqo.Op.to_string whole);
            Alcotest.(check bool) (msg ^ ": same operator tree") true
              (plain.Cm.optree = whole);
            let d = Cm.of_optree env whole in
            Alcotest.(check bool) (msg ^ ": descriptor bit-identical") true
              (d = plain.Cm.descriptor);
            let sorted =
              Cm.with_final_sort env required
                { plain with Cm.optree = whole; descriptor = d; ordering = uncut query tree }
            in
            if sorted.Cm.optree != whole then incr sorts;
            Alcotest.(check string) (msg ^ ": final sort")
              (Parqo.Op.to_string e.Cm.optree) (Parqo.Op.to_string sorted.Cm.optree);
            Alcotest.(check bool) (msg ^ ": sorted descriptor bit-identical") true
              (e.Cm.descriptor = sorted.Cm.descriptor)
          done)
        [ q; ordered_by q [ { Q.rel = 0; column = unnamed } ] ])
    queries;
  (* the sample must exercise the rule: joins over cut orders, and
     final sorts decided on them *)
  Alcotest.(check bool) "some joins see cut orders" true (!cut > 0);
  Alcotest.(check bool) "some plans take a final sort" true (!sorts > 0)

let suite =
  ( "props",
    [
      t "join preds" join_preds;
      t "sort keys" sort_keys;
      t "orderings" orderings;
      t "partitioning" partitioning;
      t "an index on a column nothing names has no order"
        unnamed_index_unordered;
      t "an ORDER BY makes its column's order interesting" order_by_keeps_order;
      t "a multi-column index keeps its named prefix" multi_column_prefix;
      t "cut orders expand and cost as whole ones" cut_orders_cost_the_same;
    ] )
