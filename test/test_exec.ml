module B = Parqo.Batch
module Ex = Parqo.Executor
module J = Parqo.Join_tree
module M = Parqo.Join_method
module Q = Parqo.Query
module V = Parqo.Value
module I = Parqo.Iterator
module PE = Parqo.Parallel_exec
module R = Exec_reference

let t name f = Alcotest.test_case name `Quick f

let db_and_query () = Parqo.Workloads.chain_db ~n:3 ~rows:80 ~seed:7 ()

let batch_basics () =
  let rows = [ [| V.Int 1; V.Int 2 |]; [| V.Int 3; V.Int 4 |] ] in
  let b = B.create ~layout:[ (0, 2) ] ~rows in
  Alcotest.(check int) "rows" 2 (B.n_rows b);
  Alcotest.(check int) "width" 2 (B.width b);
  Alcotest.(check int) "offset" 0 (B.offset b.B.layout 0);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Batch.create: row width mismatch") (fun () ->
      ignore (B.create ~layout:[ (0, 3) ] ~rows))

let layout_ops () =
  let l = B.concat_layouts [ (1, 2) ] [ (0, 1) ] in
  Alcotest.(check int) "offset second segment" 2 (B.offset l 0);
  Alcotest.check_raises "overlap"
    (Invalid_argument "Batch.concat_layouts: overlapping relations")
    (fun () -> ignore (B.concat_layouts [ (0, 1) ] [ (0, 1) ]))

let canonicalization () =
  (* same bag, columns in different relation order *)
  let a =
    B.create ~layout:[ (0, 1); (1, 1) ]
      ~rows:[ [| V.Int 1; V.Int 10 |]; [| V.Int 2; V.Int 20 |] ]
  in
  let b =
    B.create ~layout:[ (1, 1); (0, 1) ]
      ~rows:[ [| V.Int 20; V.Int 2 |]; [| V.Int 10; V.Int 1 |] ]
  in
  Alcotest.(check bool) "equal bags modulo layout" true (B.equal_bags a b);
  let c =
    B.create ~layout:[ (0, 1); (1, 1) ]
      ~rows:[ [| V.Int 1; V.Int 10 |]; [| V.Int 2; V.Int 99 |] ]
  in
  Alcotest.(check bool) "different values differ" false (B.equal_bags a c);
  (* bags: duplicates matter *)
  let d =
    B.create ~layout:[ (0, 1); (1, 1) ]
      ~rows:[ [| V.Int 1; V.Int 10 |] ]
  in
  Alcotest.(check bool) "cardinality matters" false (B.equal_bags a d)

let scan_applies_selections () =
  let db, query = db_and_query () in
  let query' =
    Q.create
      ~relations:(Array.to_list query.Q.relations)
      ~joins:query.Q.joins
      ~selections:
        [ { Q.on = { Q.rel = 0; column = "payload" }; cmp = Q.Le; value = V.Int 4 } ]
      ()
  in
  let all = Ex.scan db query ~rel:0 in
  let filtered = Ex.scan db query' ~rel:0 in
  Alcotest.(check bool) "selection filters" true
    (B.n_rows filtered < B.n_rows all);
  (* every surviving row satisfies the predicate *)
  let table = Parqo.Catalog.table db.Parqo.Datagen.catalog "c0" in
  let payload_idx = Parqo.Table.column_index table "payload" in
  List.iter
    (fun row ->
      match row.(payload_idx) with
      | V.Int v -> Alcotest.(check bool) "payload <= 4" true (v <= 4)
      | _ -> Alcotest.fail "unexpected type")
    filtered.B.rows

let join_methods_agree () =
  let db, query = db_and_query () in
  let outer = Ex.scan db query ~rel:0 and inner = Ex.scan db query ~rel:1 in
  let nl = Ex.join db query ~method_:M.Nested_loops ~outer ~inner in
  let hj = Ex.join db query ~method_:M.Hash_join ~outer ~inner in
  let sm = Ex.join db query ~method_:M.Sort_merge ~outer ~inner in
  Alcotest.(check bool) "hash = nl" true (B.equal_bags nl hj);
  Alcotest.(check bool) "sort-merge = nl" true (B.equal_bags nl sm);
  Alcotest.(check bool) "non-empty join" true (B.n_rows nl > 0)

let fk_join_cardinality () =
  (* child.fk -> parent.pk: every child row matches exactly one parent *)
  let db, query = db_and_query () in
  let c0 = Ex.scan db query ~rel:0 and c1 = Ex.scan db query ~rel:1 in
  let joined = Ex.join db query ~method_:M.Hash_join ~outer:c0 ~inner:c1 in
  Alcotest.(check int) "FK join preserves child count" (B.n_rows c1)
    (B.n_rows joined)

let cartesian_product () =
  let db, _ = db_and_query () in
  (* a query with no join predicates *)
  let query =
    Q.create ~relations:[ ("c0", "c0"); ("c1", "c1") ] ~joins:[] ()
  in
  let a = Ex.scan db query ~rel:0 and b = Ex.scan db query ~rel:1 in
  let prod = Ex.join db query ~method_:M.Nested_loops ~outer:a ~inner:b in
  Alcotest.(check int) "cartesian size" (B.n_rows a * B.n_rows b) (B.n_rows prod)

let all_plans_equivalent () =
  let db, query = db_and_query () in
  let reference = Ex.reference db query in
  let machine = Parqo.Machine.shared_nothing ~nodes:2 () in
  let env = Parqo.Env.create ~machine ~catalog:db.Parqo.Datagen.catalog ~query () in
  let rng = Parqo.Rng.create 17 in
  for _ = 1 to 15 do
    let tree = Helpers.random_tree rng env in
    let result = Ex.run_query db query tree in
    Alcotest.(check bool)
      (Printf.sprintf "plan %s equivalent" (J.to_string tree))
      true
      (B.equal_bags reference result)
  done

let projection () =
  let db, query = db_and_query () in
  let query' =
    Q.create
      ~relations:(Array.to_list query.Q.relations)
      ~joins:query.Q.joins
      ~projection:[ { Q.rel = 0; column = "pk" }; { Q.rel = 2; column = "payload" } ]
      ()
  in
  let tree =
    J.join M.Hash_join
      ~outer:(J.join M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1))
      ~inner:(J.access 2)
  in
  let out = Ex.run_query db query' tree in
  Alcotest.(check int) "two columns" 2 (B.width out)

let methods = [ M.Nested_loops; M.Hash_join; M.Sort_merge ]

let expand db query tree =
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let env = Parqo.Env.create ~machine ~catalog:db.Parqo.Datagen.catalog ~query () in
  Parqo.Expand.expand env.Parqo.Env.estimator tree

(* c1.fk0 rewritten as floats: Int k on the c0 side must match Flt k on
   the c1 side, in every method and every executor *)
let mixed_int_float_keys () =
  let db, query = Parqo.Workloads.chain_db ~n:2 ~rows:20 ~seed:7 () in
  let c1 = Parqo.Catalog.table db.Parqo.Datagen.catalog "c1" in
  let fk = Parqo.Table.column_index c1 "fk0" in
  Array.iter
    (fun row ->
      match row.(fk) with
      | V.Int k -> row.(fk) <- V.Flt (float_of_int k)
      | _ -> Alcotest.fail "fk0 not an int")
    (Parqo.Datagen.rows_of db "c1");
  let outer = Ex.scan db query ~rel:0 and inner = Ex.scan db query ~rel:1 in
  let nl = Ex.join db query ~method_:M.Nested_loops ~outer ~inner in
  Alcotest.(check int) "every c1 row matches its parent" 20 (B.n_rows nl);
  List.iter
    (fun method_ ->
      let name = M.to_string method_ in
      let tree clone = J.join ~clone method_ ~outer:(J.access 0) ~inner:(J.access 1) in
      Alcotest.(check bool) (name ^ ": Executor") true
        (B.equal_bags nl (Ex.join db query ~method_ ~outer ~inner));
      Alcotest.(check bool) (name ^ ": Iterator") true
        (B.equal_bags nl (I.run_query db query (tree 1)));
      List.iter
        (fun clone ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: Parallel_exec, clone %d" name clone)
            true
            (B.equal_bags nl (PE.run_query db query (expand db query (tree clone)))))
        [ 1; 2; 4 ])
    methods

(* -- the reference property: random keyed joins against the earlier
   kernels, output lists compared row by row -- *)

let same_value a b =
  match (a, b) with
  | V.Int x, V.Int y -> x = y
  | V.Flt x, V.Flt y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | V.Str x, V.Str y -> String.equal x y
  | _ -> false

let same_rows a b =
  List.length a = List.length b
  && List.for_all2
       (fun r s -> Array.length r = Array.length s && Array.for_all2 same_value r s)
       a b

let two_53 = 1 lsl 53

(* key column kinds: both sides drawn from one pool, or Int on one side
   and Flt on the other *)
type kind = Ints | Flts | Strs | Mixed of bool (* Int side is the outer *)

let int_pool = [| V.Int 1; V.Int 0; V.Int 2; V.Int (-1); V.Int 3 |]

let flt_pool =
  [| V.Flt (-0.); V.Flt Float.nan; V.Flt 0.; V.Flt 1.5; V.Flt Float.infinity;
     V.Flt (-2.25); V.Flt Float.neg_infinity |]

let str_pool = [| V.Str "a"; V.Str ""; V.Str "b"; V.Str "ab" |]

(* numerically equal across the two: 0 = -0, 1, 2^53 = 2^53 + 1 *)
let mixed_ints = [| V.Int (two_53 + 1); V.Int 0; V.Int 1; V.Int 2; V.Int two_53 |]

let mixed_flts =
  [| V.Flt (float_of_int two_53); V.Flt (-0.); V.Flt 1.; V.Flt 0.; V.Flt 0.5;
     V.Flt Float.nan |]

let pools = function
  | Ints -> (int_pool, int_pool)
  | Flts -> (flt_pool, flt_pool)
  | Strs -> (str_pool, str_pool)
  | Mixed true -> (mixed_ints, mixed_flts)
  | Mixed false -> (mixed_flts, mixed_ints)

let prefix rng pool = Array.sub pool 0 (1 + Parqo.Rng.int rng (Array.length pool))

(* two relations o (outer) and i (inner), each an [id] column then one
   column per key, joined on every key column; the predicates come in a
   shuffled order, each written either way round *)
let keyed_join rng =
  let n_keys = Parqo.Rng.pick rng [| 0; 1; 1; 1; 2; 2; 3 |] in
  let kinds =
    Array.init n_keys (fun _ ->
        match Parqo.Rng.int rng 9 with
        | 0 | 1 -> Ints
        | 2 | 3 -> Flts
        | 4 | 5 -> Strs
        | 6 -> Mixed true
        | 7 -> Mixed false
        | _ -> Ints)
  in
  let opools = Array.map (fun k -> prefix rng (fst (pools k))) kinds in
  let ipools = Array.map (fun k -> prefix rng (snd (pools k))) kinds in
  let rows pools first_id =
    let n = if Parqo.Rng.int rng 8 = 0 then 0 else Parqo.Rng.int rng 11 in
    Array.init n (fun r ->
        Array.append [| V.Int (first_id + r) |] (Array.map (Parqo.Rng.pick rng) pools))
  in
  let orows = rows opools 0 and irows = rows ipools 100 in
  (* the executors ignore statistics; the catalog just needs some *)
  let stats = Parqo.Stats.of_values [ 0.; 1. ] in
  let columns = ("id", stats) :: List.init n_keys (fun j -> (Printf.sprintf "k%d" j, stats)) in
  let table name rows =
    Parqo.Table.create ~name ~columns ~cardinality:(float_of_int (Array.length rows)) ()
  in
  let db =
    {
      Parqo.Datagen.catalog =
        Parqo.Catalog.create ~tables:[ table "o" orows; table "i" irows ] ~indexes:[];
      data = [ ("o", orows); ("i", irows) ];
      index_order = [];
    }
  in
  let order = Array.init n_keys Fun.id in
  Parqo.Rng.shuffle rng order;
  let joins =
    Array.to_list
      (Array.map
         (fun j ->
           let o = { Q.rel = 0; column = Printf.sprintf "k%d" j } in
           let i = { Q.rel = 1; column = Printf.sprintf "k%d" j } in
           if Parqo.Rng.bool rng then { Q.left = o; right = i } else { Q.left = i; right = o })
         order)
  in
  let query = Q.create ~relations:[ ("o", "o"); ("i", "i") ] ~joins () in
  (db, query, kinds)

let is_mixed kinds = Array.exists (function Mixed _ -> true | _ -> false) kinds

(* what one case exercised, read off its inputs and the pairs that
   nested loops matched (outer id and keys, inner id and keys) *)
let exercised kinds ~outer ~inner pairs =
  let n_keys = Array.length kinds in
  let key_columns = List.init n_keys (( + ) 1) in
  let any_column f =
    List.exists (fun (o, i) -> List.exists (fun j -> f o.(j) i.(j)) key_columns) pairs
  in
  let has kind = pairs <> [] && Array.mem kind kinds in
  let rec repeated_outer = function
    | (o, _) :: ((o', _) :: _ as rest) -> o.(0) = o'.(0) || repeated_outer rest
    | _ -> false
  in
  let matched_outer = List.sort_uniq compare (List.map fst pairs) in
  let same_key a b = List.for_all (fun j -> V.compare a.(j) b.(j) = 0) key_columns in
  let zero v = V.compare v (V.Int 0) = 0 in
  let neg_zero = function V.Flt f -> f = 0. && 1. /. f < 0. | _ -> false in
  List.filter_map
    (fun (what, holds) -> if holds then Some what else None)
    [
      ("empty outer", B.n_rows outer = 0);
      ("empty inner", B.n_rows inner = 0);
      ("cartesian", n_keys = 0 && pairs <> []);
      ("multi-column key", n_keys >= 2 && pairs <> []);
      ("mixed Int/Flt key", is_mixed kinds && pairs <> []);
      ("Int key", has Ints);
      ("Flt key", has Flts);
      ("Str key", has Strs);
      ("outer row with 2+ matches", repeated_outer pairs);
      ( "matched outer rows sharing a key",
        List.exists (fun a -> List.exists (fun b -> a.(0) <> b.(0) && same_key a b) matched_outer)
          matched_outer );
      ("NaN matched", any_column (fun o _ -> match o with V.Flt f -> Float.is_nan f | _ -> false));
      ("-0 matched 0", any_column (fun o i -> zero o && neg_zero o <> neg_zero i));
      ( "2^53+1 matched 2^53",
        any_column (fun o i ->
            match (o, i) with V.Int x, V.Flt _ | V.Flt _, V.Int x -> x > two_53 | _ -> false) );
    ]

(* about half of what the 600 cases of seed 2024 exercise *)
let least_coverage =
  [ ("empty outer", 60); ("empty inner", 60); ("cartesian", 20); ("multi-column key", 50);
    ("mixed Int/Flt key", 40); ("Int key", 50); ("Flt key", 40); ("Str key", 30);
    ("outer row with 2+ matches", 100); ("matched outer rows sharing a key", 100);
    ("NaN matched", 11); ("-0 matched 0", 35); ("2^53+1 matched 2^53", 25) ]

(* Every executor's join output list, for every method, equals the
   earlier kernel's: same rows, same order.  With a mixed Int/Flt key
   the earlier hash join matched nothing across types, and the wanted
   list is nested loops'. *)
let matches_reference () =
  let rng = Parqo.Rng.create 2024 in
  let seen = Hashtbl.create 16 in
  for case = 1 to 600 do
    let db, query, kinds = keyed_join rng in
    let outer = Ex.scan db query ~rel:0 and inner = Ex.scan db query ~rel:1 in
    let reference method_ = (R.join db query ~method_ ~outer ~inner).B.rows in
    let nl = reference M.Nested_loops in
    List.iter
      (fun method_ ->
        let want = if is_mixed kinds && method_ = M.Hash_join then nl else reference method_ in
        let tree = J.join method_ ~outer:(J.access 0) ~inner:(J.access 1) in
        let check executor rows =
          if not (same_rows want rows) then
            Alcotest.failf "case %d, %s, %s: %d rows, reference %d" case
              (M.to_string method_) executor (List.length rows) (List.length want)
        in
        check "Executor" (Ex.join db query ~method_ ~outer ~inner).B.rows;
        check "Iterator" (I.to_batch (I.of_plan db query tree)).B.rows;
        check "Parallel_exec" (PE.run db query (expand db query tree)).B.rows)
      methods;
    let width = 1 + Array.length kinds in
    let pairs = List.map (fun row -> (Array.sub row 0 width, Array.sub row width width)) nl in
    List.iter
      (fun what -> Hashtbl.replace seen what (1 + Option.value ~default:0 (Hashtbl.find_opt seen what)))
      (exercised kinds ~outer ~inner pairs)
  done;
  List.iter
    (fun (what, least) ->
      let n = Option.value ~default:0 (Hashtbl.find_opt seen what) in
      if n < least then Alcotest.failf "coverage: %s in %d of 600 cases, want %d" what n least)
    least_coverage

(* [Value.compare] has the sign of the earlier float-image formula on
   every pair of edge values, and values it calls equal hash alike *)
let value_order_matches_reference () =
  let edges =
    [ V.Int 0; V.Int 1; V.Int (-1); V.Int max_int; V.Int min_int; V.Int two_53;
      V.Int (two_53 + 1); V.Int (-two_53 - 1); V.Flt Float.nan; V.Flt (-.Float.nan);
      V.Flt 0.; V.Flt (-0.); V.Flt 1.; V.Flt 1.5; V.Flt Float.infinity;
      V.Flt Float.neg_infinity; V.Flt (float_of_int two_53); V.Flt Float.max_float;
      V.Flt (-.Float.max_float); V.Flt Float.min_float; V.Flt 0x1p62; V.Flt (-0x1p62);
      V.Str ""; V.Str "a"; V.Str "b"; V.Str "ab" ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c = V.compare a b in
          let name = Printf.sprintf "%s vs %s" (V.to_string a) (V.to_string b) in
          Alcotest.(check int) name (Int.compare (R.compare_values a b) 0) (Int.compare c 0);
          if c = 0 then Alcotest.(check int) (name ^ ": hash") (V.hash a) (V.hash b))
        edges)
    edges

let suite =
  ( "executor",
    [
      t "batch basics" batch_basics;
      t "layout ops" layout_ops;
      t "canonicalization" canonicalization;
      t "scan applies selections" scan_applies_selections;
      t "join methods agree" join_methods_agree;
      t "fk join cardinality" fk_join_cardinality;
      t "cartesian product" cartesian_product;
      t "all plans equivalent" all_plans_equivalent;
      t "projection" projection;
      t "mixed Int/Flt keys agree" mixed_int_float_keys;
      t "join lists match the reference" matches_reference;
      t "value order matches the reference" value_order_matches_reference;
    ] )
