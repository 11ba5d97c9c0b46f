module C = Parqo_catalog
module Q = Parqo_query.Query
module P = Parqo_plan
module Bitset = Parqo_util.Bitset
module Value = C.Value

let table_of db query rel =
  C.Catalog.table db.C.Datagen.catalog (Q.table_name query rel)

let column_pos db query layout (r : Q.column_ref) =
  let table = table_of db query r.Q.rel in
  Batch.offset layout r.Q.rel + C.Table.column_index table r.Q.column

let cmp_holds cmp c =
  match cmp with
  | Q.Eq -> c = 0
  | Q.Ne -> c <> 0
  | Q.Lt -> c < 0
  | Q.Le -> c <= 0
  | Q.Gt -> c > 0
  | Q.Ge -> c >= 0

(* a row passes every (column, comparison, constant) test *)
let rec passes (row : Value.t array) = function
  | [] -> true
  | (i, cmp, v) :: rest -> cmp_holds cmp (Value.compare row.(i) v) && passes row rest

(* the rows of [data], a table's rows in some order, that pass [rel]'s
   selections, in that order *)
let select query table ~rel data =
  let tests =
    List.map
      (fun (s : Q.selection) ->
        (C.Table.column_index table s.Q.on.Q.column, s.Q.cmp, s.Q.value))
      (Q.selections_on query rel)
  in
  let rows = ref [] in
  for r = Array.length data - 1 downto 0 do
    if passes data.(r) tests then rows := data.(r) :: !rows
  done;
  Batch.create ~layout:[ (rel, C.Table.arity table) ] ~rows:!rows

let scan db query ~rel =
  let table = table_of db query rel in
  select query table ~rel (C.Datagen.rows_of db table.C.Table.name)

(* the database keeps each index's rows in key order; filtering stably
   sorted rows gives the stable sort of the filtered ones *)
let index_scan db query ~rel (index : C.Index.t) =
  select query (table_of db query rel) ~rel
    (C.Datagen.index_rows db index.C.Index.name)

(* positions of each join predicate's columns on the outer and inner
   sides, in predicate order *)
let key_positions db query ~outer ~inner =
  let outer_rels = Bitset.of_list (List.map fst outer) in
  let inner_rels = Bitset.of_list (List.map fst inner) in
  let sides (p : Q.join_pred) =
    if Bitset.mem p.Q.left.Q.rel outer_rels then
      (column_pos db query outer p.Q.left, column_pos db query inner p.Q.right)
    else (column_pos db query outer p.Q.right, column_pos db query inner p.Q.left)
  in
  let keys = List.map sides (Q.joins_between query outer_rels inner_rels) in
  (Array.of_list (List.map fst keys), Array.of_list (List.map snd keys))

let sort_on positions rows =
  List.stable_sort (fun a b -> Value.compare_at positions a b) rows

let key_of positions (row : Value.t array) =
  let n = Array.length positions in
  if n = 0 then [||]
  else begin
    let key = Array.make n row.(positions.(0)) in
    for i = 1 to n - 1 do
      key.(i) <- row.(positions.(i))
    done;
    key
  end

let rec compare_keys (a : Value.t array) (b : Value.t array) i =
  if i = Array.length a then 0
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_keys a b (i + 1)

module Keys = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b = compare_keys a b 0 = 0
  let hash k = Array.fold_left (fun h v -> (h * 31) + Value.hash v) 0 k
end)

(* the rows of each distinct key, in input order *)
type index = Value.t array list ref Keys.t

let index positions rows =
  let groups = Keys.create (List.length rows) in
  (* last row first, so consing keeps each group in input order *)
  List.iter
    (fun row ->
      let key = key_of positions row in
      match Keys.find groups key with
      | same -> same := row :: !same
      | exception Not_found -> Keys.add groups key (ref [ row ]))
    (List.rev rows);
  groups

let matches index positions row =
  match Keys.find index (key_of positions row) with
  | same -> !same
  | exception Not_found -> []

let combine_row a b = Array.append a b

(* every outer row in order, each followed by its matches in inner order *)
let[@tail_mod_cons] rec probe index positions = function
  | [] -> []
  | orow :: outer -> emit index positions orow (matches index positions orow) outer

and[@tail_mod_cons] emit index positions orow same outer =
  match same with
  | [] -> probe index positions outer
  | irow :: rest -> combine_row orow irow :: emit index positions orow rest outer

let join db query ~method_ ~(outer : Batch.t) ~(inner : Batch.t) =
  let opos, ipos =
    key_positions db query ~outer:outer.Batch.layout ~inner:inner.Batch.layout
  in
  let outer_rows =
    match method_ with
    | P.Join_method.Sort_merge -> sort_on opos outer.Batch.rows
    | P.Join_method.Nested_loops | P.Join_method.Hash_join -> outer.Batch.rows
  in
  Batch.create
    ~layout:(Batch.concat_layouts outer.Batch.layout inner.Batch.layout)
    ~rows:(probe (index ipos inner.Batch.rows) opos outer_rows)

let run db query tree =
  (match
     P.Join_tree.well_formed ~n_relations:(Q.n_relations query) tree
   with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Executor.run: " ^ msg));
  let rec go = function
    | P.Join_tree.Access a -> scan db query ~rel:a.P.Join_tree.rel
    | P.Join_tree.Join j ->
      let outer = go j.P.Join_tree.outer and inner = go j.P.Join_tree.inner in
      join db query ~method_:j.P.Join_tree.method_ ~outer ~inner
  in
  go tree

let project db query (b : Batch.t) =
  match query.Q.projection with
  | [] -> b
  | cols ->
    let positions = List.map (column_pos db query b.Batch.layout) cols in
    let rows =
      List.map
        (fun row -> Array.of_list (List.map (fun p -> row.(p)) positions))
        b.Batch.rows
    in
    Batch.create ~layout:[ (-1, List.length positions) ] ~rows

let order_rows db query (b : Batch.t) =
  match query.Q.order_by with
  | [] -> b
  | cols ->
    let positions = Array.of_list (List.map (column_pos db query b.Batch.layout) cols) in
    Batch.create ~layout:b.Batch.layout ~rows:(sort_on positions b.Batch.rows)

let finalize db query b = project db query (order_rows db query b)

let run_query db query tree = finalize db query (run db query tree)

let reference db query =
  let n = Q.n_relations query in
  let tree =
    List.fold_left
      (fun acc rel ->
        P.Join_tree.join P.Join_method.Nested_loops ~outer:acc
          ~inner:(P.Join_tree.access rel))
      (P.Join_tree.access 0)
      (List.init (n - 1) (fun i -> i + 1))
  in
  run_query db query tree
