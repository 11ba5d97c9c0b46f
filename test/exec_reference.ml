(* The reference join kernels: [Executor.join]'s earlier nested loops,
   hash join and sort-merge over list keys, with the value order they
   compared by.  Nested loops tests every (outer, inner) pair; hash join
   buckets the inner in a structural [Hashtbl], so it matches only
   same-typed keys; sort-merge sorts both sides and merges key groups.
   The property tests compare [Executor.join] (and [Parallel_exec],
   through it) against these output lists, row by row, on same-typed
   keys. *)

module C = Parqo.Catalog
module Q = Parqo.Query
module Value = Parqo.Value
module Batch = Parqo.Batch
module Bitset = Parqo.Bitset
module Join_method = Parqo.Join_method

(* numbers by their float images, strings after numbers *)
let compare_values a b =
  match (a, b) with
  | Value.Str x, Value.Str y -> String.compare x y
  | Value.Str _, (Value.Int _ | Value.Flt _) -> 1
  | (Value.Int _ | Value.Flt _), Value.Str _ -> -1
  | (Value.Int _ | Value.Flt _), (Value.Int _ | Value.Flt _) ->
    Float.compare (Value.to_float a) (Value.to_float b)

let column_pos db query layout (r : Q.column_ref) =
  let table = C.table db.Parqo.Datagen.catalog (Q.table_name query r.Q.rel) in
  Batch.offset layout r.Q.rel + Parqo.Table.column_index table r.Q.column

let key_positions db query ~(outer : Batch.t) ~(inner : Batch.t) =
  let outer_rels = Bitset.of_list (List.map fst outer.Batch.layout) in
  let inner_rels = Bitset.of_list (List.map fst inner.Batch.layout) in
  let preds = Q.joins_between query outer_rels inner_rels in
  List.map
    (fun (p : Q.join_pred) ->
      if Bitset.mem p.Q.left.Q.rel outer_rels then
        ( column_pos db query outer.Batch.layout p.Q.left,
          column_pos db query inner.Batch.layout p.Q.right )
      else
        ( column_pos db query outer.Batch.layout p.Q.right,
          column_pos db query inner.Batch.layout p.Q.left ))
    preds

let key_of positions row = List.map (fun pos -> row.(pos)) positions

let combine_row a b = Array.append a b

let nested_loops keys outer_rows inner_rows =
  let opos = List.map fst keys and ipos = List.map snd keys in
  List.concat_map
    (fun orow ->
      let okey = key_of opos orow in
      List.filter_map
        (fun irow ->
          if List.for_all2 (fun a b -> compare_values a b = 0) okey (key_of ipos irow)
          then Some (combine_row orow irow)
          else None)
        inner_rows)
    outer_rows

let hash_join keys outer_rows inner_rows =
  let opos = List.map fst keys and ipos = List.map snd keys in
  let table = Hashtbl.create (List.length inner_rows) in
  List.iter
    (fun irow -> Hashtbl.add table (key_of ipos irow) irow)
    inner_rows;
  List.concat_map
    (fun orow ->
      Hashtbl.find_all table (key_of opos orow)
      |> List.rev_map (fun irow -> combine_row orow irow))
    outer_rows

let compare_keys a b =
  let rec go a b =
    match (a, b) with
    | [], [] -> 0
    | x :: xs, y :: ys ->
      let c = compare_values x y in
      if c <> 0 then c else go xs ys
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
  in
  go a b

let sort_merge keys outer_rows inner_rows =
  let opos = List.map fst keys and ipos = List.map snd keys in
  let outer =
    List.sort (fun a b -> compare_keys (key_of opos a) (key_of opos b)) outer_rows
  in
  let inner =
    List.sort (fun a b -> compare_keys (key_of ipos a) (key_of ipos b)) inner_rows
  in
  (* group inner rows by key, then merge *)
  let rec groups = function
    | [] -> []
    | row :: _ as rows ->
      let key = key_of ipos row in
      let same, rest =
        List.partition (fun r -> compare_keys (key_of ipos r) key = 0) rows
      in
      (key, same) :: groups rest
  in
  let inner_groups = groups inner in
  let rec merge outer groups acc =
    match (outer, groups) with
    | [], _ | _, [] -> acc
    | orow :: orest, (key, same) :: grest -> (
      let c = compare_keys (key_of opos orow) key in
      if c < 0 then merge orest groups acc
      else if c > 0 then merge outer grest acc
      else
        merge orest groups
          (List.fold_left (fun acc irow -> combine_row orow irow :: acc) acc same))
  in
  List.rev (merge outer inner_groups [])

let join db query ~method_ ~(outer : Batch.t) ~(inner : Batch.t) =
  let keys = key_positions db query ~outer ~inner in
  let rows =
    match (keys, method_) with
    | [], _ ->
      (* cartesian product *)
      List.concat_map
        (fun orow -> List.map (combine_row orow) inner.Batch.rows)
        outer.Batch.rows
    | _, Join_method.Nested_loops ->
      nested_loops keys outer.Batch.rows inner.Batch.rows
    | _, Join_method.Hash_join ->
      hash_join keys outer.Batch.rows inner.Batch.rows
    | _, Join_method.Sort_merge ->
      sort_merge keys outer.Batch.rows inner.Batch.rows
  in
  Batch.create
    ~layout:(Batch.concat_layouts outer.Batch.layout inner.Batch.layout)
    ~rows
