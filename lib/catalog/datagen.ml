type gen =
  | Serial
  | Uniform_int of int * int
  | Zipf_int of int * float
  | Uniform_float of float * float
  | Fk of string
  | String_pool of int

type table_spec = {
  name : string;
  rows : int;
  columns : (string * gen) list;
  disks : int list;
}

type database = {
  catalog : Catalog.t;
  data : (string * Value.t array array) list;
  index_order : (string * Value.t array array) list;
}

let spec ~name ~rows ~columns ?(disks = [ 0 ]) () =
  { name; rows; columns; disks }

let generate_column rng ~rows ~generated = function
  | Serial -> Array.init rows (fun i -> Value.Int i)
  | Uniform_int (lo, hi) ->
    Array.init rows (fun _ -> Value.Int (Parqo_util.Rng.range rng lo hi))
  | Zipf_int (n, theta) ->
    Array.init rows (fun _ -> Value.Int (Parqo_util.Rng.zipf rng ~n ~theta))
  | Uniform_float (lo, hi) ->
    Array.init rows (fun _ ->
        Value.Flt (lo +. Parqo_util.Rng.float rng (hi -. lo)))
  | Fk target -> (
    match List.assoc_opt target generated with
    | None -> invalid_arg ("Datagen: Fk references unknown table " ^ target)
    | Some target_rows ->
      let n = Array.length target_rows in
      if n = 0 then invalid_arg ("Datagen: Fk references empty table " ^ target);
      Array.init rows (fun _ -> Value.Int (Parqo_util.Rng.int rng n)))
  | String_pool n ->
    Array.init rows (fun _ ->
        Value.Str (Printf.sprintf "s%d" (Parqo_util.Rng.int rng n)))

let materialize ?(indexes = []) rng specs =
  let generated =
    List.fold_left
      (fun generated spec ->
        if spec.rows <= 0 then
          invalid_arg ("Datagen: table " ^ spec.name ^ " has no rows");
        let cols =
          List.map
            (fun (_, g) -> generate_column rng ~rows:spec.rows ~generated g)
            spec.columns
        in
        let rows =
          Array.init spec.rows (fun r ->
              Array.of_list (List.map (fun col -> col.(r)) cols))
        in
        generated @ [ (spec.name, rows) ])
      [] specs
  in
  let tables =
    List.map
      (fun spec ->
        let rows = List.assoc spec.name generated in
        let columns =
          List.mapi
            (fun i (cname, _) ->
              let values =
                Array.to_list rows |> List.map (fun r -> Value.to_float r.(i))
              in
              (cname, Stats.of_values values))
            spec.columns
        in
        Table.create ~name:spec.name ~columns
          ~cardinality:(float_of_int spec.rows) ~disks:spec.disks ())
      specs
  in
  let catalog = Catalog.create ~tables ~indexes in
  (* each index's rows in key order: a stable sort of the table's rows
     on the index columns *)
  let index_order =
    List.map
      (fun (ix : Index.t) ->
        let table = Catalog.table catalog ix.Index.table in
        let positions =
          Array.of_list (List.map (Table.column_index table) ix.Index.columns)
        in
        let rows = Array.copy (List.assoc ix.Index.table generated) in
        Array.stable_sort (fun a b -> Value.compare_at positions a b) rows;
        (ix.Index.name, rows))
      indexes
  in
  { catalog; data = generated; index_order }

let rows_of db name =
  match List.assoc_opt name db.data with
  | Some rows -> rows
  | None -> raise Not_found

let index_rows db name =
  match List.assoc_opt name db.index_order with
  | Some rows -> rows
  | None -> raise Not_found
