module P = Parqo_plan
module Q = Parqo_query.Query
module C = Parqo_catalog
module Bitset = Parqo_util.Bitset
module Env = Parqo_cost.Env

type tree_shape = Left_deep | Bushy

type config = {
  methods : P.Join_method.t list;
  clone_degrees : int list;
  use_indexes : bool;
  materialize_choices : bool;
}

let default_config =
  {
    methods = P.Join_method.all;
    clone_degrees = [ 1 ];
    use_indexes = true;
    materialize_choices = false;
  }

let sequential_config =
  {
    default_config with
    methods = [ P.Join_method.Nested_loops; P.Join_method.Sort_merge ];
    use_indexes = false;
  }

let minimal_config =
  {
    methods = [ P.Join_method.Nested_loops ];
    clone_degrees = [ 1 ];
    use_indexes = false;
    materialize_choices = false;
  }

let parallel_config machine =
  let n_cpus = List.length (Parqo_machine.Machine.cpu_ids machine) in
  let rec powers k acc = if k > n_cpus then List.rev acc else powers (2 * k) (k :: acc) in
  let degrees = match powers 1 [] with [] -> [ 1 ] | ds -> ds in
  { default_config with clone_degrees = degrees; materialize_choices = true }

let access_plans (env : Env.t) config rel =
  let est = env.Env.estimator in
  let table = P.Estimator.table_of est rel in
  let paths =
    P.Access_path.Seq_scan
    ::
    (if config.use_indexes then
       List.map
         (fun i -> P.Access_path.Index_scan i)
         (C.Catalog.indexes_of (P.Estimator.catalog est) table.C.Table.name)
     else [])
  in
  List.concat_map
    (fun path ->
      List.map (fun clone -> P.Join_tree.access ~path ~clone rel) config.clone_degrees)
    paths

let connects = Env.connects

let join_methods config ~joined =
  if joined then config.methods
  else List.filter (fun m -> m = P.Join_method.Nested_loops) config.methods

let combine_candidates (env : Env.t) config ~outer ~inner =
  let joined =
    connects env (P.Join_tree.relations outer) (P.Join_tree.relations inner)
  in
  let methods = join_methods config ~joined in
  let mats = if config.materialize_choices then [ false; true ] else [ false ] in
  List.concat_map
    (fun method_ ->
      List.concat_map
        (fun clone ->
          List.map
            (fun materialize ->
              P.Join_tree.join ~clone ~materialize method_ ~outer ~inner)
            mats)
        config.clone_degrees)
    methods

let join_candidates env config ~outer ~rel =
  List.concat_map
    (fun inner -> combine_candidates env config ~outer ~inner)
    (access_plans env config rel)
