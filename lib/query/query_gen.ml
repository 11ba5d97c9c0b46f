module C = Parqo_catalog
module Rng = Parqo_util.Rng

type shape = Chain | Star | Cycle | Clique

let shape_to_string = function
  | Chain -> "chain"
  | Star -> "star"
  | Cycle -> "cycle"
  | Clique -> "clique"

type spec = {
  shape : shape;
  n : int;
  base_card : float;
  card_skew : float;
  distinct_fraction : float;
  n_disks : int;
  with_indexes : bool;
}

let default_spec shape n =
  {
    shape;
    n;
    base_card = 1000.;
    card_skew = 0.5;
    distinct_fraction = 0.1;
    n_disks = 4;
    with_indexes = true;
  }

let edges_of_shape shape n =
  match shape with
  | Chain -> List.init (n - 1) (fun i -> (i, i + 1))
  | Star -> List.init (n - 1) (fun i -> (0, i + 1))
  | Cycle ->
    List.init (n - 1) (fun i -> (i, i + 1)) @ if n > 2 then [ (n - 1, 0) ] else []
  | Clique ->
    List.concat
      (List.init n (fun i -> List.init (n - 1 - i) (fun d -> (i, i + 1 + d))))

let join_col i j = Printf.sprintf "j%d_%d" (min i j) (max i j)

let build_catalog_and_query ~cards ~distinct_of ~edges ~n_disks ~with_indexes n =
  let columns_of rel =
    let joins =
      List.filter (fun (i, j) -> i = rel || j = rel) edges
      |> List.map (fun (i, j) ->
             let card = cards.(rel) in
             let distinct = Float.max 1. (distinct_of rel card) in
             ( join_col i j,
               C.Stats.column ~distinct ~min_v:0. ~max_v:(distinct -. 1.) () ))
    in
    let payload =
      ( "val",
        C.Stats.column
          ~distinct:(Float.max 1. (cards.(rel) /. 10.))
          ~min_v:0. ~max_v:1000. () )
    in
    ("pk", C.Stats.column ~distinct:cards.(rel) ~min_v:0. ~max_v:(cards.(rel) -. 1.) ())
    :: joins
    @ [ payload ]
  in
  let tables =
    List.init n (fun i ->
        C.Table.create
          ~name:(Printf.sprintf "t%d" i)
          ~columns:(columns_of i) ~cardinality:cards.(i)
          ~disks:[ i mod n_disks ] ())
  in
  let indexes =
    if not with_indexes then []
    else
      List.concat
        (List.init n (fun rel ->
             List.filter (fun (i, j) -> i = rel || j = rel) edges
             |> List.mapi (fun k (i, j) ->
                    C.Index.create
                      ~name:(Printf.sprintf "idx_t%d_%s" rel (join_col i j))
                      ~table:(Printf.sprintf "t%d" rel)
                      ~columns:[ join_col i j ]
                      ~clustered:(k = 0)
                      ~disk:(rel mod n_disks) ())))
  in
  let catalog = C.Catalog.create ~tables ~indexes in
  let joins =
    List.map
      (fun (i, j) ->
        {
          Query.left = { Query.rel = i; column = join_col i j };
          right = { Query.rel = j; column = join_col i j };
        })
      edges
  in
  let relations =
    List.init n (fun i -> (Printf.sprintf "t%d" i, Printf.sprintf "t%d" i))
  in
  (catalog, Query.create ~relations ~joins ())

let generate spec =
  if spec.n < 1 then invalid_arg "Query_gen.generate: n < 1";
  let cards =
    Array.init spec.n (fun i ->
        spec.base_card *. Parqo_util.Combin.powi (1. +. spec.card_skew) i)
  in
  let distinct_of _rel card = spec.distinct_fraction *. card in
  let edges = edges_of_shape spec.shape spec.n in
  build_catalog_and_query ~cards ~distinct_of:(fun r c -> distinct_of r c)
    ~edges ~n_disks:spec.n_disks ~with_indexes:spec.with_indexes spec.n

(* A random join graph whose connected components are [comp]'s classes,
   over relations 0 .. Array.length comp - 1: each relation attaches to a
   random earlier member of its component, if it has one, and random
   extra edges join members of one component. *)
let random_components rng ~comp ~n_disks ~with_indexes =
  let n = Array.length comp in
  let cards =
    Array.init n (fun _ -> float_of_int (Rng.range rng 100 100_000))
  in
  let tree_edges =
    List.filter_map
      (fun j ->
        match List.filter (fun i -> comp.(i) = comp.(j)) (List.init j Fun.id) with
        | [] -> None
        | earlier -> Some (List.nth earlier (Rng.int rng (List.length earlier)), j))
      (List.init n Fun.id)
  in
  let extra_edges =
    if n < 3 then []
    else
      List.filter_map
        (fun _ ->
          let i = Rng.int rng n and j = Rng.int rng n in
          if i = j || comp.(i) <> comp.(j) then None else Some (min i j, max i j))
        (List.init (Rng.int rng n) Fun.id)
  in
  let edges = List.sort_uniq compare (tree_edges @ extra_edges) in
  let distinct_of _rel card =
    Float.max 2. (card *. (0.01 +. Rng.float rng 0.5))
  in
  build_catalog_and_query ~cards ~distinct_of ~edges ~n_disks ~with_indexes n

let random rng ~n ?(n_disks = 4) ?(with_indexes = true) () =
  if n < 1 then invalid_arg "Query_gen.random: n < 1";
  random_components rng ~comp:(Array.make n 0) ~n_disks ~with_indexes

let random_disconnected rng ~n =
  if n < 2 then invalid_arg "Query_gen.random_disconnected: n < 2";
  (* relation i < k seeds component i; each later one joins a random
     component *)
  let k = 2 + Rng.int rng (n - 1) in
  let comp = Array.init n (fun i -> if i < k then i else Rng.int rng k) in
  random_components rng ~comp ~n_disks:4 ~with_indexes:true
