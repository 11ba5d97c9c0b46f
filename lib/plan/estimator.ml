module C = Parqo_catalog
module Q = Parqo_query.Query
module Bitset = Parqo_util.Bitset

(* The cardinality memo must be safe to share across domains: the
   parallel search evaluates plans concurrently against one Env.  For the
   query sizes the search handles, a dense float array indexed by subset
   mask works and makes races benign — every writer stores the same pure
   function of the key, so a concurrent reader sees either the sentinel
   (and recomputes) or the final value, never a torn structure.  Queries
   too wide for a dense table fall back to a mutex-guarded hashtable. *)
type memo =
  | Dense of float array  (** [nan] = absent; idempotent writes *)
  | Sparse of Mutex.t * (int, float) Hashtbl.t

let max_dense_relations = 20  (* 2^20 floats = 8 MB *)

type t = {
  catalog : C.Catalog.t;
  query : Q.t;
  tables : C.Table.t array;  (** by relation id *)
  base_cards : float array;  (** after selections *)
  card_memo : memo;
}

let stats_of t (r : Q.column_ref) =
  C.Table.column_stats t.tables.(r.rel) r.column

let selection_selectivity_of tables (s : Q.selection) =
  let stats = C.Table.column_stats tables.(s.on.Q.rel) s.on.Q.column in
  let v = C.Value.to_float s.value in
  let sel =
    match s.cmp with
    | Q.Eq -> C.Stats.eq_fraction stats v
    | Q.Ne -> 1. -. C.Stats.eq_fraction stats v
    | Q.Le -> C.Stats.le_fraction stats v
    | Q.Lt -> C.Stats.le_fraction stats v -. C.Stats.eq_fraction stats v
    | Q.Gt -> 1. -. C.Stats.le_fraction stats v
    | Q.Ge -> 1. -. C.Stats.le_fraction stats v +. C.Stats.eq_fraction stats v
  in
  Float.min 1. (Float.max 0. sel)

let create catalog query =
  (match Q.validate catalog query with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Estimator.create: " ^ msg));
  let n = Q.n_relations query in
  let tables =
    Array.init n (fun i -> C.Catalog.table catalog (Q.table_name query i))
  in
  let base_cards =
    Array.init n (fun i ->
        let raw = tables.(i).C.Table.cardinality in
        let sel =
          List.fold_left
            (fun acc s -> acc *. selection_selectivity_of tables s)
            1.
            (Q.selections_on query i)
        in
        raw *. sel)
  in
  let card_memo =
    if n <= max_dense_relations then Dense (Array.make (1 lsl n) Float.nan)
    else Sparse (Mutex.create (), Hashtbl.create 64)
  in
  { catalog; query; tables; base_cards; card_memo }

let catalog t = t.catalog
let query t = t.query
let raw_card t rel = t.tables.(rel).C.Table.cardinality
let base_card t rel = t.base_cards.(rel)
let table_of t rel = t.tables.(rel)
let selection_selectivity t s = selection_selectivity_of t.tables s

let join_selectivity t (j : Q.join_pred) =
  C.Stats.join_selectivity (stats_of t j.left) (stats_of t j.right)

let compute_card t set =
  let base = Bitset.fold (fun rel acc -> acc *. t.base_cards.(rel)) set 1. in
  let sel =
    List.fold_left
      (fun acc j -> acc *. join_selectivity t j)
      1.
      (Q.joins_within t.query set)
  in
  base *. sel

let card t set =
  let key = Bitset.to_int set in
  match t.card_memo with
  | Dense a ->
    let c = a.(key) in
    if Float.is_nan c then begin
      let c = compute_card t set in
      a.(key) <- c;
      c
    end
    else c
  | Sparse (m, tbl) ->
    Mutex.lock m;
    let cached = Hashtbl.find_opt tbl key in
    Mutex.unlock m;
    (match cached with
    | Some c -> c
    | None ->
      let c = compute_card t set in
      Mutex.lock m;
      Hashtbl.replace tbl key c;
      Mutex.unlock m;
      c)

(* a loop over the relation ids rather than [Bitset.fold]: the fold's
   closure boxes the float accumulator on every step, and expansion asks
   for the width of every costed candidate *)
let width t set =
  let acc = ref 0. in
  for rel = 0 to Array.length t.tables - 1 do
    if Bitset.mem rel set then
      acc := !acc +. float_of_int (C.Table.arity t.tables.(rel))
  done;
  !acc
