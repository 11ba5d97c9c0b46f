module Cm = Parqo.Costmodel
module O = Parqo.Optimizer
module Q = Parqo.Query
module QG = Parqo.Query_gen
module SS = Parqo.Search_stats

let machine = Parqo.Machine.shared_nothing ~nodes:4 ()
let config = Parqo.Space.parallel_config machine
let degradation = Parqo.Bounds.Throughput_degradation 2.0

type case = {
  label : string;
  catalog : Parqo.Catalog.t;
  query : Q.t;
  bound : Parqo.Bounds.t;
  shape : O.tree_shape;
}

type gen = Random | Shape of QG.shape

(* A query of the [optimize] mix: a shape with drawn statistics, or a
   random join graph; with an ORDER BY on its first join's left column
   when [order_by], parsed from SQL as a session would. *)
let mixed rng ~order_by ~shape (g, n) =
  let catalog, q =
    match g with
    | Random -> QG.random rng ~n ()
    | Shape s ->
      QG.generate
        {
          (QG.default_spec s n) with
          QG.base_card = 700. +. Parqo.Rng.float rng 700.;
          card_skew = 0.4 +. Parqo.Rng.float rng 0.2;
          distinct_fraction = 0.08 +. Parqo.Rng.float rng 0.04;
        }
  in
  let query =
    if not order_by then q
    else
      let j = List.hd q.Q.joins in
      let sql =
        Printf.sprintf "%s ORDER BY %s.%s" (Q.to_sql q) (Q.alias q j.Q.left.Q.rel)
          j.Q.left.Q.column
      in
      match Parqo.Sql.parse ~catalog sql with
      | Ok query -> query
      | Error e -> failwith ("identity digest: " ^ e)
  in
  let name = match g with Random -> "random" | Shape s -> QG.shape_to_string s in
  let label =
    Printf.sprintf "%s%s-%d%s"
      (match shape with O.Bushy -> "bushy-" | O.Left_deep -> "")
      name n
      (if order_by then "+order" else "")
  in
  { label; catalog; query; bound = degradation; shape }

(* A serving-pool query ordered by an indexed column of its first
   relation that no join predicate names: the order only the ORDER BY
   makes interesting. *)
let unjoined_order_by c =
  let q = c.query in
  let column =
    List.find (fun column -> not (Q.interesting q 0 column))
      (List.concat_map
         (fun (i : Parqo.Index.t) -> i.Parqo.Index.columns)
         (Parqo.Catalog.indexes_of c.catalog (Q.table_name q 0)))
  in
  let sql = Printf.sprintf "%s ORDER BY %s.%s" (Q.to_sql q) (Q.alias q 0) column in
  match Parqo.Sql.parse ~catalog:c.catalog sql with
  | Ok query -> { c with label = c.label ^ "+order-unjoined"; query }
  | Error e -> failwith ("identity digest: " ^ e)

let cases () =
  let rng = Parqo.Rng.create 26 in
  let left_deep =
    List.mapi
      (fun i kind -> mixed rng ~order_by:(i mod 3 = 0) ~shape:O.Left_deep kind)
      [
        (Shape QG.Chain, 3); (Shape QG.Star, 3); (Shape QG.Cycle, 3);
        (Shape QG.Clique, 3); (Random, 3); (Shape QG.Clique, 3);
        (Shape QG.Chain, 4); (Shape QG.Star, 4); (Shape QG.Cycle, 4);
        (Shape QG.Clique, 4); (Random, 4); (Shape QG.Chain, 4);
      ]
  in
  let serving =
    let catalog, queries = Parqo.Workloads.serving_pool ~seed:7 () in
    Array.to_list
      (Array.mapi
         (fun i query ->
           {
             label = Printf.sprintf "serve-%02d-%d" i (Q.n_relations query);
             catalog;
             query;
             bound = Parqo.Bounds.Unbounded;
             shape = O.Left_deep;
           })
         queries)
  in
  let bushy =
    List.mapi
      (fun i kind -> mixed rng ~order_by:(i = 1) ~shape:O.Bushy kind)
      [ (Shape QG.Chain, 3); (Shape QG.Star, 3); (Shape QG.Chain, 4); (Shape QG.Cycle, 4) ]
  in
  left_deep @ serving @ bushy @ [ unjoined_order_by (List.nth serving 1) ]

let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let row (r : Parqo.Rvec.t) =
  String.concat ","
    (bits r.Parqo.Rvec.time
    :: List.map bits (Array.to_list (Parqo.Vecf.to_array r.Parqo.Rvec.work)))

let plan label = function
  | None -> Printf.sprintf "%s=none" label
  | Some (e : Cm.eval) ->
    Printf.sprintf "%s=%s rt=%s w=%s" label
      (Parqo.Join_tree.to_string e.Cm.tree)
      (bits e.Cm.response_time) (bits e.Cm.work)

let render (e : Cm.eval) =
  String.concat " "
    [
      Parqo.Join_tree.to_string e.Cm.tree;
      bits e.Cm.response_time;
      bits e.Cm.work;
      row e.Cm.descriptor.Parqo.Descriptor.rf;
      row e.Cm.descriptor.Parqo.Descriptor.rl;
      Parqo.Ordering.to_string e.Cm.ordering;
    ]

let counts label (s : SS.t) =
  let level (l : SS.level) =
    Printf.sprintf "%d:%d/%d/%d/%d" l.SS.level l.SS.subsets l.SS.generated
      l.SS.stored l.SS.cover_max
  in
  Printf.sprintf "%s=%d/%d/%d/%d levels=%s" label s.SS.generated s.SS.considered
    s.SS.rejected s.SS.entries
    (String.concat "," (List.map level (SS.levels s)))

let line ?pool c =
  let env = Parqo.Env.create ~machine ~catalog:c.catalog ~query:c.query () in
  let o = O.minimize_response_time ~config ~shape:c.shape ~bound:c.bound ?pool env in
  String.concat " "
    ([
       c.label;
       plan "best" o.O.best;
       plan "work-optimal" o.O.work_optimal;
       Printf.sprintf "cover=%d:%s" (List.length o.O.cover)
         (Digest.to_hex
            (Digest.string (String.concat "\n" (List.map render o.O.cover))));
       counts "search" o.O.stats;
     ]
    @ (match o.O.work_stats with None -> [] | Some s -> [ counts "work-search" s ])
    @ if o.O.gave_up then [ "gave-up" ] else [])

let lines ?pool () = List.map (fun c -> (c.label, line ?pool c)) (cases ())
