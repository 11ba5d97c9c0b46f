module Q = Parqo_query.Query
module Bitset = Parqo_util.Bitset

let join_preds query (j : Join_tree.join) =
  Q.joins_between query
    (Join_tree.relations j.outer)
    (Join_tree.relations j.inner)

(* For a predicate, the column reference on the side inside [set]. *)
let side_in set (p : Q.join_pred) =
  if Bitset.mem p.left.Q.rel set then p.left else p.right

let key_on side preds =
  List.map (fun p -> Ordering.of_join_pred_side (side_in side p)) preds

let sort_key_outer query (j : Join_tree.join) =
  key_on (Join_tree.relations j.outer) (join_preds query j)

let sort_key_inner query (j : Join_tree.join) =
  key_on (Join_tree.relations j.inner) (join_preds query j)

let sort_keys query ~outer ~inner =
  let preds = Q.joins_between query outer inner in
  (key_on outer preds, key_on inner preds)

(* The output ordering of a join depends on its own annotations plus —
   only for the order-preserving methods — the outer child's ordering.
   Both inputs are lazy: the full [ordering] recomputes them only when
   needed, incremental costing passes memoized values. *)
let join_ordering method_ ~clone ~outer_key ~outer =
  if clone > 1 then Ordering.none
  else
    match method_ with
    | Join_method.Sort_merge -> Lazy.force outer_key
    | Join_method.Hash_join | Join_method.Nested_loops -> Lazy.force outer

(* An access path's order up to its longest prefix of interesting
   columns, the order itself when it is all interesting.  Sort elision
   and the final sort ask only for join or ORDER BY columns, and
   [subsumes] is a prefix test, so a cut order satisfies exactly the
   keys the whole one does. *)
let rec interesting_prefix query = function
  | [] -> []
  | (c : Ordering.col) :: rest as order ->
    if not (Q.interesting query c.rel c.column) then []
    else
      let kept = interesting_prefix query rest in
      if kept == rest then order else c :: kept

let rec ordering query = function
  | Join_tree.Access a ->
    if a.clone > 1 then Ordering.none
    else interesting_prefix query (Access_path.ordering ~rel:a.rel a.path)
  | Join_tree.Join j ->
    join_ordering j.method_ ~clone:j.clone
      ~outer_key:(lazy (sort_key_outer query j))
      ~outer:(lazy (ordering query j.outer))

let partition_column query = function
  | Join_tree.Access _ -> None
  | Join_tree.Join j ->
    if j.clone <= 1 then None
    else (
      match sort_key_outer query j with
      | [] -> None
      | col :: _ -> Some col)
