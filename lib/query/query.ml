module Bitset = Parqo_util.Bitset

type column_ref = { rel : int; column : string }
type join_pred = { left : column_ref; right : column_ref }
type cmp = Eq | Ne | Lt | Le | Gt | Ge
type selection = { on : column_ref; cmp : cmp; value : Parqo_catalog.Value.t }

type t = {
  relations : (string * string) array;
  joins : join_pred list;
  selections : selection list;
  projection : column_ref list;
  order_by : column_ref list;
  alias_ids : (string, int) Hashtbl.t;
  neighbor_masks : Bitset.t array;
  interesting : string list array;
  fingerprint : string;
}

(* Canonical whole-query key, the cross-query analogue of the interned
   [Join_tree.key]: table names by relation id (aliases are display-only
   — plans speak relation ids, so alias renamings must share a cache
   line), join predicates each normalized to put the lower (rel, column)
   side first and then sorted and deduplicated (conjunction order is
   semantically void), selections sorted likewise.  Projection and ORDER
   BY keep their order — both are position-significant.  Computed once at
   construction, like the adjacency bitsets. *)
let compute_fingerprint ~relations ~joins ~selections ~projection ~order_by =
  let buf = Buffer.create 128 in
  let col (c : column_ref) = Printf.sprintf "%d.%s" c.rel c.column in
  let join (j : join_pred) =
    let a = col j.left and b = col j.right in
    if a <= b then a ^ "=" ^ b else b ^ "=" ^ a
  in
  Buffer.add_string buf "T:";
  List.iteri
    (fun i (_, table) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf table)
    relations;
  Buffer.add_string buf "|J:";
  Buffer.add_string buf
    (String.concat "," (List.sort_uniq String.compare (List.map join joins)));
  Buffer.add_string buf "|S:";
  Buffer.add_string buf
    (String.concat ","
       (List.sort_uniq String.compare
          (List.map
             (fun (s : selection) ->
               Printf.sprintf "%s%s%s" (col s.on)
                 (match s.cmp with
                 | Eq -> "=" | Ne -> "<>" | Lt -> "<"
                 | Le -> "<=" | Gt -> ">" | Ge -> ">=")
                 (Parqo_catalog.Value.to_string s.value))
             selections)));
  Buffer.add_string buf "|P:";
  Buffer.add_string buf (String.concat "," (List.map col projection));
  Buffer.add_string buf "|O:";
  Buffer.add_string buf (String.concat "," (List.map col order_by));
  Buffer.contents buf

let create ~relations ~joins ?(selections = []) ?(projection = [])
    ?(order_by = []) () =
  let aliases = List.map fst relations in
  if List.length (List.sort_uniq String.compare aliases) <> List.length aliases
  then invalid_arg "Query.create: duplicate alias";
  let n = List.length relations in
  let check_ref what (r : column_ref) =
    if r.rel < 0 || r.rel >= n then
      invalid_arg ("Query.create: " ^ what ^ " references invalid relation")
  in
  List.iter
    (fun (j : join_pred) ->
      check_ref "join" j.left;
      check_ref "join" j.right;
      if j.left.rel = j.right.rel then
        invalid_arg "Query.create: join predicate within one relation")
    joins;
  List.iter (fun (s : selection) -> check_ref "selection" s.on) selections;
  List.iter (fun c -> check_ref "projection" c) projection;
  List.iter (fun c -> check_ref "order by" c) order_by;
  (* lookup structures for the search hot path: alias resolution and the
     per-relation join-graph adjacency, both asked for per candidate *)
  let alias_ids = Hashtbl.create (max 8 n) in
  List.iteri (fun i (a, _) -> Hashtbl.replace alias_ids a i) relations;
  let neighbor_masks = Array.make (max 1 n) Bitset.empty in
  List.iter
    (fun (j : join_pred) ->
      neighbor_masks.(j.left.rel) <-
        Bitset.add j.right.rel neighbor_masks.(j.left.rel);
      neighbor_masks.(j.right.rel) <-
        Bitset.add j.left.rel neighbor_masks.(j.right.rel))
    joins;
  (* per relation, the columns a join predicate or the ORDER BY names:
     the only ones whose order a plan can use *)
  let interesting = Array.make (max 1 n) [] in
  let name (c : column_ref) =
    if not (List.mem c.column interesting.(c.rel)) then
      interesting.(c.rel) <- c.column :: interesting.(c.rel)
  in
  List.iter
    (fun (j : join_pred) ->
      name j.left;
      name j.right)
    joins;
  List.iter name order_by;
  {
    relations = Array.of_list relations;
    joins;
    selections;
    projection;
    order_by;
    alias_ids;
    neighbor_masks;
    interesting;
    fingerprint =
      compute_fingerprint ~relations ~joins ~selections ~projection ~order_by;
  }

let fingerprint q = q.fingerprint

let n_relations q = Array.length q.relations
let alias q i = fst q.relations.(i)
let table_name q i = snd q.relations.(i)

let relation_id q a =
  match Hashtbl.find_opt q.alias_ids a with
  | Some i -> i
  | None -> raise Not_found

let connected_between q s1 s2 =
  Bitset.exists (fun r -> not (Bitset.disjoint q.neighbor_masks.(r) s2)) s1

let joins_between q s1 s2 =
  if not (connected_between q s1 s2) then []
  else
    List.filter
      (fun (j : join_pred) ->
        (Bitset.mem j.left.rel s1 && Bitset.mem j.right.rel s2)
        || (Bitset.mem j.left.rel s2 && Bitset.mem j.right.rel s1))
      q.joins

let joins_within q s =
  List.filter
    (fun (j : join_pred) -> Bitset.mem j.left.rel s && Bitset.mem j.right.rel s)
    q.joins

let selections_on q rel =
  List.filter (fun (s : selection) -> s.on.rel = rel) q.selections

let neighbors q rel = q.neighbor_masks.(rel)

let interesting q rel column = List.mem column q.interesting.(rel)

let connected q s =
  if Bitset.cardinal s <= 1 then true
  else begin
    let start = Bitset.choose s in
    let rec grow frontier visited =
      if Bitset.is_empty frontier then visited
      else begin
        let next =
          Bitset.fold
            (fun r acc -> Bitset.union acc (Bitset.inter (neighbors q r) s))
            frontier Bitset.empty
        in
        let fresh = Bitset.diff next visited in
        grow fresh (Bitset.union visited fresh)
      end
    in
    let reached = grow (Bitset.singleton start) (Bitset.singleton start) in
    Bitset.equal reached s
  end

let validate catalog q =
  let module C = Parqo_catalog in
  let check_ref (r : column_ref) =
    let tname = table_name q r.rel in
    match C.Catalog.find_table catalog tname with
    | None -> Error (Printf.sprintf "unknown table %s" tname)
    | Some t ->
      if C.Table.has_column t r.column then Ok ()
      else Error (Printf.sprintf "unknown column %s.%s" tname r.column)
  in
  let refs =
    List.concat_map (fun (j : join_pred) -> [ j.left; j.right ]) q.joins
    @ List.map (fun (s : selection) -> s.on) q.selections
    @ q.projection
    @ q.order_by
    @ List.init (n_relations q) (fun _ -> { rel = 0; column = "" })
  in
  (* relation aliases themselves must resolve even with no predicates *)
  let rec check_tables i =
    if i >= n_relations q then Ok ()
    else
      match C.Catalog.find_table catalog (table_name q i) with
      | None -> Error (Printf.sprintf "unknown table %s" (table_name q i))
      | Some _ -> check_tables (i + 1)
  in
  match check_tables 0 with
  | Error _ as e -> e
  | Ok () ->
    let rec check = function
      | [] -> Ok ()
      | r :: rest when r.column = "" -> check rest
      | r :: rest -> ( match check_ref r with Ok () -> check rest | e -> e)
    in
    check refs

let contract q ~groups ~rename =
  let n = n_relations q in
  let in_group = Array.make n None in
  List.iteri
    (fun gi (rels, _, _) ->
      if rels = [] then invalid_arg "Query.contract: empty group";
      List.iter
        (fun r ->
          if r < 0 || r >= n then
            invalid_arg "Query.contract: relation out of range";
          if in_group.(r) <> None then
            invalid_arg "Query.contract: overlapping groups";
          in_group.(r) <- Some gi)
        rels)
    groups;
  let kept = List.filter (fun r -> in_group.(r) = None) (List.init n Fun.id) in
  let n_kept = List.length kept in
  let new_id = Array.make n (-1) in
  List.iteri (fun i r -> new_id.(r) <- i) kept;
  List.iteri
    (fun gi (rels, _, _) -> List.iter (fun r -> new_id.(r) <- n_kept + gi) rels)
    groups;
  let relations =
    List.map (fun r -> q.relations.(r)) kept
    @ List.map (fun (_, alias, table) -> (alias, table)) groups
  in
  let map_ref (c : column_ref) =
    match in_group.(c.rel) with
    | None -> { rel = new_id.(c.rel); column = c.column }
    | Some _ -> { rel = new_id.(c.rel); column = rename c.rel c.column }
  in
  let joins =
    List.filter_map
      (fun (j : join_pred) ->
        let l = map_ref j.left and r = map_ref j.right in
        if l.rel = r.rel then None else Some { left = l; right = r })
      q.joins
  in
  let selections =
    List.filter_map
      (fun (s : selection) ->
        match in_group.(s.on.rel) with
        | Some _ -> None (* already applied inside the contracted group *)
        | None -> Some { s with on = map_ref s.on })
      q.selections
  in
  let projection = List.map map_ref q.projection in
  let order_by = List.map map_ref q.order_by in
  ( create ~relations ~joins ~selections ~projection ~order_by (),
    fun r ->
      if r < 0 || r >= n then invalid_arg "Query.contract: relation out of range"
      else new_id.(r) )

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pp_column_ref q ppf (r : column_ref) =
  Format.fprintf ppf "%s.%s" (alias q r.rel) r.column

let to_sql q =
  let buf = Buffer.create 128 in
  let col (r : column_ref) = Printf.sprintf "%s.%s" (alias q r.rel) r.column in
  Buffer.add_string buf "SELECT ";
  (match q.projection with
  | [] -> Buffer.add_string buf "*"
  | cols -> Buffer.add_string buf (String.concat ", " (List.map col cols)));
  Buffer.add_string buf " FROM ";
  Buffer.add_string buf
    (String.concat ", "
       (Array.to_list q.relations
       |> List.map (fun (a, t) -> if a = t then t else t ^ " " ^ a)));
  let preds =
    List.map
      (fun (j : join_pred) -> Printf.sprintf "%s = %s" (col j.left) (col j.right))
      q.joins
    @ List.map
        (fun (s : selection) ->
          Printf.sprintf "%s %s %s" (col s.on) (cmp_to_string s.cmp)
            (match s.value with
            | Parqo_catalog.Value.Str str -> "'" ^ str ^ "'"
            | v -> Parqo_catalog.Value.to_string v))
        q.selections
  in
  if preds <> [] then begin
    Buffer.add_string buf " WHERE ";
    Buffer.add_string buf (String.concat " AND " preds)
  end;
  if q.order_by <> [] then begin
    Buffer.add_string buf " ORDER BY ";
    Buffer.add_string buf (String.concat ", " (List.map col q.order_by))
  end;
  Buffer.contents buf

let pp ppf q = Format.pp_print_string ppf (to_sql q)
