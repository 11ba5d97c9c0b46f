module C = Parqo_catalog
module Q = Parqo_query.Query
module P = Parqo_plan
module Value = C.Value

type t = {
  layout : Batch.layout;
  mutable pull : unit -> Value.t array option;
  mutable closed : bool;
  counter : int ref;  (* base rows fetched, shared along the pipeline *)
}

let layout it = it.layout

let next it =
  if it.closed then invalid_arg "Iterator.next: closed";
  it.pull ()

let close it =
  it.closed <- true;
  it.pull <- (fun () -> None)

let rows_until_first it = it.counter

(* drain another iterator completely (used by blocking operators) *)
let drain it =
  let rec go acc =
    match next it with None -> List.rev acc | Some row -> go (row :: acc)
  in
  let rows = go [] in
  close it;
  rows

let pop rest =
  match !rest with
  | [] -> None
  | row :: tail ->
    rest := tail;
    Some row

let stream counter layout rows =
  let rest = ref rows in
  let pull () =
    match pop rest with
    | Some _ as row ->
      incr counter;
      row
    | None -> None
  in
  { layout; closed = false; counter; pull }

(* Every join probes an index over its inner, built when the first outer
   row is wanted: nested loops and hash join stream the outer as it
   comes; sort-merge drains and stably sorts the outer on its key first,
   building the index at the same time, so it consumes both sides before
   its first row. *)
let probe_join db query ~sort_outer outer inner =
  let opos, ipos =
    Executor.key_positions db query ~outer:outer.layout ~inner:inner.layout
  in
  let index = lazy (Executor.index ipos (drain inner)) in
  let next_outer =
    if sort_outer then begin
      let sorted =
        lazy
          (let rows = Executor.sort_on opos (drain outer) in
           ignore (Lazy.force index);
           ref rows)
      in
      fun () -> pop (Lazy.force sorted)
    end
    else fun () -> next outer
  in
  let current = ref ([||], []) (* outer row, its remaining matches *) in
  let rec pull () =
    match !current with
    | orow, irow :: rest ->
      current := (orow, rest);
      Some (Array.append orow irow)
    | _, [] -> (
      match next_outer () with
      | None -> None
      | Some orow ->
        current := (orow, Executor.matches (Lazy.force index) opos orow);
        pull ())
  in
  {
    layout = Batch.concat_layouts outer.layout inner.layout;
    closed = false;
    counter = outer.counter;
    pull;
  }

let of_plan db query tree =
  (match
     P.Join_tree.well_formed ~n_relations:(Q.n_relations query) tree
   with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Iterator.of_plan: " ^ msg));
  let counter = ref 0 in
  let rec build = function
    | P.Join_tree.Access a ->
      let rel = a.P.Join_tree.rel in
      let b =
        match a.P.Join_tree.path with
        | P.Access_path.Seq_scan -> Executor.scan db query ~rel
        | P.Access_path.Index_scan index ->
          (* an index delivers its rows in key order *)
          Executor.index_scan db query ~rel index
      in
      stream counter b.Batch.layout b.Batch.rows
    | P.Join_tree.Join j ->
      let outer = build j.P.Join_tree.outer in
      let inner = build j.P.Join_tree.inner in
      let sort_outer = j.P.Join_tree.method_ = P.Join_method.Sort_merge in
      probe_join db query ~sort_outer outer inner
  in
  build tree

let to_batch it =
  let rows = drain it in
  Batch.create ~layout:it.layout ~rows

let run_query db query tree =
  Executor.finalize db query (to_batch (of_plan db query tree))
