module C = Parqo_catalog
module Q = Parqo_query.Query
module P = Parqo_plan
module Op = Parqo_optree.Op
module Value = C.Value

(* all partitions of a stream share one layout *)
type stream = { layout : Batch.layout; parts : Value.t array list array }

let batch_of stream i =
  Batch.create ~layout:stream.layout ~rows:stream.parts.(i)

let of_batches layout batches =
  { layout; parts = Array.map (fun (b : Batch.t) -> b.Batch.rows) batches }

let col_pos db query layout (c : P.Ordering.col) =
  Executor.column_pos db query layout
    { Q.rel = c.P.Ordering.rel; column = c.P.Ordering.column }

(* round-robin split of rows into k partitions *)
let split_rows k rows =
  let parts = Array.make k [] in
  List.iteri (fun i row -> parts.(i mod k) <- row :: parts.(i mod k)) rows;
  Array.map List.rev parts

let concat_parts stream = List.concat (Array.to_list stream.parts)

let sort_on db query layout cols rows =
  Executor.sort_on (Array.of_list (List.map (col_pos db query layout) cols)) rows

let run_stream db query root =
  let skew_log = ref [] in
  let observe (node : Op.node) (parts : Value.t array list array) =
    if node.Op.clone > 1 then begin
      let sizes = Array.map List.length parts in
      let total = Array.fold_left ( + ) 0 sizes in
      let mean = float_of_int total /. float_of_int (Array.length sizes) in
      let biggest = Array.fold_left max 0 sizes in
      let ratio = if mean > 0. then float_of_int biggest /. mean else 1. in
      skew_log :=
        (Op.kind_name node.Op.kind, node.Op.clone, ratio) :: !skew_log
    end
  in
  let expect_degree label k (s : stream) =
    if Array.length s.parts <> k then
      Parqo_util.Parqo_error.failf ~subsystem:"parallel-exec" ~operator:label
        "expected %d input partitions, got %d (missing exchange?)" k
        (Array.length s.parts)
  in
  let rec eval (node : Op.node) : stream =
    let k = node.Op.clone in
    let result =
      match (node.Op.kind, node.Op.children) with
      | Op.Seq_scan { rel }, [] ->
        let b = Executor.scan db query ~rel in
        { layout = b.Batch.layout; parts = split_rows k b.Batch.rows }
      | Op.Index_scan { rel; index }, [] ->
        (* an index scan delivers rows in key order *)
        let b = Executor.index_scan db query ~rel index in
        { layout = b.Batch.layout; parts = split_rows k b.Batch.rows }
      | Op.Sort { key }, [ child ] ->
        let s = eval child in
        expect_degree "sort" k s;
        { s with parts = Array.map (sort_on db query s.layout key) s.parts }
      | Op.Exchange { mode }, [ child ] ->
        let s = eval child in
        let rows = concat_parts s in
        let parts =
          match mode with
          | Op.Merge_streams -> [| rows |]
          | Op.Broadcast -> Array.make k rows
          | Op.Repartition -> (
            match node.Op.partition with
            | Some col ->
              let pos = col_pos db query s.layout col in
              let parts = Array.make k [] in
              List.iter
                (fun row ->
                  let d = Value.hash row.(pos) mod k in
                  parts.(d) <- row :: parts.(d))
                rows;
              Array.map List.rev parts
            | None -> split_rows k rows)
        in
        { s with parts }
      | Op.Hash_build, [ child ] | Op.Create_index _, [ child ] ->
        (* data structures, not data transforms: rows pass through *)
        let s = eval child in
        expect_degree (Op.kind_name node.Op.kind) k s;
        s
      | Op.Hash_probe, [ outer; inner ]
      | Op.Merge_join, [ outer; inner ]
      | Op.Nl_join, [ outer; inner ] ->
        let so = eval outer and si = eval inner in
        expect_degree "join outer" k so;
        expect_degree "join inner" k si;
        let method_ =
          match node.Op.kind with
          | Op.Hash_probe -> P.Join_method.Hash_join
          | Op.Merge_join -> P.Join_method.Sort_merge
          | Op.Nl_join | _ -> P.Join_method.Nested_loops
        in
        let joined =
          Array.init k (fun i ->
              Executor.join db query ~method_ ~outer:(batch_of so i)
                ~inner:(batch_of si i))
        in
        of_batches (joined.(0)).Batch.layout joined
      | kind, children ->
        Parqo_util.Parqo_error.failf ~subsystem:"parallel-exec"
          ~operator:(Op.kind_name kind) "unexpected shape: %d children"
          (List.length children)
    in
    observe node result.parts;
    result
  in
  let s = eval root in
  (Batch.create ~layout:s.layout ~rows:(concat_parts s), List.rev !skew_log)

let run db query root = fst (run_stream db query root)

let run_query db query root = Executor.finalize db query (run db query root)

let partition_skew db query root =
  let _, skew = run_stream db query root in
  skew
