(* Spans recorded by the benchmark around each call into a parqo layer.
   Nothing inside the library is traced: a span covers one public call,
   and a layer's self time is what its spans cover minus what their
   child spans cover.  Spans stay in memory until the run writes them. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  op : int;  (** the op the span belongs to; [-1] during set-up *)
  start : float;
  stop : float;
  minor_words : float;  (** [Gc.minor_words] delta on the calling domain *)
}

type t = {
  enabled : bool;
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;
  mutable next : int;
  mutable cur_op : int;  (** op of the spans being opened *)
}

let create ~enabled = { enabled; spans = []; stack = []; next = 0; cur_op = -1 }
let disabled = create ~enabled:false
let enabled t = t.enabled
let set_op t op = t.cur_op <- op

let record t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      let w1 = Gc.minor_words () in
      t.stack <- List.tl t.stack;
      t.spans <-
        { id; name; parent; op = t.cur_op; start = t0; stop = t1; minor_words = w1 -. w0 }
        :: t.spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   its children cover.  Returned in the order of [spans]. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* The parqo layer (library directory) a span's call belongs to. *)
let layer_of name =
  match String.index_opt name '.' with
  | None -> "bench"
  | Some i -> (
    match String.sub name 0 i with
    | "Sql" -> "query"
    | "Env" -> "cost"
    | "Optimizer" -> "search"
    | "Server" -> "serve"
    | "Scheduler" | "Simulator" | "Task_graph" -> "sim"
    | "Parallel_exec" | "Executor" | "Batch" -> "exec"
    | "Workloads" -> "catalog"
    | _ -> "bench")

(* Self seconds per layer, summed over [spans]. *)
let layer_self spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = layer_of s.name in
      Hashtbl.replace tbl l
        (self +. Option.value ~default:0. (Hashtbl.find_opt tbl l)))
    (self_times spans);
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl [] |> List.sort compare

(* Spans of one call name: count, total seconds, total minor words. *)
let totals spans name =
  List.fold_left
    (fun (n, sec, words) s ->
      if s.name = name then (n + 1, sec +. duration s, words +. s.minor_words)
      else (n, sec, words))
    (0, 0., 0.) spans

let to_json spans =
  Jsonw.Arr
    (List.map
       (fun (s, self) ->
         Jsonw.Obj
           [
             ("id", Jsonw.Int s.id);
             ("name", Jsonw.Str s.name);
             ("parent", Jsonw.Int s.parent);
             ("op", Jsonw.Int s.op);
             ("start", Jsonw.Num s.start);
             ("end", Jsonw.Num s.stop);
             ("self_s", Jsonw.Num self);
             ("minor_words", Jsonw.Num s.minor_words);
           ])
       (self_times spans))
