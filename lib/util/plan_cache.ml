type 'a t = {
  table : (string, 'a) Hashtbl.t;
  mutable epoch : int;
  mutable hits : int;
  mutable misses : int;
}

let create () = { table = Hashtbl.create 1024; epoch = 0; hits = 0; misses = 0 }

let find t key =
  let r = Hashtbl.find_opt t.table key in
  (match r with
  | Some _ -> t.hits <- t.hits + 1
  | None -> t.misses <- t.misses + 1);
  r

let remember t key v = Hashtbl.replace t.table key v
let remember_at t ~epoch key v = if t.epoch = epoch then remember t key v
let epoch t = t.epoch

let bump t =
  Hashtbl.reset t.table;
  t.epoch <- t.epoch + 1

let length t = Hashtbl.length t.table
let hits t = t.hits
let misses t = t.misses
