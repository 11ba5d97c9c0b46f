module Bitset = Parqo_util.Bitset

type access = { rel : int; path : Access_path.t; clone : int; akey : string }

type join = {
  method_ : Join_method.t;
  outer : t;
  inner : t;
  clone : int;
  materialize : bool;
  mutable jkey : string;
  jrels : Bitset.t;
}

and t = Access of access | Join of join

let method_abbrev = function
  | Join_method.Nested_loops -> "NL"
  | Join_method.Sort_merge -> "SM"
  | Join_method.Hash_join -> "HJ"

let relations = function Access a -> Bitset.singleton a.rel | Join j -> j.jrels

let access_key ~path ~clone rel =
  let base =
    match path with
    | Access_path.Seq_scan -> Printf.sprintf "scan(r%d)" rel
    | Access_path.Index_scan i ->
      Printf.sprintf "idx(r%d:%s)" rel i.Parqo_catalog.Index.name
  in
  if clone > 1 then Printf.sprintf "%s/%d" base clone else base

let access ?(path = Access_path.Seq_scan) ?(clone = 1) rel =
  if clone < 1 then invalid_arg "Join_tree.access: clone < 1";
  Access { rel; path; clone; akey = access_key ~path ~clone rel }

(* renders "ABBREV[/clone][!](outer, inner)" by direct concatenation:
   the sprintf equivalent ran once per candidate in the DP's inner loop,
   and format interpretation plus intermediate strings showed up in the
   per-plan allocation profile *)
let join_key ~method_ ~clone ~materialize ~okey ~ikey =
  let abbrev = method_abbrev method_ in
  let cl = if clone > 1 then "/" ^ string_of_int clone else "" in
  let bang = if materialize then "!" else "" in
  let la = String.length abbrev and lc = String.length cl in
  let lb = String.length bang in
  let lo = String.length okey and li = String.length ikey in
  let b = Bytes.create (la + lc + lb + 1 + lo + 2 + li + 1) in
  let pos = ref 0 in
  let put s l =
    Bytes.blit_string s 0 b !pos l;
    pos := !pos + l
  in
  put abbrev la;
  put cl lc;
  put bang lb;
  put "(" 1;
  put okey lo;
  put ", " 2;
  put ikey li;
  put ")" 1;
  Bytes.unsafe_to_string b

(* The canonical rendering doubles as the plan's identity: the search
   breaks rank ties with it and the plan cache keys on it, so it is
   hash-consed bottom-up (a join's key concatenates its children's keys)
   instead of being re-rendered on every comparison.  A join's key is
   built when it is first read, not at construction: the search builds
   many more joins than it ever compares or prints.  Two domains reading
   an unbuilt key race to store equal strings, so either store is
   right. *)
let rec key = function
  | Access a -> a.akey
  | Join j ->
    if String.length j.jkey = 0 then
      j.jkey <-
        join_key ~method_:j.method_ ~clone:j.clone ~materialize:j.materialize
          ~okey:(key j.outer) ~ikey:(key j.inner);
    j.jkey

let join ?(clone = 1) ?(materialize = false) method_ ~outer ~inner =
  if clone < 1 then invalid_arg "Join_tree.join: clone < 1";
  let jrels = Bitset.union (relations outer) (relations inner) in
  Join { method_; outer; inner; clone; materialize; jkey = ""; jrels }

let rec n_leaves = function
  | Access _ -> 1
  | Join j -> n_leaves j.outer + n_leaves j.inner

let rec n_joins = function
  | Access _ -> 0
  | Join j -> 1 + n_joins j.outer + n_joins j.inner

let rec is_left_deep = function
  | Access _ -> true
  | Join j -> (match j.inner with Access _ -> is_left_deep j.outer | Join _ -> false)

let rec leaves = function
  | Access a -> [ a ]
  | Join j -> leaves j.outer @ leaves j.inner

let rec joins = function
  | Access _ -> []
  | Join j -> joins j.outer @ joins j.inner @ [ j ]

let rec fold ~access ~join = function
  | Access a -> access a
  | Join j -> join j (fold ~access ~join j.outer) (fold ~access ~join j.inner)

let rec equal a b =
  match (a, b) with
  | Access x, Access y ->
    x.rel = y.rel && Access_path.equal x.path y.path && x.clone = y.clone
  | Join x, Join y ->
    Join_method.equal x.method_ y.method_
    && x.clone = y.clone
    && x.materialize = y.materialize
    && equal x.outer y.outer && equal x.inner y.inner
  | Access _, Join _ | Join _, Access _ -> false

let well_formed ~n_relations t =
  let ls = leaves t in
  let ids = List.map (fun a -> a.rel) ls in
  let sorted = List.sort_uniq compare ids in
  if List.exists (fun r -> r < 0 || r >= n_relations) ids then
    Error "relation id out of range"
  else if List.length sorted <> List.length ids then
    Error "relation used more than once"
  else if
    List.exists (fun (a : access) -> a.clone < 1) ls
    || List.exists (fun (j : join) -> j.clone < 1) (joins t)
  then Error "clone degree < 1"
  else Ok ()

let to_string = key

let pp ppf t = Format.pp_print_string ppf (to_string t)
