type t = int

let max_element = 61

let empty = 0

let full n =
  if n < 0 || n > max_element + 1 then invalid_arg "Bitset.full";
  if n = 0 then 0 else (-1) lsr (62 - n) land ((1 lsl n) - 1)

let singleton i =
  if i < 0 || i > max_element then invalid_arg "Bitset.singleton";
  1 lsl i

let mem i s = s land (1 lsl i) <> 0
let add i s = s lor singleton i
let remove i s = s land lnot (1 lsl i)
let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b
let is_empty s = s = 0
let equal (a : int) b = a = b
let compare (a : int) b = Stdlib.compare a b
let subset a b = a land lnot b = 0
let disjoint a b = a land b = 0

let cardinal s =
  let rec count acc s = if s = 0 then acc else count (acc + 1) (s land (s - 1)) in
  count 0 s

let choose s =
  if s = 0 then raise Not_found;
  (* index of least significant set bit *)
  let rec find i = if s land (1 lsl i) <> 0 then i else find (i + 1) in
  find 0

let iter f s =
  let rec loop i s =
    if s <> 0 then begin
      if s land 1 <> 0 then f i;
      loop (i + 1) (s lsr 1)
    end
  in
  loop 0 s

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

(* exists/for_all short-circuit: the search hot path probes adjacency
   bitsets with these, so an early hit must not scan the remaining bits *)
let exists p s =
  let rec loop i s =
    s <> 0 && ((s land 1 <> 0 && p i) || loop (i + 1) (s lsr 1))
  in
  loop 0 s

let for_all p s = not (exists (fun i -> not (p i)) s)
let of_list l = List.fold_left (fun s i -> add i s) empty l
let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

let iter_subsets_of_size f n ~size =
  let all = full n in
  if size < 0 then invalid_arg "Bitset.subsets_of_size";
  if size = 0 then f empty
  else if size <= n then begin
    (* Gosper's hack: from a size-k mask, the next larger size-k mask is
       [r lor (((v lxor r) lsr 2) / c)] with [c] the lowest set bit and
       [r = v + c] — O(C(n,k)) total instead of scanning all 2^n masks. *)
    let rec loop v =
      f v;
      let c = v land -v in
      let r = v + c in
      let v' = r lor (((v lxor r) lsr 2) / c) in
      (* v' < v: the carry overflowed past the top bit — last subset *)
      if v' <= all && v' > v then loop v'
    in
    loop ((1 lsl size) - 1)
  end

let subsets_of_size n ~size =
  let acc = ref [] in
  iter_subsets_of_size (fun s -> acc := s :: !acc) n ~size;
  List.rev !acc

(* The submasks of [s] in increasing order: [(sub - s) land s] is the
   next larger one, and [(0 - s) land s] the least non-empty one. *)
let iter_proper_nonempty_subsets f s =
  let rec loop sub =
    if sub <> s then begin
      f sub;
      loop ((sub - s) land s)
    end
  in
  if s <> 0 then loop (-s land s)

let proper_nonempty_subsets s =
  let acc = ref [] in
  iter_proper_nonempty_subsets (fun sub -> acc := sub :: !acc) s;
  List.rev !acc

let to_int s = s
let of_int_unsafe m = m

let pp ppf s =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map string_of_int (to_list s)))
