type ('k, 'a) t = {
  nd : int;
  refines : ('k -> 'k -> bool) option;
  mutable keys : 'k array;  (* per element, what [refines] compares *)
  mutable elems : 'a array;  (* [0..n-1], oldest first *)
  mutable tags : int array;  (* per element, as given to [insert] *)
  mutable dims : float array;  (* row-major, [nd] floats per element *)
  mutable n : int;
  scratch : float array;  (* the candidate's dims row *)
}

let create ~n_dims ?refines () =
  if n_dims < 0 then invalid_arg "Cover.create: n_dims < 0";
  {
    nd = n_dims;
    refines;
    keys = [||];
    elems = [||];
    tags = [||];
    dims = [||];
    n = 0;
    scratch = Array.make n_dims 0.;
  }

let size t = t.n
(* Slots past [n] must not keep dropped elements alive — a long-lived
   cover's arrays sit in the major heap, so a stale slot would promote
   the young candidate it holds at the next minor collection: [clear],
   [insert] and [trim] point them at an element the cover still holds,
   or at its first one. *)
let clear t =
  if t.n > 1 then begin
    Array.fill t.keys 1 (t.n - 1) t.keys.(0);
    Array.fill t.elems 1 (t.n - 1) t.elems.(0)
  end;
  t.n <- 0
let scratch t = t.scratch

(* The scans below run once per candidate and cover entry.  They are
   top-level loops over explicitly typed float arrays: a local recursive
   function would be a closure allocated per call, and without the types
   the comparisons would be the polymorphic ones. *)

(* entry [j]'s row pointwise <= the candidate's *)
let row_le_scratch (dims : float array) (scratch : float array) nd j =
  let base = j * nd in
  let d = ref 0 in
  while !d < nd && dims.(base + !d) <= scratch.(!d) do
    incr d
  done;
  !d = nd

(* the candidate's row pointwise <= entry [j]'s *)
let scratch_le_row (dims : float array) (scratch : float array) nd j =
  let base = j * nd in
  let d = ref 0 in
  while !d < nd && scratch.(!d) <= dims.(base + !d) do
    incr d
  done;
  !d = nd

let refines_ok t a b =
  match t.refines with None -> true | Some r -> r a b

let is_covered t k =
  let j = ref 0 in
  while
    !j < t.n
    && not
         (row_le_scratch t.dims t.scratch t.nd !j
         && refines_ok t t.keys.(!j) k)
  do
    incr j
  done;
  !j < t.n

let ensure_room t k x =
  if t.n = Array.length t.elems then begin
    let cap = max 8 (2 * t.n) in
    let keys = Array.make cap k in
    Array.blit t.keys 0 keys 0 t.n;
    let elems = Array.make cap x in
    Array.blit t.elems 0 elems 0 t.n;
    let tags = Array.make cap 0 in
    Array.blit t.tags 0 tags 0 t.n;
    let dims = Array.make (cap * t.nd) 0. in
    Array.blit t.dims 0 dims 0 (t.n * t.nd);
    t.keys <- keys;
    t.elems <- elems;
    t.tags <- tags;
    t.dims <- dims
  end

let insert t ~tag k x =
  (* evict entries the candidate dominates; stable compaction keeps
     the survivors' insertion order *)
  let kept = ref 0 in
  for j = 0 to t.n - 1 do
    if
      not (scratch_le_row t.dims t.scratch t.nd j && refines_ok t k t.keys.(j))
    then begin
      let m = !kept in
      if m <> j then begin
        t.keys.(m) <- t.keys.(j);
        t.elems.(m) <- t.elems.(j);
        t.tags.(m) <- t.tags.(j);
        Array.blit t.dims (j * t.nd) t.dims (m * t.nd) t.nd
      end;
      kept := m + 1
    end
  done;
  let old = t.n in
  t.n <- !kept;
  ensure_room t k x;
  t.keys.(t.n) <- k;
  t.elems.(t.n) <- x;
  t.tags.(t.n) <- tag;
  Array.blit t.scratch 0 t.dims (t.n * t.nd) t.nd;
  t.n <- t.n + 1;
  if old > t.n then begin
    Array.fill t.keys t.n (old - t.n) k;
    Array.fill t.elems t.n (old - t.n) x
  end

let add t k x =
  if is_covered t k then false
  else begin
    insert t ~tag:0 k x;
    true
  end

(* A k-way merge on tags: each part is in insertion order, and its tags
   ascend when its candidates were added in sequence order, so the next
   entry to fold is the smallest head.  Equal tags go to the earliest
   part; within a part the order is kept. *)
let merge ~into parts =
  let parts = Array.of_list parts in
  let k = Array.length parts in
  let heads = Array.make k 0 in
  let rec next best i =
    if i = k then best
    else
      let p = parts.(i) and h = heads.(i) in
      let best =
        if
          h < p.n
          && (best < 0 || p.tags.(h) < parts.(best).tags.(heads.(best)))
        then i
        else best
      in
      next best (i + 1)
  in
  let rec go () =
    let b = next (-1) 0 in
    if b >= 0 then begin
      let p = parts.(b) and h = heads.(b) in
      heads.(b) <- h + 1;
      Array.blit p.dims (h * p.nd) into.scratch 0 into.nd;
      let k = p.keys.(h) in
      if not (is_covered into k) then
        insert into ~tag:p.tags.(h) k p.elems.(h);
      go ()
    end
  in
  go ()

(* newest first *)
let elements t =
  let acc = ref [] in
  for i = 0 to t.n - 1 do
    acc := t.elems.(i) :: !acc
  done;
  !acc

let iter_newest_first f t =
  for i = t.n - 1 downto 0 do
    f t.elems.(i)
  done

(* Bounded insertion selection: scan positions [0, n) once, keeping the
   [keep] smallest under the total order (rank, tie, position) in a
   sorted buffer, best first.  Equal (rank, tie) keys compare [false]
   against an occupant, so the earlier position wins the boundary —
   exactly the stable-sort-and-take-prefix semantics [trim] documents, at
   O(n·keep) without sorting the whole cover. *)
let select_top ~keep ~rank ~tie ~n =
  let sel = Array.make keep 0 and sel_r = Array.make keep 0. in
  let m = ref 0 in
  for p = 0 to n - 1 do
    let r = rank p in
    let lt j =
      match Float.compare r sel_r.(j) with
      | 0 -> tie p sel.(j) < 0
      | c -> c < 0
    in
    if !m < keep || lt (keep - 1) then begin
      let j = ref (min !m (keep - 1)) in
      while !j > 0 && lt (!j - 1) do
        sel.(!j) <- sel.(!j - 1);
        sel_r.(!j) <- sel_r.(!j - 1);
        decr j
      done;
      sel.(!j) <- p;
      sel_r.(!j) <- r;
      if !m < keep then incr m
    end
  done;
  sel

let trim ?(tie = fun _ _ -> 0) t ~keep ~rank =
  if keep < 1 then invalid_arg "Cover.trim: keep < 1";
  if t.n > keep then begin
    (* select over scan positions (position [p], newest first, is array
       index [t.n - 1 - p]) so the winners' dims rows can be carried
       along by index *)
    let index p = t.n - 1 - p in
    let at p = t.elems.(index p) in
    let sel =
      select_top ~keep ~rank:(fun p -> rank (at p))
        ~tie:(fun p q -> tie (at p) (at q))
        ~n:t.n
    in
    let tmp_k = Array.map (fun p -> t.keys.(index p)) sel in
    let tmp_e = Array.map at sel in
    let tmp_t = Array.map (fun p -> t.tags.(index p)) sel in
    let tmp_d = Array.make (keep * t.nd) 0. in
    Array.iteri
      (fun k p -> Array.blit t.dims (index p * t.nd) tmp_d (k * t.nd) t.nd)
      sel;
    (* selection is best first; store reversed so the array (oldest
       first) yields the ascending order back from [elements] *)
    for k = 0 to keep - 1 do
      let dst = keep - 1 - k in
      t.keys.(dst) <- tmp_k.(k);
      t.elems.(dst) <- tmp_e.(k);
      t.tags.(dst) <- tmp_t.(k);
      Array.blit tmp_d (k * t.nd) t.dims (dst * t.nd) t.nd
    done;
    Array.fill t.keys keep (t.n - keep) t.keys.(0);
    Array.fill t.elems keep (t.n - keep) t.elems.(0);
    t.n <- keep
  end

let pareto ~n_dims ~fill xs =
  let t = create ~n_dims () in
  List.iter
    (fun x ->
      fill x t.scratch;
      ignore (add t x x))
    xs;
  elements t
