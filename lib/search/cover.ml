(* Entries are kept twice.  In insertion order ([keys], [elems], [tags],
   [dims]): what [elements], [merge] and [trim] read.  And in the scan
   index: the same rows again ([rows], [w] floats each), grouped into
   key classes — keys that refine each other — and ascending by the
   lead coordinate within a class, NaN leads last, each row with its
   element's index ([row_elem]).  Class [c] holds rows
   [cls_first.(c), cls_first.(c + 1)) and the key [cls_key.(c)] of one
   of its members.  [is_covered] and [insert] read only the index. *)
type ('k, 'a) t = {
  nd : int;
  lead : int;  (* the coordinate the index ascends by *)
  w : int;  (* an index row's floats: [nd], or 1 (a zero lead) if [nd = 0] *)
  refines : ('k -> 'k -> bool) option;
  mutable keys : 'k array;  (* per element, what [refines] compares *)
  mutable elems : 'a array;  (* [0..n-1], oldest first *)
  mutable tags : int array;  (* per element, as given to [insert] *)
  mutable dims : float array;  (* row-major, [nd] floats per element *)
  mutable n : int;
  scratch : float array;  (* the candidate's dims row *)
  mutable rows : float array;  (* the index's rows, [n] of them *)
  mutable row_elem : int array;
  mutable cls_key : 'k array;
  mutable cls_first : int array;  (* [n_cls + 1] used *)
  mutable n_cls : int;
  mutable remap : int array;
      (* [insert]'s, per element: -1 while marked for eviction, then its
         index after the compaction *)
}

let create ~n_dims ?(lead = 0) ?refines () =
  if n_dims < 0 then invalid_arg "Cover.create: n_dims < 0";
  if lead < 0 || lead >= max n_dims 1 then
    invalid_arg "Cover.create: lead out of range";
  {
    nd = n_dims;
    lead;
    w = max n_dims 1;
    refines;
    keys = [||];
    elems = [||];
    tags = [||];
    dims = [||];
    n = 0;
    scratch = Array.make n_dims 0.;
    rows = [||];
    row_elem = [||];
    cls_key = [||];
    cls_first = [| 0 |];
    n_cls = 0;
    remap = [||];
  }

let size t = t.n
(* Slots past [n] (past [n_cls] for class keys) must not keep dropped
   elements alive — a long-lived cover's arrays sit in the major heap,
   so a stale slot would promote the young candidate it holds at the
   next minor collection: [clear], [insert] and [trim] point them at an
   element the cover still holds, or at its first one. *)
let clear t =
  if t.n > 1 then begin
    Array.fill t.keys 1 (t.n - 1) t.keys.(0);
    Array.fill t.elems 1 (t.n - 1) t.elems.(0)
  end;
  if t.n_cls > 0 then Array.fill t.cls_key 0 t.n_cls t.keys.(0);
  t.n <- 0;
  t.n_cls <- 0
let scratch t = t.scratch

(* The scans below run once per candidate and cover entry.  They are
   top-level loops over explicitly typed float arrays: a local recursive
   function would be a closure allocated per call, and without the types
   the comparisons would be the polymorphic ones.  No float crosses a
   call: a candidate's lead is read where it is compared. *)

(* the row at [base] pointwise <= the candidate's *)
let row_le_scratch (rows : float array) (scratch : float array) nd base =
  let d = ref 0 in
  while !d < nd && rows.(base + !d) <= scratch.(!d) do
    incr d
  done;
  !d = nd

(* the candidate's row pointwise <= the row at [base] *)
let scratch_le_row (rows : float array) (scratch : float array) nd base =
  let d = ref 0 in
  while !d < nd && scratch.(!d) <= rows.(base + !d) do
    incr d
  done;
  !d = nd

let refines_ok t a b =
  match t.refines with None -> true | Some r -> r a b

(* Copies inside the cover's arrays, forward, so a move down may
   overlap: loops, since [Array.blit] is a call into the runtime that
   costs more than a row's few floats, and it stores each int of an
   array in the major heap through the write barrier. *)
let copy_floats (src : float array) s (dst : float array) d len =
  for i = 0 to len - 1 do
    dst.(d + i) <- src.(s + i)
  done

let copy_ints (src : int array) s (dst : int array) d len =
  for i = 0 to len - 1 do
    dst.(d + i) <- src.(s + i)
  done

(* Binary searches over index rows [lo, hi) of one class, ascending by
   lead with NaN leads last, against the lead [src.(at)] (never NaN):
   the first row whose lead is not below it — the first an entry with
   that lead can dominate — and the first whose lead is above it, or
   NaN — where an entry with that lead goes, after the equal ones. *)
let first_not_below (rows : float array) w lead (src : float array) at lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if rows.((mid * w) + lead) < src.(at) then lo := mid + 1 else hi := mid
  done;
  !lo

let first_above (rows : float array) w lead (src : float array) at lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if rows.((mid * w) + lead) <= src.(at) then lo := mid + 1 else hi := mid
  done;
  !lo

(* A class's key refines the candidate's exactly when every member's
   does ([refines] is transitive and members refine each other), so it
   is asked once per class; and an entry whose lead exceeds the
   candidate's (or is NaN) cannot dominate it, so a class is scanned
   only up to its first such row.  A NaN candidate lead stops every
   scan at once: nothing is [<=] it. *)
let is_covered t k =
  let rows = t.rows and scratch = t.scratch in
  let nd = t.nd and w = t.w and lead = t.lead in
  let found = ref false and c = ref 0 in
  while (not !found) && !c < t.n_cls do
    if refines_ok t t.cls_key.(!c) k then begin
      let r = ref t.cls_first.(!c) and hi = t.cls_first.(!c + 1) in
      while
        !r < hi
        && (nd = 0 || rows.((!r * w) + lead) <= scratch.(lead))
      do
        if row_le_scratch rows scratch nd (!r * w) then begin
          found := true;
          r := hi
        end
        else incr r
      done
    end;
    incr c
  done;
  !found

let ensure_room t k x =
  if t.n = Array.length t.elems then begin
    let cap = max 8 (2 * t.n) in
    let grow a fill len =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 len;
      b
    in
    t.keys <- grow t.keys k t.n;
    t.elems <- grow t.elems x t.n;
    t.tags <- grow t.tags 0 t.n;
    t.row_elem <- grow t.row_elem 0 t.n;
    t.cls_key <- grow t.cls_key k t.n_cls;
    t.remap <- grow t.remap 0 t.n;
    let dims = Array.make (cap * t.nd) 0. in
    Array.blit t.dims 0 dims 0 (t.n * t.nd);
    t.dims <- dims;
    let rows = Array.make (cap * t.w) 0. in
    Array.blit t.rows 0 rows 0 (t.n * t.w);
    t.rows <- rows;
    let first = Array.make (cap + 1) 0 in
    Array.blit t.cls_first 0 first 0 (t.n_cls + 1);
    t.cls_first <- first
  end

(* Enter element [j] — its key and dims row stored, and the index
   holding the rows of elements [0, j) — into class [home], or into a
   new class if [home < 0], after the rows whose leads are at most its
   own. *)
let place t j ~home =
  let c =
    if home >= 0 then home
    else begin
      let c = t.n_cls in
      t.cls_key.(c) <- t.keys.(j);
      t.cls_first.(c + 1) <- t.cls_first.(c);
      t.n_cls <- c + 1;
      c
    end
  in
  let w = t.w and hi = t.cls_first.(c + 1) and at = (j * t.nd) + t.lead in
  let p =
    if t.nd = 0 || t.dims.(at) <> t.dims.(at) (* NaN *) then hi
    else first_above t.rows w t.lead t.dims at t.cls_first.(c) hi
  in
  Array.blit t.rows (p * w) t.rows ((p + 1) * w) ((j - p) * w);
  for r = j downto p + 1 do
    t.row_elem.(r) <- t.row_elem.(r - 1)
  done;
  copy_floats t.dims (j * t.nd) t.rows (p * w) t.nd;
  t.row_elem.(p) <- j;
  for c' = c + 1 to t.n_cls do
    t.cls_first.(c') <- t.cls_first.(c') + 1
  done

(* the class whose key and [k] refine each other, or -1 *)
let home_of t k =
  let c = ref 0 in
  while
    !c < t.n_cls
    && not (refines_ok t k t.cls_key.(!c) && refines_ok t t.cls_key.(!c) k)
  do
    incr c
  done;
  if !c < t.n_cls then !c else -1

(* Evict the entries the candidate dominates: only in the classes its
   key refines, and only among rows whose lead is at least its own.
   The index is compacted as it is scanned (classes left empty are
   dropped), the evicted elements are marked, and the candidate's class
   is found on the way.  Then the insertion-ordered arrays are compacted
   stably from the first evicted element on, and the index's element
   indices remapped. *)
let insert t ~tag k x =
  let nd = t.nd and w = t.w and lead = t.lead in
  let scratch = t.scratch in
  let evicts = nd = 0 || scratch.(lead) = scratch.(lead) (* not NaN *) in
  let old_n = t.n and old_cls = t.n_cls in
  let gone = ref 0 and first_gone = ref old_n in
  let kept = ref 0 and home = ref (-1) in
  for c = 0 to old_cls - 1 do
    let lo = t.cls_first.(c) and hi = t.cls_first.(c + 1) in
    let g0 = !gone in
    let refined = refines_ok t k t.cls_key.(c) in
    let from =
      if not (refined && evicts) then hi
      else if nd = 0 then lo
      else first_not_below t.rows w lead scratch lead lo hi
    in
    if g0 > 0 then begin
      copy_floats t.rows (lo * w) t.rows ((lo - g0) * w) ((from - lo) * w);
      copy_ints t.row_elem lo t.row_elem (lo - g0) (from - lo)
    end;
    for r = from to hi - 1 do
      let j = t.row_elem.(r) in
      if scratch_le_row t.rows scratch nd (r * w) then begin
        t.remap.(j) <- -1;
        if j < !first_gone then first_gone := j;
        incr gone
      end
      else if !gone > 0 then begin
        copy_floats t.rows (r * w) t.rows ((r - !gone) * w) w;
        t.row_elem.(r - !gone) <- j
      end
    done;
    if hi - !gone > lo - g0 then begin
      let c' = !kept in
      t.cls_first.(c') <- lo - g0;
      if !gone > g0 then t.cls_key.(c') <- t.keys.(t.row_elem.(lo - g0))
      else if c' <> c then t.cls_key.(c') <- t.cls_key.(c);
      if !home < 0 && refined && refines_ok t t.cls_key.(c') k then home := c';
      kept := c' + 1
    end
  done;
  t.cls_first.(!kept) <- old_n - !gone;
  t.n_cls <- !kept;
  if !kept < old_cls then Array.fill t.cls_key !kept (old_cls - !kept) k;
  if !gone > 0 then begin
    let m = ref !first_gone in
    for j = !first_gone to old_n - 1 do
      if t.remap.(j) < 0 then t.remap.(j) <- 0
      else begin
        let m' = !m in
        t.remap.(j) <- m';
        t.keys.(m') <- t.keys.(j);
        t.elems.(m') <- t.elems.(j);
        t.tags.(m') <- t.tags.(j);
        copy_floats t.dims (j * nd) t.dims (m' * nd) nd;
        m := m' + 1
      end
    done;
    for r = 0 to !m - 1 do
      let j = t.row_elem.(r) in
      if j > !first_gone then t.row_elem.(r) <- t.remap.(j)
    done;
    t.n <- !m
  end;
  ensure_room t k x;
  let j = t.n in
  t.keys.(j) <- k;
  t.elems.(j) <- x;
  t.tags.(j) <- tag;
  copy_floats scratch 0 t.dims (j * nd) nd;
  place t j ~home:!home;
  t.n <- j + 1;
  if old_n > t.n then begin
    Array.fill t.keys t.n (old_n - t.n) k;
    Array.fill t.elems t.n (old_n - t.n) x
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
    t.n <- keep;
    (* the index anew, over the survivors *)
    let old_cls = t.n_cls in
    t.n_cls <- 0;
    for j = 0 to keep - 1 do
      place t j ~home:(home_of t t.keys.(j))
    done;
    Array.fill t.cls_key t.n_cls (old_cls - t.n_cls) t.keys.(0)
  end

let pareto ~n_dims ~fill xs =
  let t = create ~n_dims () in
  List.iter
    (fun x ->
      fill x t.scratch;
      ignore (add t x x))
    xs;
  elements t
