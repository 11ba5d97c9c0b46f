(* A plan memo split into a shared frozen snapshot and a single-owner
   overlay.

   The previous implementation guarded one hashtable with a mutex and
   bumped atomic hit/miss counters on every [find] — so the fully
   sequential search paid a lock and two atomic RMWs per candidate
   evaluation, and a parallel search serialized every worker through the
   same cache line.  The split removes both:

   - [snapshot] is an immutable hashtable published through an [Atomic]:
     readers probe it with no lock at all.  Publishing builds a fresh
     table and swaps the atomic, so a racing reader sees either the old
     or the new snapshot, both internally consistent; the [Atomic]
     provides the release/acquire edge the OCaml memory model requires
     for safe publication.

   - [overlay] is a plain hashtable private to the handle's owner: finds
     probe it first, writes land in it, hit/miss counters are plain ints
     beside it.  No synchronization, because exactly one domain owns a
     handle at a time.

   Cross-domain sharing goes through {!shard}: a shard is a fresh handle
   (own overlay, own counters) on the same snapshot and epoch.  A
   coordinator hands one shard to each worker, then {!absorb}s the
   shards back (merging overlays and summing counters) and {!publish}es
   to fold its overlay into the next snapshot — the per-batch cadence of
   the two-phase annotation search, where every batch reads only entries
   published before it.

   Values must be pure functions of (key, epoch): two shards may compute
   the same key independently and both results are interchangeable. *)

type 'a t = {
  snapshot : (string, 'a) Hashtbl.t Atomic.t;  (* shared, frozen tables *)
  epoch_ : int Atomic.t;  (* shared across shards *)
  overlay : (string, 'a) Hashtbl.t;  (* private to the owner *)
  mutable hits : int;  (* private to the owner *)
  mutable misses : int;
}

let create ?(size_hint = 1024) () =
  {
    snapshot = Atomic.make (Hashtbl.create size_hint);
    epoch_ = Atomic.make 0;
    overlay = Hashtbl.create size_hint;
    hits = 0;
    misses = 0;
  }

let shard t =
  {
    snapshot = t.snapshot;
    epoch_ = t.epoch_;
    overlay = Hashtbl.create 64;
    hits = 0;
    misses = 0;
  }

let find t key =
  let r =
    match Hashtbl.find_opt t.overlay key with
    | Some _ as r -> r
    | None -> Hashtbl.find_opt (Atomic.get t.snapshot) key
  in
  (match r with
  | Some _ -> t.hits <- t.hits + 1
  | None -> t.misses <- t.misses + 1);
  r

let remember t key v = Hashtbl.replace t.overlay key v

let absorb t shard =
  Hashtbl.iter (fun k v -> Hashtbl.replace t.overlay k v) shard.overlay;
  Hashtbl.reset shard.overlay;
  t.hits <- t.hits + shard.hits;
  t.misses <- t.misses + shard.misses;
  shard.hits <- 0;
  shard.misses <- 0

let publish t =
  if Hashtbl.length t.overlay > 0 then begin
    let old = Atomic.get t.snapshot in
    let next = Hashtbl.create (2 * (Hashtbl.length old + Hashtbl.length t.overlay)) in
    Hashtbl.iter (fun k v -> Hashtbl.replace next k v) old;
    Hashtbl.iter (fun k v -> Hashtbl.replace next k v) t.overlay;
    Hashtbl.reset t.overlay;
    Atomic.set t.snapshot next
  end

let epoch t = Atomic.get t.epoch_

(* Owner-only: the overlay reset, the snapshot swap and the epoch bump
   are not atomic as a group, but only the owner may write, and
   [remember_at] compares against the epoch observed before computing —
   a stale write can only target the overlay of the same owner, which
   the owner just reset. *)
let bump t =
  Hashtbl.reset t.overlay;
  Atomic.set t.snapshot (Hashtbl.create 16);
  Atomic.incr t.epoch_

let remember_at t ~epoch key v =
  if Atomic.get t.epoch_ = epoch then remember t key v

let find_or_add t key compute =
  match find t key with
  | Some v -> v
  | None ->
    let v = compute () in
    remember t key v;
    v

let length t =
  let snapshot = Atomic.get t.snapshot in
  Hashtbl.length snapshot
  + Hashtbl.fold
      (fun k _ n -> if Hashtbl.mem snapshot k then n else n + 1)
      t.overlay 0

let clear t =
  Hashtbl.reset t.overlay;
  Atomic.set t.snapshot (Hashtbl.create 16);
  t.hits <- 0;
  t.misses <- 0

let hits t = t.hits
let misses t = t.misses
