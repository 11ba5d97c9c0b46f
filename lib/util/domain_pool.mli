(** A persistent pool of OCaml 5 domains for level-synchronous parallel
    loops.

    The optimizer's partial-order DP processes each subset size as one
    parallel region: every task reads only state written by strictly
    earlier regions, so {!run_ranged}'s return is a barrier.  Workers are
    spawned once at {!create} and parked on a condition variable between
    regions (a parked worker blocks in [Condition.wait], so the runtime's
    backup thread answers stop-the-world polls for it); starting a region
    costs one epoch bump and a broadcast, not a [Domain.spawn] per
    worker.

    Workers claim contiguous index ranges ("chunks") with one
    fetch-and-add per chunk; the chunk size adapts as
    [max 1 (remaining / (8 × width))] so claims start coarse and shrink
    toward the tail, unless the caller sizes the chunks itself.  The caller stores each task's output in a per-index
    slot and merges the slots in index order afterwards, which makes the
    overall result independent of the scheduling.

    {!create} clamps the pool's width to the machine's core count
    ([Domain.recommended_domain_count ()]) unless [oversubscribe] is set:
    running more allocating domains than cores serializes them through
    the minor collector's stop-the-world barrier and can cost several
    times the sequential wall-clock.  On a clamped single-core pool every
    region degrades to a chunked sequential loop on the calling domain —
    bit-identical by construction and within noise of [domains = 1]. *)

type t

type stats = {
  spawned : int;  (** worker domains spawned over the pool's lifetime *)
  parallel_runs : int;  (** regions executed with at least one worker *)
  sequential_runs : int;  (** regions served on the calling domain alone *)
  parks : int;  (** times a worker finished a region and went back to waiting *)
}

val no_stats : stats
(** All-zero counters (the [domains = 1] / no-pool baseline). *)

val create : ?oversubscribe:bool -> domains:int -> unit -> t
(** [create ~domains ()] spawns the pool's workers immediately: the
    calling domain plus [width - 1] spawned workers, where [width] is
    [domains] clamped to [Domain.recommended_domain_count ()] (unless
    [oversubscribe], default false, which forces [width = domains] —
    for tests that must exercise real cross-domain execution).  Raises
    [Invalid_argument] if [domains < 1].  Pools must be released with
    {!shutdown} (or use {!with_pool}). *)

val requested : t -> int
(** The [domains] argument given to {!create}. *)

val width : t -> int
(** Effective parallel width: 1 (the calling domain) + spawned workers. *)

val run_ranged :
  ?chunk:(pos:int -> default:int -> int) ->
  t ->
  tasks:int ->
  (worker:int -> lo:int -> hi:int -> unit) ->
  int
(** [run_ranged t ~tasks job] executes [job] over chunked ranges covering
    [0 .. tasks - 1], each index in exactly one chunk, and returns when
    all are done (a barrier).  [chunk ~pos ~default] sizes the chunk
    claimed at [pos] (at least one index); [default], what it returns
    unless given, is the adaptive size above.  A caller whose indices
    come in groups can return the distance to a group's end, so that a
    chunk holds whole groups; under contention a chunk can still start
    after [pos], so this keeps groups together mostly, not always.

    [job ~worker ~lo ~hi] must process indices [lo .. hi - 1]; [worker]
    identifies the executing lane ([0 .. width t - 1], 0 being the
    calling domain) and is stable within a region — per-lane
    accumulators can be indexed by it.  Chunk boundaries are the natural
    place for cooperative cancellation checks (a budget's clock read per
    chunk, not per task).

    Returns the number of lanes that executed at least one chunk — what
    actually ran, as opposed to the pool's width.  With [width t = 1] or
    [tasks <= 1] the region runs as a chunked sequential loop on the
    calling domain (no synchronization beyond counting the region in
    {!stats}) and returns [min tasks 1].

    [job] must be safe to call from any domain and must not assume any
    execution order.  If a chunk or the [chunk] hook raises, on any
    domain, claiming stops and the first exception is re-raised after
    all workers have parked — the pool remains usable.  Raises [Invalid_argument] on [tasks < 0], on a pool
    already shut down, and on overlapping regions (one pool runs one
    region at a time). *)

val run : t -> tasks:int -> (int -> unit) -> unit
(** [run t ~tasks f] is {!run_ranged} with [f] applied to every index of
    each chunk — the per-task interface for callers that need no lane
    accumulators. *)

val stats : t -> stats

val diff_stats : stats -> stats -> stats
(** [diff_stats before after] — the counters one bracketed workload
    contributed (pools persist across searches, so lifetime counters must
    be differenced). *)

val shutdown : t -> unit
(** Park-joins every worker.  Idempotent; the pool cannot run regions
    afterwards. *)

val with_pool : ?oversubscribe:bool -> domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] brackets {!create} and {!shutdown} around
    [f] — shutdown runs even if [f] raises, so no domain leaks. *)
