(** A memo table keyed by strings, with hit/miss counters and an
    invalidation epoch: the serving loop's cross-query plan cache, keyed
    by canonical query fingerprints.

    A handle is owned by one domain: no operation takes a lock.  Stored
    values must be pure functions of (key, {!epoch}). *)

type 'a t

val create : unit -> 'a t

val find : 'a t -> string -> 'a option
(** Also bumps the hit or miss counter. *)

val remember : 'a t -> string -> 'a -> unit

val remember_at : 'a t -> epoch:int -> string -> 'a -> unit
(** [remember_at t ~epoch key v] stores [v] only if [t] is still at
    [epoch] — the write path for values computed before a possible
    {!bump}.  A stale write is silently dropped: compute, then call this
    with the epoch observed {e before} the computation started. *)

val epoch : 'a t -> int
(** Current invalidation epoch, starting at 0.  Whenever what the keys
    denote may have changed (a catalog or machine update), {!bump} the
    epoch instead of trusting callers to stop reading. *)

val bump : 'a t -> unit
(** Forget every entry and increment {!epoch}; the hit/miss counters
    are kept. *)

val length : 'a t -> int

val hits : 'a t -> int

val misses : 'a t -> int
