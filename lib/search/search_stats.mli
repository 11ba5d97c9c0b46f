(** Instrumentation of the search algorithms, measured in the units of the
    paper's Table 1: "time complexity" is the number of plans considered
    (accessPlan/joinPlan invocations), "space complexity" the maximum
    number of plans stored.

    In addition to the global counters, the partial-order DP records one
    {!level} entry per subset cardinality it completes, in level order —
    the raw material for the parallel-search benchmark (per-level wall
    time and the domain count that produced it). *)

type level = {
  level : int;  (** subset cardinality (1 = access plans) *)
  subsets : int;
      (** subsets processed at this level: its connected subsets, or all
          of them when the query's join graph is disconnected (the space
          rule, {!Space.joinable}) *)
  generated : int;
      (** candidates generated at this level, rejected ones included —
          the expansions it charged to the search budget *)
  stored : int;  (** plans stored across the level's cover sets *)
  cover_max : int;  (** largest (pre-beam) cover set at this level *)
  wall_ms : float;  (** wall-clock time spent on the level *)
  domains : int;  (** domains that worked on the level *)
}

type t = {
  mutable considered : int;
      (** accessPlan / joinPlan invocations (Table 1 time unit) *)
  mutable generated : int;
      (** candidate plans generated (our joinPlan returns a candidate
          set; this is the constant-factor-finer count), [rejected]
          included *)
  mutable rejected : int;
      (** of [generated], candidates dropped because their work bound
          exceeded the work cap, before they were composed — the same
          at every width.  Those Figure 1's incumbent bound drops under
          [Metric.work] count in [generated] only *)
  mutable entries : int;
      (** shared pricing entries the partial-order DP filled
          ([Costmodel.extension]): per extension, one per (inner plan,
          method, clone degree) and one per (outer class, method, clone
          degree) — what one lane pricing each extension alone fills, so
          [generated / entries] is the search's reuse of them *)
  mutable stored_peak : int;
      (** maximum plans simultaneously retained across the memo table *)
  mutable cover_max : int;
      (** largest cover set encountered (the paper's [k], bounded by
          [2^l] under Theorem 3) *)
  mutable levels : level list;  (** internal; read via {!levels} *)
  mutable pool : Parqo_util.Domain_pool.stats;
      (** what the domain pool actually did for this search: worker
          domains spawned (0 when the search reused a persistent pool or
          ran sequentially), parallel vs. fast-pathed regions, and worker
          parks — the honest counterpart of each level's [domains]
          field. *)
  mutable minor_words : float;
      (** words allocated on the coordinator's minor heap during the
          search — the allocation-per-plan currency of the cost-path
          benchmarks *)
  mutable major_words : float;
      (** words allocated directly on / promoted to the coordinator's
          major heap during the search *)
  mutable promoted_words : float;
      (** of [major_words], words the coordinator's minor collections
          promoted: young values that something long-lived still pointed
          to *)
}

val create : unit -> t

val considered : t -> int -> unit
(** Add to the considered counter. *)

val generated : t -> int -> unit

val rejected : t -> int -> unit
(** Add to the bound-rejected counter (callers add the same candidates
    to [generated]). *)

val entries : t -> int -> unit
(** Add to the shared-entry counter. *)

val observe_stored : t -> int -> unit
(** Record a current storage level; keeps the peak. *)

val observe_cover : t -> int -> unit

val observe_level : t -> level -> unit
(** Append a completed level's record.  Callers must observe levels in
    increasing level order; {!levels} returns them in recording order. *)

val levels : t -> level list
(** Per-level records in the order they were observed. *)

val observe_pool : t -> Parqo_util.Domain_pool.stats -> unit
(** Record the pool counters this search contributed (already
    differenced when the pool persists across searches). *)

type gc_sample
(** The calling domain's allocation counters at one moment. *)

val gc_sample : unit -> gc_sample
(** Minor words from [Gc.minor_words], which counts the words the minor
    heap holds when it is read (OCaml 5.1's [Gc.quick_stat] counts them
    only once the heap is collected); major and promoted words from
    [Gc.quick_stat]. *)

val observe_gc : t -> before:gc_sample -> after:gc_sample -> unit
(** Accumulate the allocation delta between two samples bracketing (a
    phase of) the search, on the calling domain. *)

val pp : Format.formatter -> t -> unit

val pp_level : Format.formatter -> level -> unit
