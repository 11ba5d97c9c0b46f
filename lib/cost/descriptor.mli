(** Resource descriptors and the contention-aware cost calculus (§5.2.2).

    A resource descriptor is a pair of resource vectors [(rf, rl)]: usage
    until the first tuple is produced and until the last.  The pipeline
    operator penalizes its parallel phase by the synchronization factor
    [delta(k)], which interpolates between 1 (no contention: IPE-like)
    and [1 + k] (full contention: worse than sequential) — realizing the
    §5 desiderata that a dependent parallel execution ranges from IPE
    down to worse-than-SE. *)

type t = { rf : Rvec.t; rl : Rvec.t }

type delta_mode =
  | Stretch_time  (** [delta(k)] scales only the time coordinate *)
  | Scale_all  (** [delta(k)] scales time and work (literal reading) *)

type params = { delta_k : float; delta_mode : delta_mode }
(** [delta_k] is the adjustable [k] of §5.2.2; [delta_k = 0.] disables the
    pipeline penalty. *)

val params : ?delta_mode:delta_mode -> float -> params
(** [delta_mode] defaults to [Stretch_time]. *)

val of_machine : Parqo_machine.Machine.t -> params

val make : rf:Rvec.t -> rl:Rvec.t -> t
(** Raises [Invalid_argument] unless [rf] is dominated by [rl] in time. *)

val zero : int -> t

val atomic : Rvec.t -> t
(** A pipelined atomic operator: nothing before the first tuple
    ([rf = 0]), the full usage by the last. *)

val atomic_with : zero:Rvec.t -> Rvec.t -> t
(** {!atomic} with a caller-supplied (shareable, immutable) zero vector,
    avoiding a fresh allocation per operator in the costing hot path. *)

val blocking : Rvec.t -> t
(** An operator that cannot emit before finishing (sort, hash build):
    [rf = rl = usage]. *)

val sync : t -> t
(** Materialized execution: first tuple available only at the end. *)

val delta : params -> Rvec.t -> Rvec.t -> float
(** [delta params r1 r2] for the pipelined residuals: the linear
    interpolation [1 + k*(t' - max(t1,t2)) / (t1 + t2 - max(t1,t2))]
    where [t'] is the time of [par r1 r2], clamped to [[1, 1 + k]];
    [1.] when either residual has zero time.  The factor {!pipe}
    applies. *)

val pipe : params -> t -> t -> t
(** [pipe producer consumer]: [rf = pf ; cf],
    [rl = pf ; cf ; delta × ((pl - pf) || (cl - cf))]. *)

val dseq : t -> t -> t
(** Component-wise sequential composition. *)

val tree : params -> t -> t -> t -> t
(** [tree l r root]: fronts of [l] and [r] in (contended) parallel, then
    the two residuals pipelined, piped into [root]. *)

(** {2 Scratch-buffer composition}

    The DP hot path evaluates [pipe]/[tree] once per candidate operator;
    the [_s] variants below run the same arithmetic in the same order on
    a caller-owned scratch, allocating only the vectors that escape into
    the result.  Results are bit-identical to {!pipe}/{!tree}.  A scratch
    must not be shared across domains. *)

type scratch

val scratch : int -> scratch
(** [scratch dim] allocates reusable buffers for [dim]-resource
    machines. *)

val scratch_dim : scratch -> int

val scratch_zero : scratch -> Rvec.t
(** A shared all-zero vector of the scratch's dimension (immutable;
    safe to embed in descriptors via {!atomic_with}). *)

val pipe_s : scratch -> params -> t -> t -> t
(** Scratch-backed {!pipe}. *)

val tree_s : scratch -> params -> t -> t -> t -> t
(** Scratch-backed {!tree}. *)

val response_time : t -> float
(** [rl] time — the metric being minimized. *)

val first_tuple_time : t -> float

val work : t -> float
(** Total work of the complete execution, [sum rl.work]. *)

val work_vector : t -> Parqo_util.Vecf.t

val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
