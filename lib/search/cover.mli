(** Cover sets (§6.2): the set of pairwise-incomparable minimal elements
    kept per relation subset by the partial-order DP.

    Every candidate is tested against the cover, so a cover is laid out
    as struct-of-arrays: each entry's numeric coordinates are
    materialized once into a flat row of a growable float array, and
    dominance tests are tight float-array loops.  [a] dominates [b] when
    [a]'s coordinates are pointwise [<=] [b]'s and, if given,
    [refines a b] holds — the metric's non-numeric refinement (ordering,
    partitioning).  [refines] must be transitive; it need not be
    reflexive.

    [add] maintains the invariant incrementally: a new element enters
    only if no entry dominates it, and evicts the entries it dominates.

    {b The scan index.}  Beside the entries in insertion order (what
    {!elements}, {!merge} and {!trim} read), a cover keeps their rows
    again, grouped into {e key classes} — a key joins a class when it
    and the class's key refine each other; without [refines] there is
    one class; under a refinement that refuses everything every entry is
    a class of its own — and, within a class, in ascending order of one
    coordinate, the {e lead} ({!create}).  {!is_covered} asks [refines]
    once per class, and scans a class only while the rows' leads are at
    most the candidate's; {!insert} evicts only in the classes the
    candidate's key refines, and only among rows whose lead is at least
    its own.  It is exact, not a heuristic: members of a class refine
    each other and [refines] is transitive, so a class's key refines
    (is refined by) a key exactly when every member's does; and an entry
    whose lead exceeds the candidate's cannot dominate it, nor can the
    candidate dominate an entry whose lead is below its own.  A NaN
    lead compares false both ways, so NaN rows sort after every number
    in their class, where a scan never reaches them — no NaN row
    dominates anything — and a NaN candidate is dominated by no entry
    and evicts none.  Only how many rows a test reads depends on the
    lead; covers, element order and tags do not.

    Each entry is a {e key}, what [refines] compares, and an {e element},
    what the cover returns.  The two are separate so that a caller can
    test a candidate before building the element it would store: the
    partial-order DP tests a priced join by its cost and builds the plan
    only when the cover admits it ({!is_covered}, then {!insert}). *)

type ('k, 'a) t

val create :
  n_dims:int -> ?lead:int -> ?refines:('k -> 'k -> bool) -> unit -> ('k, 'a) t
(** An empty cover over [n_dims] numeric dimensions, its scan index
    ascending by coordinate [lead] (default 0; [0 <= lead < n_dims], or
    [0] when [n_dims = 0], else [Invalid_argument]).  The handle is
    reusable across subsets via {!clear} and grows as needed. *)

val clear : ('k, 'a) t -> unit
(** Forget all entries, keeping capacity. *)

val scratch : ('k, 'a) t -> float array
(** The candidate row, of length [n_dims]: fill it with the candidate's
    coordinates, then call {!add}, {!is_covered} or {!insert}.  Owned by
    the cover. *)

val is_covered : ('k, 'a) t -> 'k -> bool
(** Some entry dominates the candidate with key [k] and the coordinates
    in {!scratch}, found through the scan index.  Allocates nothing. *)

val insert : ('k, 'a) t -> tag:int -> 'k -> 'a -> unit
(** Enter a candidate that {!is_covered} has just found uncovered, with
    the coordinates still in {!scratch}: evict the entries it dominates
    (stable) and append it, recording [tag].  A tag is the candidate's
    position in the sequence the cover is folded from; eviction and
    {!trim} carry it along. *)

val add : ('k, 'a) t -> 'k -> 'a -> bool
(** {!is_covered}, then {!insert} with tag [0] unless covered: [false]
    if covered. *)

val merge : into:('k, 'a) t -> ('k, 'a) t list -> unit
(** Fold the entries of the parts into [into], each tested and inserted
    with its stored key, coordinates and tag, in increasing tag order
    (equal tags: earlier part first, and each part's own order kept).
    [into] must be distinct from the parts and have their dimensions.

    The merge lemma: let a candidate sequence be split into
    subsequences, and each part be the cover of one subsequence, folded
    in order and tagged by sequence position.  Then merging the parts
    into an empty cover yields the cover of the whole sequence, element
    order included.  It holds because dominance (pointwise [<=], with a
    transitive refinement) is transitive, and an element survives a fold
    exactly when no earlier element dominates it and no later one
    strictly dominates it (MODEL.md §12).  It asks nothing of the scan
    index: which entries a fold keeps, and in what order, does not
    depend on the order in which a test reads them.  Concatenating the
    parts, or folding them part by part, does not have this property. *)

val size : ('k, 'a) t -> int

val elements : ('k, 'a) t -> 'a list
(** Newest first. *)

val iter_newest_first : ('a -> unit) -> ('k, 'a) t -> unit
(** Iterate in {!elements} order without building the list. *)

val trim :
  ?tie:('a -> 'a -> int) -> ('k, 'a) t -> keep:int -> rank:('a -> float) -> unit
(** Beam bound: if the cover exceeds [keep] elements, retain the [keep]
    best (smallest) by [rank], leaving {!elements} in ascending
    [(rank, tie)] order.  This deliberately breaks the exact-cover
    guarantee — Figure 2 with a practical size cap — and is only applied
    when the caller opts in.

    [tie] (default: everything equal) breaks exact [rank] ties.  Pass a
    total order on elements to make the cut deterministic: without it,
    rank-tied elements at the beam boundary survive or die by position,
    so the pruned plan choice depends on insertion order.

    The cut runs as a bounded selection — O(n·keep), no full sort — with
    the same boundary semantics as a stable sort of {!elements} by
    [(rank, tie)] followed by taking the prefix: among fully tied
    elements the most recently inserted survives. *)

val pareto : n_dims:int -> fill:('a -> float array -> unit) -> 'a list -> 'a list
(** One-shot cover of a list, newest first; [fill x row] writes [x]'s
    coordinates into [row]. *)
