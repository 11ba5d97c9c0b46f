(** The plan-identity digest: one line per query of a fixed list,
    recording what the optimizer chose and how it got there, so that a
    change meant to leave plans alone can be checked against the
    committed file ([test/identity_digest.txt]).

    A line holds the query's label; the best and work-optimal plans'
    join trees with the Int64 bits of their response time and work; the
    final cover's size and an MD5 of its rendering (each plan's join
    tree, the bits of its response time, work and both descriptor rows,
    and its ordering); the generated, considered, rejected and entries
    counts of each phase; and each level's subsets, generated, stored
    and largest-cover counts.  Everything in it is independent of the
    pool's width.

    The queries: twelve left-deep ones with the [optimize] benchmark's
    mix (chains, stars, cycles, cliques and random join graphs of 3 and
    4 relations, every third with an ORDER BY) under
    [Throughput_degradation 2.0]; the 24 queries of
    [Workloads.serving_pool ~seed:7], unbounded, as the server plans
    them; four bushy queries under [Throughput_degradation 2.0]; and
    the second pool query again, ordered by an indexed column of its
    first relation that no join names, so only the ORDER BY makes that
    index's order interesting. *)

val lines : ?pool:Parqo.Domain_pool.t -> unit -> (string * string) list
(** [(label, line)] per query, in file order, each searched on [pool]
    (default: one domain). *)
