(** Exhaustive enumeration — the "brute force" rows of Table 1 and the
    ground truth the DP variants are verified against in the tests.

    Enumeration covers every join order in the requested tree shape that
    the space's rule ({!Space.joinable}) admits, and every annotation
    combination the space config generates: for a connected query, the
    join orders whose every join has two connected sides (no cartesian
    product); for a disconnected one, every join order.  On a clique
    every subset is connected, so {!Space.minimal_config} counts pure
    join orders there (n! left-deep, (2(n-1))!/(n-1)! bushy). *)

type result = {
  best : Parqo_cost.Costmodel.eval option;
  n_plans : int;  (** complete plans enumerated *)
  stats : Search_stats.t;
}

val leftdeep :
  ?config:Space.config ->
  ?objective:(Parqo_cost.Costmodel.eval -> float) ->
  ?on_plan:(Parqo_cost.Costmodel.eval -> unit) ->
  Parqo_cost.Env.t ->
  result
(** Enumerates all left-deep plans of the space: each prefix of a join
    order is joinable, so a connected query's orders join each relation
    to one it is connected to, and the counts depend on the query's
    shape (a clique's are Table 1's n!). [objective] defaults to response
    time.  Exponential: intended for n <= 8 with the minimal config. *)

val bushy :
  ?config:Space.config ->
  ?objective:(Parqo_cost.Costmodel.eval -> float) ->
  ?on_plan:(Parqo_cost.Costmodel.eval -> unit) ->
  Parqo_cost.Env.t ->
  result
(** Enumerates all bushy plans of the space: every split of a subset
    into two joinable sides. Intended for n <= 5. *)
