type level = {
  level : int;
  subsets : int;
  generated : int;
  stored : int;
  cover_max : int;
  wall_ms : float;
  domains : int;
}

type t = {
  mutable considered : int;
  mutable generated : int;
  mutable rejected : int;
  mutable stored_peak : int;
  mutable cover_max : int;
  mutable levels : level list;  (* reverse recording order *)
  mutable pool : Parqo_util.Domain_pool.stats;
  mutable minor_words : float;
  mutable major_words : float;
}

let create () =
  {
    considered = 0;
    generated = 0;
    rejected = 0;
    stored_peak = 0;
    cover_max = 0;
    levels = [];
    pool = Parqo_util.Domain_pool.no_stats;
    minor_words = 0.;
    major_words = 0.;
  }

let considered t n = t.considered <- t.considered + n
let generated t n = t.generated <- t.generated + n
let rejected t n = t.rejected <- t.rejected + n
let observe_stored t n = if n > t.stored_peak then t.stored_peak <- n
let observe_cover t n = if n > t.cover_max then t.cover_max <- n
let observe_level t l = t.levels <- l :: t.levels
let levels t = List.rev t.levels
let observe_pool t s = t.pool <- s

(* delta between two [Gc.quick_stat] samples bracketing the search; the
   coordinator's allocation only (worker domains keep their own GC
   counters), which is what the allocation-per-plan benchmarks track *)
let observe_gc t ~(before : Gc.stat) ~(after : Gc.stat) =
  t.minor_words <- t.minor_words +. (after.Gc.minor_words -. before.Gc.minor_words);
  t.major_words <-
    t.major_words +. (after.Gc.major_words -. before.Gc.major_words)

let pp ppf t =
  Format.fprintf ppf
    "considered=%d generated=%d rejected=%d stored-peak=%d cover-max=%d \
     minor-words=%.0f major-words=%.0f \
     pool: spawned=%d parallel-runs=%d sequential-runs=%d parks=%d"
    t.considered t.generated t.rejected t.stored_peak t.cover_max t.minor_words
    t.major_words
    t.pool.Parqo_util.Domain_pool.spawned
    t.pool.Parqo_util.Domain_pool.parallel_runs
    t.pool.Parqo_util.Domain_pool.sequential_runs
    t.pool.Parqo_util.Domain_pool.parks

let pp_level ppf l =
  Format.fprintf ppf
    "level=%d subsets=%d generated=%d stored=%d cover-max=%d wall=%.2fms \
     domains=%d"
    l.level l.subsets l.generated l.stored l.cover_max l.wall_ms l.domains
