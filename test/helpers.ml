(* Shared test utilities. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let float_testable ?(eps = 1e-9) () =
  Alcotest.testable (Fmt.float) (fun a b -> feq ~eps a b)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.check (float_testable ~eps ()) msg expected actual

let qtest ?(count = 100) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

(* A small fixed environment for plan-level tests: a chain query over 4
   relations on a 4-node shared-nothing machine. *)
let chain_env ?(n = 4) ?(shape = Parqo.Query_gen.Chain) () =
  let catalog, query =
    Parqo.Query_gen.generate (Parqo.Query_gen.default_spec shape n)
  in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  Parqo.Env.create ~machine ~catalog ~query ()

let random_env rng ~n =
  let catalog, query = Parqo.Query_gen.random rng ~n () in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  Parqo.Env.create ~machine ~catalog ~query ()

(* A random query whose join graph has two or more components, on the
   same machine.  It fails the test unless the query is disconnected, so
   that every search over it runs the cartesian fallback. *)
let disconnected_env rng ~n =
  let catalog, query = Parqo.Query_gen.random_disconnected rng ~n in
  if Parqo.Query.connected query (Parqo.Bitset.full n) then
    Alcotest.failf "random_disconnected gave a connected %d-relation query" n;
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  Parqo.Env.create ~machine ~catalog ~query ()

(* A deterministic stream of random join trees for a query: random bushy
   shapes with annotations drawn from the parallel space. *)
let random_tree rng (env : Parqo.Env.t) =
  let config =
    {
      (Parqo.Space.parallel_config env.Parqo.Env.machine) with
      Parqo.Space.materialize_choices = true;
    }
  in
  Parqo.Random_plans.random_tree rng env config

(* The test now running, for the watchdog's report: [named] wraps a
   suite so that each case records its name as it starts. *)
let current_test = Atomic.make "(no test)"

let named (suite, cases) =
  ( suite,
    List.map
      (fun (name, speed, f) ->
        ( name,
          speed,
          fun x ->
            Atomic.set current_test (suite ^ " / " ^ name);
            f x ))
      cases )

(* Alcotest redirects the process's stderr into each test's log file
   while the test runs; the watchdog reports on the stderr the suite
   started with. *)
let suite_stderr = Unix.dup Unix.stderr

let watchdog_seconds = 120.

(* A hung pool region cannot be joined, so it would hang the suite
   forever.  [with_watchdog f] runs [f] beside a watchdog domain; if [f]
   has not returned within [watchdog_seconds], the watchdog names the
   running test on the suite's stderr and exits the whole process with
   status 2. *)
let with_watchdog f =
  let finished = Atomic.make false in
  let deadline = Unix.gettimeofday () +. watchdog_seconds in
  let watchdog =
    Domain.spawn (fun () ->
        while not (Atomic.get finished) do
          if Unix.gettimeofday () > deadline then begin
            let msg =
              Printf.sprintf "watchdog: %s still running after %.0f s\n"
                (Atomic.get current_test) watchdog_seconds
            in
            ignore (Unix.write_substring suite_stderr msg 0 (String.length msg));
            Unix._exit 2
          end;
          Unix.sleepf 0.01
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join watchdog)
    f

(* The pool clamps [~domains] to the machine's cores, so on a one-core CI
   box plain [~domains:k] never leaves the calling domain.  The
   determinism properties must exercise REAL cross-domain execution:
   every parallel run goes through an oversubscribed persistent pool,
   which forces k domains regardless of the core count — under a
   watchdog, so that a hung region fails the suite instead of hanging
   it. *)
let with_forced_pool k f =
  with_watchdog (fun () ->
      Parqo.Domain_pool.with_pool ~oversubscribe:true ~domains:k f)

(* The pool as [serve] creates it: [~domains:k] clamped to the machine's
   cores, so the suite also runs the width production uses — under the
   same watchdog. *)
let with_clamped_pool k f =
  with_watchdog (fun () -> Parqo.Domain_pool.with_pool ~domains:k f)

(* Field-by-field identity of two evaluations, every float compared
   through its bit pattern: "close enough" would hide a divergence that
   compounds over DP levels.  Operator-tree ids are compared too, so a
   plan that escaped a search unnumbered fails. *)
let check_eval_identical msg (a : Parqo.Costmodel.eval)
    (b : Parqo.Costmodel.eval) =
  let module Cm = Parqo.Costmodel in
  let module Op = Parqo.Op in
  let bits = Int64.bits_of_float in
  Alcotest.(check string)
    (msg ^ ": tree")
    (Parqo.Join_tree.to_string a.Cm.tree)
    (Parqo.Join_tree.to_string b.Cm.tree);
  Alcotest.(check string)
    (msg ^ ": optree")
    (Op.to_string a.Cm.optree) (Op.to_string b.Cm.optree);
  let ids e =
    Op.fold (fun acc (n : Op.node) -> n.Op.id :: acc) [] e.Cm.optree
  in
  Alcotest.(check (list int)) (msg ^ ": optree ids") (ids a) (ids b);
  let cards e =
    Op.fold (fun acc (n : Op.node) -> bits n.Op.out_card :: acc) [] e.Cm.optree
  in
  Alcotest.(check (list int64)) (msg ^ ": optree cards") (cards a) (cards b);
  Alcotest.(check int64)
    (msg ^ ": response_time")
    (bits a.Cm.response_time) (bits b.Cm.response_time);
  Alcotest.(check int64) (msg ^ ": work") (bits a.Cm.work) (bits b.Cm.work);
  Alcotest.(check bool)
    (msg ^ ": descriptor bit-identical")
    true
    (a.Cm.descriptor = b.Cm.descriptor);
  Alcotest.(check string)
    (msg ^ ": ordering")
    (Parqo.Ordering.to_string a.Cm.ordering)
    (Parqo.Ordering.to_string b.Cm.ordering)

(* Figure 1 as System R runs it, the reference the work phase must
   match bit for bit, counts included: one plan per subset
   [Space.joinable] admits, every candidate tree of
   [Space.join_candidates] of a joinable outer side evaluated from
   scratch and folded with a strict [<]; the cartesian extensions only
   when the connected ones leave the subset without a plan. *)
type reference_dp = {
  best : Parqo.Costmodel.eval option;  (** [None] only for the empty query *)
  stats : Parqo.Search_stats.t;
  level_sizes : int array;  (** plans stored per subset cardinality *)
}

let reference_dp ?(config = Parqo.Space.default_config) (env : Parqo.Env.t) =
  let module Stats = Parqo.Search_stats in
  let module Bitset = Parqo.Bitset in
  let n = Parqo.Env.n_relations env in
  let joinable = Parqo.Space.joinable env in
  let stats = Stats.create () in
  let memo = Array.make (1 lsl n) None in
  let level_sizes = Array.make (n + 1) 0 in
  let eval_all trees =
    Stats.generated stats (List.length trees);
    List.map (Parqo.Costmodel.evaluate env) trees
  in
  let best_of candidates current =
    List.fold_left
      (fun acc cand ->
        match acc with
        | None -> Some cand
        | Some (b : Parqo.Costmodel.eval) ->
          if cand.Parqo.Costmodel.work < b.Parqo.Costmodel.work then Some cand
          else acc)
      current candidates
  in
  for rel = 0 to n - 1 do
    Stats.considered stats 1;
    memo.(Bitset.to_int (Bitset.singleton rel)) <-
      best_of (eval_all (Parqo.Space.access_plans env config rel)) None
  done;
  level_sizes.(1) <- n;
  for size = 2 to n do
    List.iter
      (fun s ->
        let extend ~cartesian best =
          Bitset.fold
            (fun j best ->
              let s_j = Bitset.remove j s in
              match memo.(Bitset.to_int s_j) with
              | None -> best
              | Some (p : Parqo.Costmodel.eval) ->
                if
                  (not (joinable s_j))
                  || Parqo.Space.connects env s_j (Bitset.singleton j)
                     = cartesian
                then best
                else begin
                  Stats.considered stats 1;
                  best_of
                    (eval_all
                       (Parqo.Space.join_candidates env config
                          ~outer:p.Parqo.Costmodel.tree ~rel:j))
                    best
                end)
            s best
        in
        let best =
          match extend ~cartesian:false None with
          | Some _ as b -> b
          | None -> extend ~cartesian:true None
        in
        if best <> None then level_sizes.(size) <- level_sizes.(size) + 1;
        memo.(Bitset.to_int s) <- best)
      (List.filter joinable (Bitset.subsets_of_size n ~size));
    Stats.observe_stored stats level_sizes.(size)
  done;
  Stats.observe_stored stats level_sizes.(1);
  let best = if n = 0 then None else memo.(Bitset.to_int (Bitset.full n)) in
  { best; stats; level_sizes }

(* Two-phase search as it was before depth-first pricing: phase 2's
   cross product of per-join annotations, each assignment a rewrite of
   the phase-1 tree evaluated from scratch and folded with a strict [<]
   in enumeration order (post-order join slots, slot 0 varying slowest),
   then the pass over leaf clone degrees — or, beyond five joins,
   coordinate descent.  No budget.  [Twophase.optimize] must match it bit
   for bit, counts included. *)
let reference_twophase ?(config = Parqo.Space.default_config)
    (env : Parqo.Env.t) =
  let module J = Parqo.Join_tree in
  let module Cm = Parqo.Costmodel in
  let module S = Parqo.Space in
  (* rewrite the [idx]-th join (post-order) or leaf (left to right) *)
  let rewrite ~join ~leaf tree =
    let joins = ref (-1) and leaves = ref (-1) in
    let rec go = function
      | J.Access a ->
        incr leaves;
        leaf !leaves a
      | J.Join j ->
        let outer = go j.J.outer in
        let inner = go j.J.inner in
        incr joins;
        join !joins j ~outer ~inner
    in
    go tree
  in
  let keep_join _ (j : J.join) ~outer ~inner =
    J.join ~clone:j.J.clone ~materialize:j.J.materialize j.J.method_ ~outer
      ~inner
  in
  let set_join idx ~clone ~materialize =
    rewrite ~leaf:(fun _ a -> J.Access a) ~join:(fun k j ~outer ~inner ->
        if k = idx then J.join ~clone ~materialize j.J.method_ ~outer ~inner
        else keep_join k j ~outer ~inner)
  in
  let set_leaf idx ~clone =
    rewrite ~join:keep_join ~leaf:(fun k a ->
        if k = idx then J.access ~path:a.J.path ~clone a.J.rel else J.Access a)
  in
  let phase1 =
    reference_dp
      ~config:{ config with S.clone_degrees = [ 1 ]; materialize_choices = false }
      env
  in
  match phase1.best with
  | None ->
    { Parqo.Twophase.best = None; sequential = None; stats = phase1.stats;
      evaluated = 0; gave_up = false }
  | Some sequential ->
    let evaluated = ref 0 in
    let eval tree =
      incr evaluated;
      Cm.evaluate env tree
    in
    let rt (e : Cm.eval) = e.Cm.response_time in
    let tree = sequential.Cm.tree in
    let n_joins = J.n_joins tree and n_leaves = J.n_leaves tree in
    let degrees = config.S.clone_degrees in
    let mats = if config.S.materialize_choices then [ false; true ] else [ false ] in
    let join_choices =
      List.concat_map (fun c -> List.map (fun m -> (c, m)) mats) degrees
    in
    let best = ref (eval tree) in
    let improve e = if rt e < rt !best then (best := e; true) else false in
    let leaf_pass () =
      let improved = ref false in
      for leaf = 0 to n_leaves - 1 do
        List.iter
          (fun clone ->
            if improve (eval (set_leaf leaf ~clone !best.Cm.tree)) then
              improved := true)
          degrees
      done;
      !improved
    in
    if n_joins <= Parqo.Twophase.max_exhaustive_joins then begin
      let rec assign idx tree =
        if idx >= n_joins then ignore (improve (eval tree))
        else
          List.iter
            (fun (clone, materialize) ->
              assign (idx + 1) (set_join idx ~clone ~materialize tree))
            join_choices
      in
      assign 0 tree;
      ignore (leaf_pass ())
    end
    else begin
      let improved = ref true and rounds = ref 0 in
      while !improved && !rounds < 5 do
        improved := false;
        incr rounds;
        for idx = 0 to n_joins - 1 do
          List.iter
            (fun (clone, materialize) ->
              if improve (eval (set_join idx ~clone ~materialize !best.Cm.tree))
              then improved := true)
            join_choices
        done;
        if leaf_pass () then improved := true
      done
    end;
    { Parqo.Twophase.best = Some !best; sequential = Some sequential;
      stats = phase1.stats; evaluated = !evaluated; gave_up = false }
