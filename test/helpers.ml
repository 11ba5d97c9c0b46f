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

(* The pool clamps [~domains] to the machine's cores, so on a one-core CI
   box plain [~domains:k] never leaves the calling domain.  The
   determinism properties must exercise REAL cross-domain execution:
   every parallel run goes through an oversubscribed persistent pool,
   which forces k domains regardless of the core count. *)
let with_forced_pool k f =
  Parqo.Domain_pool.with_pool ~oversubscribe:true ~domains:k f

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

(* The work-phase DP as it was before incremental, bounded pricing:
   every candidate tree of [Space.join_candidates] evaluated from scratch
   and folded with a strict [<] — the reference [Dp.optimize] must match
   bit for bit, counts included. *)
let reference_dp ?(config = Parqo.Space.default_config)
    ?(objective = fun (e : Parqo.Costmodel.eval) -> e.Parqo.Costmodel.work)
    (env : Parqo.Env.t) =
  let module Stats = Parqo.Search_stats in
  let module Bitset = Parqo.Bitset in
  let n = Parqo.Env.n_relations env in
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
        | Some b -> if objective cand < objective b then Some cand else acc)
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
        let extend ~require_connection best =
          Bitset.fold
            (fun j best ->
              let s_j = Bitset.remove j s in
              match memo.(Bitset.to_int s_j) with
              | None -> best
              | Some (p : Parqo.Costmodel.eval) ->
                if
                  require_connection
                  && not (Parqo.Space.connects env s_j (Bitset.singleton j))
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
          match extend ~require_connection:true None with
          | Some _ as b -> b
          | None -> extend ~require_connection:false None
        in
        if best <> None then level_sizes.(size) <- level_sizes.(size) + 1;
        memo.(Bitset.to_int s) <- best)
      (Bitset.subsets_of_size n ~size);
    Stats.observe_stored stats level_sizes.(size)
  done;
  Stats.observe_stored stats level_sizes.(1);
  let best = if n = 0 then None else memo.(Bitset.to_int (Bitset.full n)) in
  { Parqo.Dp.best; stats; level_sizes }
