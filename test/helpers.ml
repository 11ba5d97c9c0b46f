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
