module Cm = Parqo_cost.Costmodel
module D = Parqo_cost.Descriptor
module Env = Parqo_cost.Env
module J = Parqo_plan.Join_tree

type result = {
  best : Cm.eval option;
  sequential : Cm.eval option;
  stats : Search_stats.t;
  evaluated : int;
  gave_up : bool;
}

let max_exhaustive_joins = 5

(* rewrite the [idx]-th join's (post-order) parallel annotations *)
let set_join idx ~clone ~materialize tree =
  let counter = ref (-1) in
  let rec go = function
    | J.Access a -> J.Access a
    | J.Join j ->
      let outer = go j.J.outer in
      let inner = go j.J.inner in
      incr counter;
      if !counter = idx then
        J.join ~clone ~materialize j.J.method_ ~outer ~inner
      else
        J.join ~clone:j.J.clone ~materialize:j.J.materialize j.J.method_
          ~outer ~inner
  in
  go tree

(* rewrite the [idx]-th leaf's (left-to-right) cloning degree *)
let set_leaf idx ~clone tree =
  let counter = ref (-1) in
  let rec go = function
    | J.Access a ->
      incr counter;
      if !counter = idx then J.access ~path:a.J.path ~clone a.J.rel
      else J.Access a
    | J.Join j ->
      let outer = go j.J.outer in
      let inner = go j.J.inner in
      J.join ~clone:j.J.clone ~materialize:j.J.materialize j.J.method_ ~outer
        ~inner
  in
  go tree

(* The cross product of [tree]'s join annotations, walked depth-first:
   [enumerate ... tree k] calls [k view build] on every assignment,
   where [view] shows its cost and [build ()] evaluates it, in the order
   of the post-order join slots [set_join] numbers, slot 0 varying
   slowest.  Access plans and join contexts are computed once.  A join
   is priced once per choice of the slots before it, from its children's
   current evaluations, as a one-plan extension in a scratch of its own
   — a parent is priced while its children's choices are still live —
   and its materialized choice is the twin of the pipelined one.  A
   sub-plan is built because its parent is priced from it; the caller
   builds only what it keeps.  Nothing is priced once [out_of_time]. *)
let rec enumerate env ~degrees ~mats ~out_of_time tree =
  match tree with
  | J.Access _ ->
    let e = Cm.evaluate env tree in
    let view = Cm.eval_view e and build () = e in
    fun k -> k view build
  | J.Join j ->
    let outer = enumerate env ~degrees ~mats ~out_of_time j.J.outer
    and inner = enumerate env ~degrees ~mats ~out_of_time j.J.inner in
    let ctx =
      Cm.join_context env ~outer:(J.relations j.J.outer)
        ~inner:(J.relations j.J.inner)
    in
    let scratch = Cm.scratch env in
    let view = Cm.view scratch and build () = Cm.plan (Cm.keep (Cm.view scratch)) in
    let methods = [| j.J.method_ |] and clones = Array.of_list degrees in
    fun k ->
      outer (fun _ build_outer ->
          let oe = build_outer () in
          inner (fun _ build_inner ->
              let x =
                Cm.extension scratch env ctx ~inner:[| build_inner () |]
                  ~methods ~clones ~classes:1 ~limit:infinity
              in
              Array.iteri
                (fun ki _ ->
                  if not (out_of_time ()) then begin
                    if
                      not
                        (Cm.price x ~outer:oe ~outer_class:0 ~inner:0
                           ~method_:0 ~clone:ki)
                    then assert false (* no limit *);
                    List.iter
                      (fun materialize ->
                        if materialize then Cm.twin view;
                        k view build)
                      mats
                  end)
                clones))

let optimize ?(config = Space.default_config) ?(budget = Budget.unlimited)
    (env : Env.t) =
  let sequential_config =
    { config with Space.clone_degrees = [ 1 ]; materialize_choices = false }
  in
  let phase1 = Optimizer.minimize_work ~config:sequential_config env in
  match phase1.Optimizer.best with
  | None ->
    { best = None; sequential = None; stats = phase1.Optimizer.stats;
      evaluated = 0; gave_up = false }
  | Some sequential ->
    let evaluated = ref 0 in
    (* Phase 2 can enumerate (degrees × mats)^joins assignments — sparse
       [Budget.tick]s alone would honor a deadline only between whole
       enumeration rounds.  Every annotation slot therefore checks the
       wall clock cooperatively ([out_of_time]) before costing; on expiry
       the enumeration stops where it stands and the best assignment seen
       so far (at worst the phase-1 plan itself, which is always costed
       first) is returned with [gave_up = true]. *)
    let tracker = Budget.start budget in
    let gave_up = ref false in
    let out_of_time () =
      if Budget.exhausted tracker then gave_up := true;
      !gave_up
    in
    let eval tree =
      incr evaluated;
      Budget.tick tracker 1;
      Cm.evaluate env tree
    in
    let tree = sequential.Cm.tree in
    let n_joins = J.n_joins tree in
    let n_leaves = J.n_leaves tree in
    let degrees = config.Space.clone_degrees in
    let mats = if config.Space.materialize_choices then [ false; true ] else [ false ] in
    let join_choices =
      List.concat_map (fun c -> List.map (fun m -> (c, m)) mats) degrees
    in
    let score (e : Cm.eval) = e.Cm.response_time in
    let best = ref (eval tree) in
    let keep e = if score e < score !best then best := e in
    if n_joins <= max_exhaustive_joins then begin
      (* exhaustive cross product over joins, then coordinate pass on
         leaves (leaf degrees interact weakly with each other).  Each
         assignment costs one priced join, not a tree; the first strictly
         better assignment in enumeration order wins.  An assignment is
         built only when it beats the incumbent, and only the winner is
         numbered. *)
      enumerate env ~degrees ~mats ~out_of_time tree (fun view build ->
          if not (out_of_time ()) then begin
            incr evaluated;
            Budget.tick tracker 1;
            if view.Cm.rows.D.m.D.last_time < score !best then
              best := build ()
          end);
      best := Cm.numbered !best;
      let refined = ref !best in
      for leaf = 0 to n_leaves - 1 do
        List.iter
          (fun clone ->
            if not (out_of_time ()) then begin
              let e = eval (set_leaf leaf ~clone !refined.Cm.tree) in
              if score e < score !refined then refined := e
            end)
          degrees
      done;
      keep !refined
    end
    else begin
      (* coordinate descent over all annotation slots to a fixed point *)
      let improved = ref true in
      let rounds = ref 0 in
      while (!improved && !rounds < 5) && not (out_of_time ()) do
        improved := false;
        incr rounds;
        for idx = 0 to n_joins - 1 do
          List.iter
            (fun (clone, materialize) ->
              if not (out_of_time ()) then begin
                let e = eval (set_join idx ~clone ~materialize !best.Cm.tree) in
                if score e < score !best then begin
                  best := e;
                  improved := true
                end
              end)
            join_choices
        done;
        for leaf = 0 to n_leaves - 1 do
          List.iter
            (fun clone ->
              if not (out_of_time ()) then begin
                let e = eval (set_leaf leaf ~clone !best.Cm.tree) in
                if score e < score !best then begin
                  best := e;
                  improved := true
                end
              end)
            degrees
        done
      done
    end;
    {
      best = Some !best;
      sequential = Some sequential;
      stats = phase1.Optimizer.stats;
      evaluated = !evaluated;
      gave_up = !gave_up;
    }
