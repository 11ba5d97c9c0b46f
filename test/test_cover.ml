module C = Parqo.Cover
module Combin = Parqo.Combin

let t name f = Alcotest.test_case name `Quick f

(* dominance on int pairs: componentwise <= *)
let dom2 (a1, a2) (b1, b2) = a1 <= b1 && a2 <= b2

(* int pairs as cover coordinates *)
let fill2 (a, b) row =
  row.(0) <- float_of_int a;
  row.(1) <- float_of_int b

let cover2 () = C.create ~n_dims:2 ()

let add2 c p =
  fill2 p (C.scratch c);
  C.add c p p

let pareto2 = C.pareto ~n_dims:2 ~fill:fill2

let maintenance () =
  let c = cover2 () in
  Alcotest.(check bool) "insert first" true (add2 c (5, 5));
  Alcotest.(check bool) "dominated rejected" false (add2 c (6, 6));
  Alcotest.(check bool) "incomparable accepted" true (add2 c (3, 8));
  Alcotest.(check int) "two elements" 2 (C.size c);
  (* a dominating element evicts both *)
  Alcotest.(check bool) "dominator accepted" true (add2 c (1, 1));
  Alcotest.(check int) "evicted to one" 1 (C.size c);
  fill2 (9, 9) (C.scratch c);
  Alcotest.(check bool) "covered query" true (C.is_covered c (9, 9))

let incomparability_invariant () =
  let rng = Parqo.Rng.create 5 in
  let c = cover2 () in
  for _ = 1 to 500 do
    ignore (add2 c (Parqo.Rng.int rng 100, Parqo.Rng.int rng 100))
  done;
  let elems = C.elements c in
  List.iter
    (fun a ->
      List.iter
        (fun b -> if a != b then Alcotest.(check bool) "incomparable" false (dom2 a b))
        elems)
    elems

let coverage_invariant () =
  (* every inserted point is covered by the final cover *)
  let rng = Parqo.Rng.create 6 in
  let points =
    List.init 300 (fun _ -> (Parqo.Rng.int rng 50, Parqo.Rng.int rng 50))
  in
  let cover = pareto2 points in
  List.iter
    (fun p ->
      Alcotest.(check bool) "covered" true
        (List.exists (fun c -> dom2 c p) cover))
    points

(* Theorem 3 claims E[cover size] of m independent random points in l
   dims is at most 2^l (1 - (1 - 2^-l)^m).  Reproduction finding: the
   claim cannot hold for the full minimal-element set at large m — for
   l = 2 the true expectation is the harmonic number H_m (≈ ln m), which
   exceeds 2^2 once m > ~55.  We verify both regimes: the bound holds for
   small m, and is measurably exceeded at (l=2, m=256), where the
   harmonic law takes over.  See EXPERIMENTS.md (E4). *)
let theorem3_monte_carlo () =
  let rng = Parqo.Rng.create 77 in
  let mean_cover l m trials =
    let fill p row = Array.blit p 0 row 0 l in
    let total = ref 0 in
    for _ = 1 to trials do
      let pts =
        List.init m (fun _ -> Array.init l (fun _ -> Parqo.Rng.float rng 1.))
      in
      total := !total + List.length (C.pareto ~n_dims:l ~fill pts)
    done;
    float_of_int !total /. float_of_int trials
  in
  (* small-m regime: the bound holds (with Monte-Carlo slack) *)
  List.iter
    (fun (l, m) ->
      let mean = mean_cover l m 60 in
      let bound = Combin.theorem3_bound ~l ~m in
      Alcotest.(check bool)
        (Printf.sprintf "small-m l=%d m=%d: mean %.2f <= bound %.2f" l m mean bound)
        true
        (mean <= (bound *. 1.25) +. 0.5))
    [ (1, 16); (2, 8); (3, 16); (4, 32) ];
  (* large-m regime: the harmonic law exceeds the 2^l bound at l = 2 *)
  let mean = mean_cover 2 256 60 in
  let bound = Combin.theorem3_bound ~l:2 ~m:256 in
  Alcotest.(check bool)
    (Printf.sprintf "large-m: mean %.2f exceeds stated bound %.2f" mean bound)
    true (mean > bound);
  Alcotest.(check bool)
    (Printf.sprintf "large-m follows H_m: %.2f ~ %.2f" mean (Combin.harmonic 256))
    true
    (Float.abs (mean -. Combin.harmonic 256) < 1.0)

(* exact cross-check: for l = 2 the expected Pareto-set size is H_m *)
let two_dims_harmonic () =
  let rng = Parqo.Rng.create 99 in
  let m = 64 in
  let trials = 400 in
  let total = ref 0 in
  for _ = 1 to trials do
    let pts = List.init m (fun _ -> (Parqo.Rng.float rng 1., Parqo.Rng.float rng 1.)) in
    let fill (a, b) row =
      row.(0) <- a;
      row.(1) <- b
    in
    total := !total + List.length (C.pareto ~n_dims:2 ~fill pts)
  done;
  let mean = float_of_int !total /. float_of_int trials in
  let expected = Combin.harmonic m in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f ~ H_%d = %.2f" mean m expected)
    true
    (Float.abs (mean -. expected) < 0.6)

(* constructed rank tie at the beam boundary: without a tie-break the
   survivor depends on insertion order; with one it never does *)
let trim_tie_break_deterministic () =
  let incomparable _ _ = false in
  let rank (_, r) = r in
  let tie (a, _) (b, _) = String.compare a b in
  let survivors order =
    let c = C.create ~n_dims:0 ~refines:incomparable () in
    List.iter (fun x -> ignore (C.add c x x)) order;
    C.trim ~tie c ~keep:2 ~rank;
    List.sort compare (C.elements c)
  in
  (* "a" and "b" tie at rank 1.0; only one fits beside "best" *)
  let o1 = survivors [ ("a", 1.0); ("b", 1.0); ("best", 0.5) ] in
  let o2 = survivors [ ("b", 1.0); ("a", 1.0); ("best", 0.5) ] in
  Alcotest.(check (list (pair string (float 0.))))
    "same survivors for both insertion orders" o1 o2;
  Alcotest.(check (list (pair string (float 0.))))
    "tie resolved toward the smaller key"
    [ ("a", 1.0); ("best", 0.5) ]
    o1

let total_order_keeps_one () =
  (* l = 1: a total order; the cover collapses to the single best *)
  let rng = Parqo.Rng.create 3 in
  let pts = List.init 200 (fun _ -> Parqo.Rng.int rng 1000) in
  let cover =
    C.pareto ~n_dims:1 ~fill:(fun p row -> row.(0) <- float_of_int p) pts
  in
  Alcotest.(check int) "one survivor" 1 (List.length cover);
  Alcotest.(check int) "it is the min" (List.fold_left min max_int pts)
    (List.hd cover)

(* [size] is a maintained counter, not a list traversal: it must track
   [List.length (elements t)] through every add (with evictions) and trim *)
let size_matches_length () =
  let rng = Parqo.Rng.create 4 in
  let t2 = cover2 () in
  for i = 1 to 500 do
    let p = (Parqo.Rng.int rng 50, Parqo.Rng.int rng 50) in
    ignore (add2 t2 p);
    Alcotest.(check int)
      (Printf.sprintf "size after add %d" i)
      (List.length (C.elements t2))
      (C.size t2);
    if i mod 100 = 0 then begin
      C.trim t2 ~keep:5 ~rank:(fun (a, b) -> float_of_int (a + b));
      Alcotest.(check int)
        (Printf.sprintf "size after trim %d" i)
        (List.length (C.elements t2))
        (C.size t2)
    end
  done

(* ------------------------------------------------------------------ *)
(* The list cover the flat one replaced is the oracle: newest first, a
   candidate enters unless an element dominates it and evicts the
   elements it dominates.  Elements are (id, dims) pairs; dims are drawn
   from a small integer grid so exact dominance and exact rank ties
   actually occur. *)

let random_point rng ~id ~l ~range =
  (id, Array.init l (fun _ -> float_of_int (Parqo.Rng.int rng range)))

let list_dominates refines (ai, av) (bi, bv) =
  let rec go i = i >= Array.length av || (av.(i) <= bv.(i) && go (i + 1)) in
  go 0
  && match refines with None -> true | Some r -> r (ai, av) (bi, bv)

let list_covered dominates cover x = List.exists (fun e -> dominates e x) cover

let list_add dominates cover x =
  if list_covered dominates cover x then (false, cover)
  else (true, x :: List.filter (fun e -> not (dominates x e)) cover)

let flat_add flat ((_, dims) as p) =
  Array.blit dims 0 (C.scratch flat) 0 (Array.length dims);
  C.add flat p p

(* property: the trim implements exactly the documented boundary
   semantics: stable sort of [elements] (newest first) by (rank, tie),
   then the [keep]-prefix, reported in ascending order.  Coarse integer
   ranks force plenty of boundary ties. *)
let trim_matches_sort_oracle () =
  let rng = Parqo.Rng.create 42 in
  let l = 2 in
  for round = 1 to 30 do
    (* a refines guard that always refuses keeps every point, so the
       trim has a full population to select from *)
    let flat = C.create ~n_dims:l ~refines:(fun _ _ -> false) () in
    let n = 5 + Parqo.Rng.int rng 20 in
    for id = 0 to n - 1 do
      ignore (flat_add flat (random_point rng ~id ~l ~range:3))
    done;
    let inserted = C.elements flat in
    let rank (_, d) = d.(0) in
    (* id-based tie on half the rounds; pure rank ties on the rest *)
    let tie = if round mod 2 = 0 then Some (fun (a, _) (b, _) -> compare (a : int) b) else None in
    let keep = 1 + Parqo.Rng.int rng n in
    let oracle =
      (* trim is a no-op when the cover already fits within [keep] *)
      if keep >= n then inserted
      else
        let cmp a b =
          match Float.compare (rank a) (rank b) with
          | 0 -> (match tie with None -> 0 | Some f -> f a b)
          | c -> c
        in
        List.filteri (fun i _ -> i < keep) (List.stable_sort cmp inserted)
    in
    C.trim ?tie flat ~keep ~rank;
    Alcotest.(check (list int))
      (Printf.sprintf "round %d: trim = stable-sort prefix" round)
      (List.map fst oracle)
      (List.map fst (C.elements flat))
  done

(* clear reuses the handle: after clear, behavior is as from create *)
let flat_clear_resets () =
  let rng = Parqo.Rng.create 43 in
  let flat = C.create ~n_dims:2 () in
  for _ = 1 to 3 do
    let list_cover = ref [] in
    C.clear flat;
    for id = 0 to 49 do
      let p = random_point rng ~id ~l:2 ~range:6 in
      list_cover := snd (list_add (list_dominates None) !list_cover p);
      ignore (flat_add flat p)
    done;
    Alcotest.(check (list int))
      "same cover after clear"
      (List.map fst !list_cover)
      (List.map fst (C.elements flat))
  done

(* ------------------------------------------------------------------ *)
(* The merge lemma (MODEL.md §12): split a candidate sequence among k
   workers at random, let each fold its own positions in order into a
   cover tagged by position, then merge the partial covers in tag order.
   The result is the cover of the whole sequence, element for element.
   Coordinates come from a small grid, so exact ties and equivalent
   elements occur; on a quarter of the rounds some are NaN, which
   compares false both ways.  The refinement mirrors
   [Ordering.subsumes]: [a] may dominate [b] only if [b]'s ordering is a
   prefix of [a]'s, a transitive relation. *)

type tagged = { id : int; dims : float array; ord : int list }

let rec is_prefix p o =
  match (p, o) with
  | [], _ -> true
  | x :: p, y :: o -> x = y && is_prefix p o
  | _ :: _, [] -> false

let random_tagged rng ~id ~l ~range ~nan_share =
  let coord () =
    if Parqo.Rng.float rng 1. < nan_share then nan
    else float_of_int (Parqo.Rng.int rng range)
  in
  {
    id;
    dims = Array.init l (fun _ -> coord ());
    ord = List.init (Parqo.Rng.int rng 3) (fun _ -> Parqo.Rng.int rng 2);
  }

let add_at cover ~pos x =
  Array.blit x.dims 0 (C.scratch cover) 0 (Array.length x.dims);
  if not (C.is_covered cover x) then C.insert cover ~tag:pos x x

(* The refinements the properties below run under: none; the prefix
   order above; an equivalence (id parity), whose key classes have many
   members; and a guard that refuses everything, not even reflexive,
   under which every entry is a key class of its own. *)
let refinements =
  [
    ("none", None);
    ("prefix", Some (fun a b -> is_prefix b.ord a.ord));
    ("parity", Some (fun a b -> a.id mod 2 = b.id mod 2));
    ("refuse-all", Some (fun _ _ -> false));
  ]

let refinement name = List.assoc name refinements

let merge_lemma () =
  let rng = Parqo.Rng.create 44 in
  List.iter
    (fun (l, range, rname) ->
      let refines = refinement rname in
      for round = 1 to 60 do
        (* every coordinate leads the scan index on some rounds *)
        let lead = round mod l in
        let create () = C.create ~n_dims:l ~lead ?refines () in
        let m = 1 + Parqo.Rng.int rng 80 in
        let nan_share = if round mod 4 = 0 then 0.15 else 0. in
        let seq =
          Array.init m (fun id -> random_tagged rng ~id ~l ~range ~nan_share)
        in
        let whole = create () in
        Array.iteri (fun pos x -> add_at whole ~pos x) seq;
        let k = 1 + Parqo.Rng.int rng 8 in
        let owner = Array.init m (fun _ -> Parqo.Rng.int rng k) in
        let parts =
          List.init k (fun w ->
              let part = create () in
              Array.iteri
                (fun pos x -> if owner.(pos) = w then add_at part ~pos x)
                seq;
              part)
        in
        let merged = create () in
        C.merge ~into:merged parts;
        Alcotest.(check (list int))
          (Printf.sprintf "l=%d lead=%d %s round %d (%d elements, %d parts)" l
             lead rname round m k)
          (List.map (fun x -> x.id) (C.elements whole))
          (List.map (fun x -> x.id) (C.elements merged))
      done)
    [
      (1, 4, "none"); (2, 4, "none"); (3, 3, "none"); (2, 4, "prefix");
      (3, 3, "prefix"); (2, 4, "parity"); (3, 3, "refuse-all");
    ]

let tagged_dominates refines a b =
  let rec go i =
    i >= Array.length a.dims || (a.dims.(i) <= b.dims.(i) && go (i + 1))
  in
  go 0 && match refines with None -> true | Some r -> r a b

(* property: the flat cover, read through its scan index (key classes,
   each scanned in ascending order of the lead coordinate, NaN leads
   last), answers as the list oracle does, step by step: whether the
   candidate is covered, whether it is accepted, which entries it
   evicts, the size, and the element order (ids are the tags the
   entries were inserted with).  Under every refinement above, every
   lead, duplicates and exact ties on a small grid (a tied lead is where
   a scan stops and an eviction starts) and, on a third of the rounds,
   NaN coordinates; through a fold, a trim followed by more inserts, and
   a clear followed by more inserts. *)
let flat_matches_list_oracle () =
  let rng = Parqo.Rng.create 45 in
  let ids l = List.map (fun x -> x.id) l in
  List.iter
    (fun (rname, refines) ->
      let dominates = tagged_dominates refines in
      List.iter
        (fun (l, range) ->
          for lead = 0 to l - 1 do
            for round = 1 to 6 do
              let nan_share = if round mod 3 = 0 then 0.15 else 0. in
              let flat = C.create ~n_dims:l ~lead ?refines () in
              let oracle = ref [] and next_id = ref 0 in
              let what phase =
                Printf.sprintf "%s l=%d lead=%d round %d, %s" rname l lead
                  round phase
              in
              let steps phase m =
                for _ = 1 to m do
                  let x = random_tagged rng ~id:!next_id ~l ~range ~nan_share in
                  incr next_id;
                  let what = Printf.sprintf "%s, candidate %d" (what phase) x.id in
                  let before = ids (C.elements flat) in
                  Array.blit x.dims 0 (C.scratch flat) 0 l;
                  let covered = C.is_covered flat x in
                  Alcotest.(check bool) (what ^ ": covered")
                    (list_covered dominates !oracle x) covered;
                  let accepted, next = list_add dominates !oracle x in
                  if not covered then C.insert flat ~tag:x.id x x;
                  Alcotest.(check bool) (what ^ ": accepted") accepted (not covered);
                  let after = ids (C.elements flat) in
                  Alcotest.(check (list int)) (what ^ ": evicted")
                    (ids (List.filter (fun e -> not (List.memq e next)) !oracle))
                    (List.filter (fun i -> not (List.mem i after)) before);
                  oracle := next;
                  Alcotest.(check int) (what ^ ": size") (List.length next)
                    (C.size flat);
                  Alcotest.(check (list int)) (what ^ ": elements") (ids next) after
                done
              in
              steps "fold" 60;
              let keep = 1 + Parqo.Rng.int rng 8 in
              let rank x = x.dims.(0) in
              let tie a b = compare a.id b.id in
              C.trim ~tie flat ~keep ~rank;
              if List.length !oracle > keep then begin
                let cmp a b =
                  match Float.compare (rank a) (rank b) with
                  | 0 -> tie a b
                  | c -> c
                in
                oracle :=
                  List.filteri (fun i _ -> i < keep) (List.stable_sort cmp !oracle)
              end;
              Alcotest.(check (list int)) (what "trim") (ids !oracle)
                (ids (C.elements flat));
              steps "after trim" 40;
              C.clear flat;
              oracle := [];
              steps "after clear" 40
            done
          done)
        [ (1, 6); (2, 5); (2, 8); (3, 4); (4, 3) ])
    refinements

(* The dominance scans allocate nothing: a thousand dominated candidates
   tested against a filled cover, with and without a refinement, cost a
   few words in all (the measurement's own), not words per candidate. *)
let dominated_adds_allocate_nothing () =
  List.iter
    (fun refines ->
      let c = C.create ~n_dims:2 ?refines () in
      for i = 0 to 63 do
        fill2 (i, 63 - i) (C.scratch c);
        ignore (C.add c i i)
      done;
      Alcotest.(check int) "filled" 64 (C.size c);
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        fill2 (64, 64) (C.scratch c);
        ignore (C.add c 0 (-1))
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) "none entered" 64 (C.size c);
      Alcotest.(check bool)
        (Printf.sprintf "%.0f words for 1000 candidates" words)
        true (words < 64.))
    [ None; Some (fun (a : int) b -> a <= b) ]

let suite =
  ( "cover",
    [
      t "maintenance" maintenance;
      t "size matches length" size_matches_length;
      t "incomparability invariant" incomparability_invariant;
      t "coverage invariant" coverage_invariant;
      t "Theorem 3 Monte Carlo" theorem3_monte_carlo;
      t "2-dim harmonic cross-check" two_dims_harmonic;
      t "trim tie-break deterministic" trim_tie_break_deterministic;
      t "total order keeps one" total_order_keeps_one;
      t "flat cover matches list oracle" flat_matches_list_oracle;
      t "trim matches stable-sort oracle" trim_matches_sort_oracle;
      t "flat clear resets" flat_clear_resets;
      t "merge lemma: tag-order merge = sequential fold" merge_lemma;
      t "dominated candidates allocate nothing" dominated_adds_allocate_nothing;
    ] )
