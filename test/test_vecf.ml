module V = Parqo.Vecf

let t name f = Alcotest.test_case name `Quick f

let vec_gen =
  QCheck2.Gen.(
    list_size (int_range 1 6) (float_bound_inclusive 100.)
    |> map (fun l -> V.of_array (Array.of_list l)))

let vec_pair_gen =
  QCheck2.Gen.(
    pair (int_range 1 6) (int_range 0 1000) |> map (fun (d, seed) ->
        let rng = Parqo.Rng.create seed in
        ( V.init d (fun _ -> Parqo.Rng.float rng 100.),
          V.init d (fun _ -> Parqo.Rng.float rng 100.) )))

let basics () =
  let v = V.of_array [| 1.; 2.; 3. |] in
  Alcotest.(check int) "dim" 3 (V.dim v);
  Helpers.check_float "get" 2. (V.get v 1);
  Helpers.check_float "sum" 6. (V.sum v);
  Helpers.check_float "max" 3. (V.max_coord v);
  let v' = V.set v 0 10. in
  Helpers.check_float "set new" 10. (V.get v' 0);
  Helpers.check_float "set preserves original" 1. (V.get v 0)

let arithmetic () =
  let a = V.of_array [| 1.; 2. |] and b = V.of_array [| 3.; 1. |] in
  Alcotest.(check bool) "add" true
    (V.equal (V.add a b) (V.of_array [| 4.; 3. |]));
  Alcotest.(check bool) "sub" true
    (V.equal (V.sub a b) (V.of_array [| -2.; 1. |]));
  Alcotest.(check bool) "scale" true
    (V.equal (V.scale 2. a) (V.of_array [| 2.; 4. |]));
  Alcotest.(check bool) "pointwise max" true
    (V.equal (V.pointwise_max a b) (V.of_array [| 3.; 2. |]));
  Alcotest.(check bool) "clamp" true
    (V.equal (V.clamp_non_negative (V.sub a b)) (V.of_array [| 0.; 1. |]))

let errors () =
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Vecf: dimension mismatch") (fun () ->
      ignore (V.add (V.zero 2) (V.zero 3)))

let prop_add_comm =
  Helpers.qtest "add commutative" vec_pair_gen (fun (a, b) ->
      V.equal ~eps:1e-9 (V.add a b) (V.add b a))

let prop_max_le_sum =
  Helpers.qtest "max_coord <= sum for non-negative" vec_gen (fun v ->
      let v = V.map Float.abs v in
      V.max_coord v <= V.sum v +. 1e-9)

let suite =
  ( "vecf",
    [
      t "basics" basics;
      t "arithmetic" arithmetic;
      t "errors" errors;
      prop_add_comm;
      prop_max_le_sum;
    ] )
