(* Summary statistics for the benchmark's reports, beside the median and
   mean of [Parqo.Statsu]. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile [p] (an integer percent).  Refuses a
   percentile with fewer than ten samples above its rank: such a figure
   is set by a handful of ops and moves with each of them. *)
let percentile xs p =
  if p <= 0 || p >= 100 then invalid_arg "Bstats.percentile: p outside (0, 100)";
  let n = Array.length xs in
  (* rank = ceil (p * n / 100), in integers so 90% of 100 is exactly 90 *)
  let idx = max 0 ((((p * n) + 99) / 100) - 1) in
  let beyond = n - 1 - idx in
  if beyond < 10 then
    invalid_arg
      (Printf.sprintf
         "Bstats.percentile: p%d of %d samples has %d beyond it (need 10)" p n
         (max 0 beyond));
  (sorted xs).(idx)

let geomean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Bstats.geomean: no samples";
  let sum =
    Array.fold_left
      (fun acc x ->
        if not (x > 0.) then
          invalid_arg (Printf.sprintf "Bstats.geomean: non-positive sample %g" x);
        acc +. log x)
      0. xs
  in
  exp (sum /. float_of_int n)

(* [num / den], or 0 when nothing was counted. *)
let ratio num den = if den = 0. then 0. else num /. den
