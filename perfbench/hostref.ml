(* The host's speed, read off a fixed computation timed beside the ops.

   The benchmark runs on shared hosts whose speed swings by a fifth or
   more, within seconds and over minutes (STEADINESS.md).  So every
   timing is taken beside runs of [kernel], a fixed computation that
   calls nothing in parqo: no change to parqo can move it.  It allocates
   boxed floats, tuples, strings, list cells and hash-table buckets, as
   parqo's search does.  The host's swings hit such code far harder
   than register arithmetic or memory latency, and the kernel's time
   follows the ops' time (STEADINESS.md, "Following the host").

   A time [t] measured while the kernel took [k] seconds is reported as
   [t /. slowness], with [slowness = k /. nominal_s]: the time the work
   takes on the host when the kernel takes [nominal_s]. *)

(* The kernel's median on a 2-vCPU 2.1 GHz Xeon.  Only ratios between
   runs matter: any constant gives the same spreads and comparisons. *)
let nominal_s = 1.8e-3

let kernel () =
  let h = Hashtbl.create 64 in
  let acc = ref [] in
  for i = 1 to 20_000 do
    Hashtbl.replace h ((i * 7919) land 1023) (float_of_int i, i);
    if i land 7 = 0 then acc := (i, string_of_int i) :: !acc
  done;
  Hashtbl.length h + List.length !acc

(* Seconds one run of the kernel takes now. *)
let sample () =
  let s = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. s

let median xs = Parqo.Statsu.quantile 0.5 (Array.to_list xs)

(* [n] kernel times, one after another. *)
let samples n = Array.init n (fun _ -> sample ())

(* The host's slowness over kernel times [ks]. *)
let slowness ks = median ks /. nominal_s

(* The slowness around the op that ran between samples [i] and [i + 1]
   of [ks]: the median of samples [i - 1], [i] and [i + 1], clamped to
   the array.  The host's speed moves within a second, so only the
   nearest samples follow it. *)
let around ks i =
  let last = Array.length ks - 1 in
  let at j = ks.(max 0 (min last j)) in
  slowness [| at (i - 1); at i; at (i + 1) |]
