type t = float array

(* All loops below are written as direct index loops over float arrays
   (never [Array.init]/[Array.fold_left] with a float-returning closure):
   OCaml's flat float-array representation makes the direct loops
   allocation-free, while the polymorphic combinators box every
   intermediate float — measurably dominant in the optimizer's costing
   hot path, where these vectors are combined per candidate operator. *)

let make dim x = Array.make dim x
let zero dim = Array.make dim 0.
let of_array a = Array.copy a
let to_array v = Array.copy v
let init = Array.init
let dim = Array.length
let get v i = v.(i)

let set v i x =
  let v' = Array.copy v in
  v'.(i) <- x;
  v'

let check_dim a b = if Array.length a <> Array.length b then invalid_arg "Vecf: dimension mismatch"

let map2 f a b =
  check_dim a b;
  let n = Array.length a in
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    out.(i) <- f a.(i) b.(i)
  done;
  out

let add a b =
  check_dim a b;
  let n = Array.length a in
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    out.(i) <- a.(i) +. b.(i)
  done;
  out

let sub a b =
  check_dim a b;
  let n = Array.length a in
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    out.(i) <- a.(i) -. b.(i)
  done;
  out

let scale k v =
  let n = Array.length v in
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    out.(i) <- k *. v.(i)
  done;
  out

let pointwise_max a b = map2 Float.max a b

(* [Float.max]/[Float.min] are proper function calls without flambda —
   each one boxes both arguments — and the costing loops call them per
   coordinate.  On the costing domain neither NaN nor -0. ever occurs
   (every value is built from non-negative parameters with +, *, /, max),
   and on that domain the comparison branch returns the same bits, while
   reliably compiling to an unboxed compare. *)
let fmax (a : float) (b : float) = if a >= b then a else b
let fmin (a : float) (b : float) = if a <= b then a else b

(* A local float [ref] that never escapes is compiled to an unboxed
   mutable variable, so these loops allocate nothing; only the result is
   boxed, when the call is not inlined. *)
let max_coord v =
  let acc = ref neg_infinity in
  for i = 0 to Array.length v - 1 do
    acc := if !acc >= v.(i) then !acc else v.(i)
  done;
  !acc

let sum v =
  let acc = ref 0. in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. v.(i)
  done;
  !acc

let equal ?(eps = 0.) a b =
  Array.length a = Array.length b
  &&
  let rec loop i =
    i >= Array.length a || (Float.abs (a.(i) -. b.(i)) <= eps && loop (i + 1))
  in
  loop 0

let map = Array.map

let clamp_non_negative v =
  let n = Array.length v in
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    out.(i) <- fmax 0. v.(i)
  done;
  out

(* ---- scratch-buffer interface (allocation-free costing) ---- *)

let unsafe_adopt a = a
let unsafe_raw v = v

let pp ppf v =
  Format.fprintf ppf "[%s]"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.3g") v)))
