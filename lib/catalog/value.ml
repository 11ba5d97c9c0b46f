type t = Int of int | Flt of float | Str of string

let to_float = function
  | Int i -> float_of_int i
  | Flt f -> f
  | Str s -> float_of_int (Hashtbl.hash s)

(* Numbers compare by their float images, as [Float.compare] orders them
   (NaN equal to itself and below every other number); each pairing is
   its own case so no image is boxed. *)
let compare a b =
  match (a, b) with
  | Int x, Int y -> Float.compare (float_of_int x) (float_of_int y)
  | Int x, Flt y -> Float.compare (float_of_int x) y
  | Flt x, Int y -> Float.compare x (float_of_int y)
  | Flt x, Flt y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Str _, (Int _ | Flt _) -> 1
  | (Int _ | Flt _), Str _ -> -1

let equal a b = compare a b = 0

(* lexicographic over the values at positions.(i..); top-level, so a
   comparison allocates no closure *)
let rec compare_from positions (a : t array) (b : t array) i =
  if i = Array.length positions then 0
  else
    let p = positions.(i) in
    let c = compare a.(p) b.(p) in
    if c <> 0 then c else compare_from positions a b (i + 1)

let compare_at positions a b = compare_from positions a b 0

(* A number hashes as the int its float image denotes when there is one,
   else as the image; [Hashtbl.hash] already maps every NaN, and -0 and
   0, to one hash.  An [Int] within 2^53 is its own image. *)
let hash_float f =
  if Float.is_integer f && Float.abs f < 0x1p62 then Hashtbl.hash (int_of_float f)
  else Hashtbl.hash f

let hash = function
  | Int i when i >= -0x20000000000000 && i <= 0x20000000000000 -> Hashtbl.hash i
  | Int i -> hash_float (float_of_int i)
  | Flt f -> hash_float f
  | Str s -> Hashtbl.hash s

let to_string = function
  | Int i -> string_of_int i
  | Flt f -> Printf.sprintf "%g" f
  | Str s -> s

let pp ppf v = Format.pp_print_string ppf (to_string v)
