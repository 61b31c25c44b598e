(* SplitMix64.  Reference: Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = s }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let r = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem r bound64 in
    if Int64.(sub (add (sub r v) bound64) 1L) < 0L then draw ()
    else Int64.to_int v
  in
  draw ()

let float t bound =
  (* 53 random bits mapped to [0,1). *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r /. 9007199254740992.0 *. bound

(* The first draws of [create seed], with the generator's state kept in
   unboxed locals instead of a record. *)
let[@inline] first_bits64 seed =
  mix64 (Int64.add (mix64 (Int64.of_int seed)) golden_gamma)

let first_float seed bound =
  let r = Int64.shift_right_logical (first_bits64 seed) 11 in
  Int64.to_float r /. 9007199254740992.0 *. bound

let first_bits62 seed =
  Int64.to_int (Int64.logand (first_bits64 seed) 0x3FFFFFFFFFFFFFFFL)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let gaussian t ~mean ~std =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (std *. r *. cos (2.0 *. Float.pi *. u2))

let choose t xs =
  match xs with
  | [] -> invalid_arg "Rng.choose: empty list"
  | [ x ] -> x
  | _ -> List.nth xs (int t (List.length xs))

let shuffle t xs =
  for i = Array.length xs - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- tmp
  done

let shuffle_list t xs =
  let arr = Array.of_list xs in
  shuffle t arr;
  Array.to_list arr
