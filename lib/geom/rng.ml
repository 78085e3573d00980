(* splitmix64: fast, passes BigCrush, trivially seedable.

   The state is a one-element int64 Bigarray rather than a mutable
   [int64] record field: a boxed-int64 field costs a fresh box on every
   store, i.e. per draw — and the sampling step draws once per sample
   per cell. Bigarray int64 loads/stores are unboxing primitives, so a
   draw whose intermediates feed only int64 primitives allocates nothing
   beyond its return value. The stream itself is unchanged bit for bit:
   same constants, same mixing, same mapping to floats. *)

module BA1 = Bigarray.Array1

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) BA1.t

external st_get : t -> int -> int64 = "%caml_ba_unsafe_ref_1"
external st_set : t -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t : t = BA1.create Bigarray.Int64 Bigarray.c_layout 1 in
  st_set t 0 state;
  t

let create seed = of_state (Int64.of_int seed)
let state t = st_get t 0

type states = (int64, Bigarray.int64_elt, Bigarray.c_layout) BA1.t

let save t (a : states) i = BA1.set a i (st_get t 0)
let load t (a : states) i = st_set t 0 (BA1.get a i)

let bits64 t =
  let s = Int64.add (st_get t 0) golden in
  st_set t 0 s;
  mix s

let split t = of_state (bits64 t)

(* Every draw adds [golden] to the state once, so k draws add k times
   it, wrapping as the draws do. *)
let advance t k =
  assert (k >= 0);
  st_set t 0 (Int64.add (st_get t 0) (Int64.mul golden (Int64.of_int k)))

let split_at t i =
  assert (i >= 0);
  (* The i-th child stream: mix the state the generator would reach after
     i+1 steps, without advancing [t]. Children are keyed purely by index,
     so derivation order (or concurrency) cannot change them. *)
  of_state
    (mix (Int64.add (st_get t 0) (Int64.mul golden (Int64.of_int (i + 1)))))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let b = Int64.of_int bound in
  (* Rejection sampling over the 63-bit draw: accept v < 2^63 - (2^63 mod
     bound), i.e. v <= max_int - r, so every residue is equally likely. *)
  let r = Int64.rem (Int64.add (Int64.rem Int64.max_int b) 1L) b in
  let limit = Int64.sub Int64.max_int r in
  let rec draw () =
    let v = Int64.shift_right_logical (bits64 t) 1 in
    if v <= limit then Int64.to_int (Int64.rem v b) else draw ()
  in
  draw ()

(* 53 random mantissa bits mapped to [0, 1). The advance and mix are
   written out inline (not [bits64]) so no boxed int64 crosses a call
   boundary: every intermediate is consumed by an int64 primitive and
   stays in registers, leaving the boxed float return as the only
   allocation of a draw; inlined, as in [fill_float], not even that. *)
let[@inline] unit_float t =
  let s = Int64.add (st_get t 0) golden in
  st_set t 0 s;
  let z =
    Int64.mul
      (Int64.logxor s (Int64.shift_right_logical s 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.

let float t bound = unit_float t *. bound

let fill_float t bound buf ~pos ~stride ~count =
  assert (count >= 0 && stride >= 1 && pos >= 0);
  assert (count = 0 || pos + ((count - 1) * stride) < Float.Array.length buf);
  for k = 0 to count - 1 do
    Float.Array.unsafe_set buf (pos + (k * stride)) (unit_float t *. bound)
  done

let uniform t lo hi = lo +. (unit_float t *. (hi -. lo))
let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t p = unit_float t < p

let gaussian t =
  (* Box–Muller; guard against log 0. *)
  let u1 = Float.max (unit_float t) 1e-300 in
  let u2 = unit_float t in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
