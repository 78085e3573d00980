(* CRC-32 (IEEE 802.3, polynomial 0xEDB88320), slice-by-8. All
   arithmetic stays within 32 bits, so native 63-bit ints hold every
   intermediate exactly; no external dependency is needed.

   [table] holds eight 256-entry tables back to back, built once at
   module initialisation: slice 0 is the classic byte-at-a-time table,
   and slice k advances slice k-1's value by one more zero byte. The
   main loop folds eight input bytes per step through one lookup in
   each slice; the tail (and any input under eight bytes) goes a byte
   at a time through slice 0. Both paths compute the same function as
   the plain table-driven loop. *)

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xff) lxor (prev lsr 8)
    done
  done;
  t

let byte s i = Char.code (String.unsafe_get s i)

external get64u : string -> int -> int64 = "%caml_string_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* The eight bytes at [i] as a little-endian word. *)
let[@inline] word s i =
  if Sys.big_endian then swap64 (get64u s i) else get64u s i

(* One slice-by-8 step over the 64-bit word [w] (eight input bytes,
   little-endian): its low 32 bits fold into [crc] and index slices
   7-4, its high 32 bits index slices 3-0. Inlined, so the word stays
   unboxed. *)
let[@inline] step crc w =
  let t = table in
  let lo = crc lxor (Int64.to_int w land 0xFFFFFFFF) in
  let hi = Int64.to_int (Int64.shift_right_logical w 32) in
  Array.unsafe_get t (1792 + (lo land 0xff))
  lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xff))
  lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xff))
  lxor Array.unsafe_get t (1024 + (lo lsr 24))
  lxor Array.unsafe_get t (768 + (hi land 0xff))
  lxor Array.unsafe_get t (512 + ((hi lsr 8) land 0xff))
  lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
  lxor Array.unsafe_get t (hi lsr 24)

(* Resumable: [crc] is a finished CRC (of the bytes before these, 0 for
   none), un-finished on the way in and finished again on the way out,
   so [update (update 0 a) b = update 0 (a ^ b)]. *)
let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update";
  let crc = ref (crc lxor 0xFFFFFFFF) and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    crc := step !crc (word s !i);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    crc :=
      Array.unsafe_get table ((!crc lxor byte s j) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

(* A float's bit pattern is its eight little-endian bytes' word. *)
let update_floats crc (a : floatarray) =
  let crc = ref (crc lxor 0xFFFFFFFF) in
  for i = 0 to Float.Array.length a - 1 do
    crc := step !crc (Int64.bits_of_float (Float.Array.unsafe_get a i))
  done;
  !crc lxor 0xFFFFFFFF

let of_substring s ~pos ~len = update 0 s ~pos ~len
let of_string s = of_substring s ~pos:0 ~len:(String.length s)
let of_bytes b = of_string (Bytes.unsafe_to_string b)
