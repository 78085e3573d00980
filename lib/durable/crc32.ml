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

let of_substring s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.of_substring";
  let t = table in
  let crc = ref 0xFFFFFFFF and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    let lo =
      !crc
      lxor (byte s j
           lor (byte s (j + 1) lsl 8)
           lor (byte s (j + 2) lsl 16)
           lor (byte s (j + 3) lsl 24))
    in
    crc :=
      Array.unsafe_get t (1792 + (lo land 0xff))
      lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t (1024 + (lo lsr 24))
      lxor Array.unsafe_get t (768 + byte s (j + 4))
      lxor Array.unsafe_get t (512 + byte s (j + 5))
      lxor Array.unsafe_get t (256 + byte s (j + 6))
      lxor Array.unsafe_get t (byte s (j + 7));
    i := j + 8
  done;
  for j = stop8 to pos + len - 1 do
    crc :=
      Array.unsafe_get t ((!crc lxor byte s j) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let of_string s = of_substring s ~pos:0 ~len:(String.length s)
let of_bytes b = of_string (Bytes.unsafe_to_string b)
