(* Monomorphic sort / select kernels over flat columns.

   Two sorting strategies share each tandem entry point:

   - an introsort (median-of-three Hoare quicksort, insertion sort below
     [small], heapsort at the depth budget) — three near-identical
     monomorphic copies, one per element layout, deliberate: a
     polymorphic version would re-introduce the comparator closure and
     boxing these kernels exist to remove;
   - an LSD radix sort on the monotone-mapped float bit pattern, used by
     [sort_ff]/[sort_fi] above [radix_threshold] elements, with reusable
     per-domain scratch lent to one sort at a time ([Lend]).

   Keys must not be NaN (the [<] / [>] scans would run off the ends and
   the bit mapping has no slot for unordered values); the checked solver
   entries guarantee this upstream. *)

let small = 16

let depth_budget n =
  let d = ref 0 in
  let n = ref n in
  while !n > 1 do
    incr d;
    n := !n lsr 1
  done;
  2 * !d

(* ---------- sort_idx: permutation indices keyed by a float column - *)

let ikey k a i = Fvec.unsafe_get k (Array.unsafe_get a i)

let iswap a i j =
  let t = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j t

let idx_insertion k a lo hi =
  for i = lo + 1 to hi do
    let v = Array.unsafe_get a i in
    let kv = Fvec.unsafe_get k v in
    let j = ref (i - 1) in
    while !j >= lo && ikey k a !j > kv do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) v
  done

let idx_sift_down k a lo root len =
  let i = ref root in
  let live = ref true in
  while !live do
    let l = (2 * !i) + 1 in
    if l >= len then live := false
    else begin
      let m = ref l in
      if l + 1 < len && ikey k a (lo + l + 1) > ikey k a (lo + l) then
        m := l + 1;
      if ikey k a (lo + !m) > ikey k a (lo + !i) then begin
        iswap a (lo + !i) (lo + !m);
        i := !m
      end
      else live := false
    end
  done

let idx_heapsort k a lo hi =
  let len = hi - lo + 1 in
  for root = (len / 2) - 1 downto 0 do
    idx_sift_down k a lo root len
  done;
  for last = len - 1 downto 1 do
    iswap a lo (lo + last);
    idx_sift_down k a lo 0 last
  done

(* Median-of-three then Hoare partition; returns j with
   [lo..j] <= pivot <= [j+1..hi] and lo <= j < hi. *)
let idx_partition k a lo hi =
  let mid = lo + ((hi - lo) / 2) in
  if ikey k a mid < ikey k a lo then iswap a mid lo;
  if ikey k a hi < ikey k a lo then iswap a hi lo;
  if ikey k a hi < ikey k a mid then iswap a hi mid;
  let p = ikey k a mid in
  let i = ref (lo - 1) and j = ref (hi + 1) in
  let res = ref 0 in
  let live = ref true in
  while !live do
    incr i;
    while ikey k a !i < p do
      incr i
    done;
    decr j;
    while ikey k a !j > p do
      decr j
    done;
    if !i >= !j then begin
      res := !j;
      live := false
    end
    else iswap a !i !j
  done;
  !res

let rec idx_intro k a lo hi depth =
  if hi - lo + 1 <= small then begin
    if hi > lo then idx_insertion k a lo hi
  end
  else if depth = 0 then idx_heapsort k a lo hi
  else begin
    let j = idx_partition k a lo hi in
    idx_intro k a lo j (depth - 1);
    idx_intro k a (j + 1) hi (depth - 1)
  end

let sort_idx_range k a ~lo ~hi =
  if hi > lo then idx_intro k a lo hi (depth_budget (hi - lo + 1))

let sort_idx k a =
  let n = Array.length a in
  if n > 1 then idx_intro k a 0 (n - 1) (depth_budget n)

let select_idx k a ~lo ~hi ~k:kth =
  if kth < lo || kth > hi then invalid_arg "Kern.select_idx";
  let lo = ref lo and hi = ref hi in
  while !hi > !lo do
    if !hi - !lo + 1 <= small then begin
      idx_insertion k a !lo !hi;
      lo := !hi
    end
    else begin
      let j = idx_partition k a !lo !hi in
      if kth <= j then hi := j else lo := j + 1
    end
  done

(* ---------- intro_ff: tandem (float key, float payload) ----------- *)
(* Keys ascending; ties payload DESCENDING (sweep adds-before-removes). *)

let ff_less_ij key pay i j =
  let ki = Fvec.unsafe_get key i and kj = Fvec.unsafe_get key j in
  ki < kj || (ki = kj && Fvec.unsafe_get pay i > Fvec.unsafe_get pay j)

let ff_swap key pay i j =
  let tk = Fvec.unsafe_get key i and tp = Fvec.unsafe_get pay i in
  Fvec.unsafe_set key i (Fvec.unsafe_get key j);
  Fvec.unsafe_set pay i (Fvec.unsafe_get pay j);
  Fvec.unsafe_set key j tk;
  Fvec.unsafe_set pay j tp

let ff_insertion key pay lo hi =
  for i = lo + 1 to hi do
    let kv = Fvec.unsafe_get key i and pv = Fvec.unsafe_get pay i in
    let j = ref (i - 1) in
    while
      !j >= lo
      &&
      let kj = Fvec.unsafe_get key !j in
      kj > kv || (kj = kv && Fvec.unsafe_get pay !j < pv)
    do
      Fvec.unsafe_set key (!j + 1) (Fvec.unsafe_get key !j);
      Fvec.unsafe_set pay (!j + 1) (Fvec.unsafe_get pay !j);
      decr j
    done;
    Fvec.unsafe_set key (!j + 1) kv;
    Fvec.unsafe_set pay (!j + 1) pv
  done

let ff_sift_down key pay lo root len =
  let i = ref root in
  let live = ref true in
  while !live do
    let l = (2 * !i) + 1 in
    if l >= len then live := false
    else begin
      let m = ref l in
      if l + 1 < len && ff_less_ij key pay (lo + l) (lo + l + 1) then
        m := l + 1;
      if ff_less_ij key pay (lo + !i) (lo + !m) then begin
        ff_swap key pay (lo + !i) (lo + !m);
        i := !m
      end
      else live := false
    end
  done

let ff_heapsort key pay lo hi =
  let len = hi - lo + 1 in
  for root = (len / 2) - 1 downto 0 do
    ff_sift_down key pay lo root len
  done;
  for last = len - 1 downto 1 do
    ff_swap key pay lo (lo + last);
    ff_sift_down key pay lo 0 last
  done

let ff_partition key pay lo hi =
  let mid = lo + ((hi - lo) / 2) in
  if ff_less_ij key pay mid lo then ff_swap key pay mid lo;
  if ff_less_ij key pay hi lo then ff_swap key pay hi lo;
  if ff_less_ij key pay hi mid then ff_swap key pay hi mid;
  let pk = Fvec.unsafe_get key mid and pp = Fvec.unsafe_get pay mid in
  let i = ref (lo - 1) and j = ref (hi + 1) in
  let res = ref 0 in
  let live = ref true in
  while !live do
    incr i;
    while
      let ki = Fvec.unsafe_get key !i in
      ki < pk || (ki = pk && Fvec.unsafe_get pay !i > pp)
    do
      incr i
    done;
    decr j;
    while
      let kj = Fvec.unsafe_get key !j in
      kj > pk || (kj = pk && Fvec.unsafe_get pay !j < pp)
    do
      decr j
    done;
    if !i >= !j then begin
      res := !j;
      live := false
    end
    else ff_swap key pay !i !j
  done;
  !res

let rec ff_intro key pay lo hi depth =
  if hi - lo + 1 <= small then begin
    if hi > lo then ff_insertion key pay lo hi
  end
  else if depth = 0 then ff_heapsort key pay lo hi
  else begin
    let j = ff_partition key pay lo hi in
    ff_intro key pay lo j (depth - 1);
    ff_intro key pay (j + 1) hi (depth - 1)
  end

let intro_ff key pay n =
  if n > 1 then ff_intro key pay 0 (n - 1) (depth_budget n)

(* ---------- intro_fi: tandem (float key, int payload) ------------- *)
(* Keys ascending; ties payload ASCENDING. *)

let fi_less_ij key pay i j =
  let ki = Fvec.unsafe_get key i and kj = Fvec.unsafe_get key j in
  ki < kj || (ki = kj && Array.unsafe_get pay i < Array.unsafe_get pay j)

let fi_swap key pay i j =
  let tk = Fvec.unsafe_get key i and tp = Array.unsafe_get pay i in
  Fvec.unsafe_set key i (Fvec.unsafe_get key j);
  Array.unsafe_set pay i (Array.unsafe_get pay j);
  Fvec.unsafe_set key j tk;
  Array.unsafe_set pay j tp

let fi_insertion key pay lo hi =
  for i = lo + 1 to hi do
    let kv = Fvec.unsafe_get key i and pv = Array.unsafe_get pay i in
    let j = ref (i - 1) in
    while
      !j >= lo
      &&
      let kj = Fvec.unsafe_get key !j in
      kj > kv || (kj = kv && Array.unsafe_get pay !j > pv)
    do
      Fvec.unsafe_set key (!j + 1) (Fvec.unsafe_get key !j);
      Array.unsafe_set pay (!j + 1) (Array.unsafe_get pay !j);
      decr j
    done;
    Fvec.unsafe_set key (!j + 1) kv;
    Array.unsafe_set pay (!j + 1) pv
  done

let fi_sift_down key pay lo root len =
  let i = ref root in
  let live = ref true in
  while !live do
    let l = (2 * !i) + 1 in
    if l >= len then live := false
    else begin
      let m = ref l in
      if l + 1 < len && fi_less_ij key pay (lo + l) (lo + l + 1) then
        m := l + 1;
      if fi_less_ij key pay (lo + !i) (lo + !m) then begin
        fi_swap key pay (lo + !i) (lo + !m);
        i := !m
      end
      else live := false
    end
  done

let fi_heapsort key pay lo hi =
  let len = hi - lo + 1 in
  for root = (len / 2) - 1 downto 0 do
    fi_sift_down key pay lo root len
  done;
  for last = len - 1 downto 1 do
    fi_swap key pay lo (lo + last);
    fi_sift_down key pay lo 0 last
  done

let fi_partition key pay lo hi =
  let mid = lo + ((hi - lo) / 2) in
  if fi_less_ij key pay mid lo then fi_swap key pay mid lo;
  if fi_less_ij key pay hi lo then fi_swap key pay hi lo;
  if fi_less_ij key pay hi mid then fi_swap key pay hi mid;
  let pk = Fvec.unsafe_get key mid and pp = Array.unsafe_get pay mid in
  let i = ref (lo - 1) and j = ref (hi + 1) in
  let res = ref 0 in
  let live = ref true in
  while !live do
    incr i;
    while
      let ki = Fvec.unsafe_get key !i in
      ki < pk || (ki = pk && Array.unsafe_get pay !i < pp)
    do
      incr i
    done;
    decr j;
    while
      let kj = Fvec.unsafe_get key !j in
      kj > pk || (kj = pk && Array.unsafe_get pay !j > pp)
    do
      decr j
    done;
    if !i >= !j then begin
      res := !j;
      live := false
    end
    else fi_swap key pay !i !j
  done;
  !res

let rec fi_intro key pay lo hi depth =
  if hi - lo + 1 <= small then begin
    if hi > lo then fi_insertion key pay lo hi
  end
  else if depth = 0 then fi_heapsort key pay lo hi
  else begin
    let j = fi_partition key pay lo hi in
    fi_intro key pay lo j (depth - 1);
    fi_intro key pay (j + 1) hi (depth - 1)
  end

let intro_fi key pay n =
  if n > 1 then fi_intro key pay 0 (n - 1) (depth_budget n)

(* ---------- LSD radix sort on mapped float bits ------------------- *)
(* A float's bit pattern, sign bit flipped for non-negatives and all
   bits flipped for negatives, orders as an unsigned integer exactly
   like the float orders under [<] — the classic monotone mapping. We
   split the mapped 64-bit word into two 32-bit halves kept in plain
   [int] arrays (Int64 locals below stay unboxed: every use is an
   unboxing primitive), canonicalize -0.0 to +0.0 first ([x +. 0.0]) so
   the mapping agrees with float comparison on zeros, and run a stable
   byte-wise LSD counting sort over the composite
   (key hi, key lo, payload hi, payload lo) — least significant digit
   first, so 16 passes of 8 bits, each skipped outright when the
   histogram shows the digit is constant. The sort permutes an index
   array, not the data; one final gather materializes the order.

   Because an element IS its (key, payload) pair, sorting by the
   composite reproduces the introsort's output arrays bit for bit: ties
   under float comparison are broken by payload in the documented
   direction (payload halves are complemented for the descending [ff]
   convention), and fully-equal pairs are interchangeable. *)

type radix_scratch = {
  mutable khi : int array;
  mutable klo : int array;
  mutable phi : int array;
  mutable plo : int array;
  mutable idx : int array;
  mutable idx2 : int array;
  mutable fscr : Fvec.t;  (* gather scratch for the float columns *)
  mutable hist : int array;
      (* 16 digit positions x 256 counts ([radix_passes]); grown to
         6 x 2048 by the first [radix_order] *)
}

let radix_lend =
  Lend.make (fun () ->
      {
        khi = [||];
        klo = [||];
        phi = [||];
        plo = [||];
        idx = [||];
        idx2 = [||];
        fscr = Fvec.create 0;
        hist = Array.make (16 * 256) 0;
      })

let radix_cap n =
  let cap = ref 512 in
  while !cap < n do
    cap := !cap * 2
  done;
  !cap

(* Every column grows by its own length. [order] needs only the key
   columns and one permutation, so a process that only orders keys
   holds no payload scratch; and the tandem passes swap [idx] with
   [idx2], so neither keeps the length it was made with. *)
let grown a n = if Array.length a < n then Array.make (radix_cap n) 0 else a

let ensure_keys sc n =
  sc.khi <- grown sc.khi n;
  sc.klo <- grown sc.klo n;
  sc.idx <- grown sc.idx n

let ensure_gather sc n =
  if Fvec.length sc.fscr < n then sc.fscr <- Fvec.create (radix_cap n)

let radix_ensure sc n =
  ensure_keys sc n;
  ensure_gather sc n;
  sc.phi <- grown sc.phi n;
  sc.plo <- grown sc.plo n;
  sc.idx2 <- grown sc.idx2 n

let mask32 = 0xFFFF_FFFF

(* The 16 stable counting-sort passes over the permutation in [sc.idx],
   least-significant composite byte first: payload lo, payload hi, key
   lo, key hi. On return [sc.idx] holds the sorting permutation. *)
let radix_passes sc n =
  let khi = sc.khi and klo = sc.klo and phi = sc.phi and plo = sc.plo in
  let hist = sc.hist in
  Array.fill hist 0 (16 * 256) 0;
  for i = 0 to n - 1 do
    let v = Array.unsafe_get plo i in
    let h0 = v land 0xff in
    let h1 = (v lsr 8) land 0xff in
    let h2 = (v lsr 16) land 0xff in
    let h3 = (v lsr 24) land 0xff in
    Array.unsafe_set hist h0 (Array.unsafe_get hist h0 + 1);
    Array.unsafe_set hist (256 + h1) (Array.unsafe_get hist (256 + h1) + 1);
    Array.unsafe_set hist (512 + h2) (Array.unsafe_get hist (512 + h2) + 1);
    Array.unsafe_set hist (768 + h3) (Array.unsafe_get hist (768 + h3) + 1);
    let v = Array.unsafe_get phi i in
    for b = 0 to 3 do
      let d = (1024 + (b * 256)) + ((v lsr (b * 8)) land 0xff) in
      Array.unsafe_set hist d (Array.unsafe_get hist d + 1)
    done;
    let v = Array.unsafe_get klo i in
    for b = 0 to 3 do
      let d = (2048 + (b * 256)) + ((v lsr (b * 8)) land 0xff) in
      Array.unsafe_set hist d (Array.unsafe_get hist d + 1)
    done;
    let v = Array.unsafe_get khi i in
    for b = 0 to 3 do
      let d = (3072 + (b * 256)) + ((v lsr (b * 8)) land 0xff) in
      Array.unsafe_set hist d (Array.unsafe_get hist d + 1)
    done
  done;
  let src = ref sc.idx and dst = ref sc.idx2 in
  for i = 0 to n - 1 do
    Array.unsafe_set !src i i
  done;
  for p = 0 to 15 do
    let arr =
      match p lsr 2 with 0 -> plo | 1 -> phi | 2 -> klo | _ -> khi
    in
    let shift = (p land 3) * 8 in
    let base = p * 256 in
    (* constant digit => pass is the identity; skip it *)
    let d0 = (Array.unsafe_get arr 0 lsr shift) land 0xff in
    if Array.unsafe_get hist (base + d0) < n then begin
      let sum = ref 0 in
      for d = 0 to 255 do
        let c = Array.unsafe_get hist (base + d) in
        Array.unsafe_set hist (base + d) !sum;
        sum := !sum + c
      done;
      let s = !src and t = !dst in
      for i = 0 to n - 1 do
        let e = Array.unsafe_get s i in
        let d = base + ((Array.unsafe_get arr e lsr shift) land 0xff) in
        Array.unsafe_set t (Array.unsafe_get hist d) e;
        Array.unsafe_set hist d (Array.unsafe_get hist d + 1)
      done;
      src := t;
      dst := s
    end
  done;
  if !src != sc.idx then begin
    sc.idx2 <- sc.idx;
    sc.idx <- !src
  end

(* The monotone float mapping is written out inline in both entry
   loops rather than shared through a helper: the backend does not
   reliably inline a helper here, and a real call per element boxes the
   float argument — while the [Int64] locals below stay unboxed only
   because every use is itself an unboxing primitive. The mapping:
   canonicalize -0.0 to +0.0 ([x +. 0.0]), take the IEEE bits, split
   into 32-bit halves held in native ints, then flip the sign bit (for
   non-negatives) or all bits (for negatives) so unsigned half-order is
   the float order; [lxor mask32] on top inverts a half for the
   descending payload convention. *)
let radix_ff_on sc key pay n =
  radix_ensure sc n;
  let khi = sc.khi and klo = sc.klo and phi = sc.phi and plo = sc.plo in
  for i = 0 to n - 1 do
    let b = Int64.bits_of_float (Fvec.unsafe_get key i +. 0.0) in
    let hi = Int64.to_int (Int64.shift_right_logical b 32) in
    let lo = Int64.to_int (Int64.logand b 0xFFFF_FFFFL) in
    let s = -(hi lsr 31) land mask32 in
    Array.unsafe_set khi i (hi lxor (s lor 0x8000_0000));
    Array.unsafe_set klo i (lo lxor s);
    let b = Int64.bits_of_float (Fvec.unsafe_get pay i +. 0.0) in
    let hi = Int64.to_int (Int64.shift_right_logical b 32) in
    let lo = Int64.to_int (Int64.logand b 0xFFFF_FFFFL) in
    let s = -(hi lsr 31) land mask32 in
    Array.unsafe_set phi i (hi lxor (s lor 0x8000_0000) lxor mask32);
    Array.unsafe_set plo i (lo lxor s lxor mask32)
  done;
  radix_passes sc n;
  let idx = sc.idx and fscr = sc.fscr in
  for i = 0 to n - 1 do
    Fvec.unsafe_set fscr i (Fvec.unsafe_get key (Array.unsafe_get idx i))
  done;
  Fvec.blit ~src:fscr ~src_pos:0 ~dst:key ~dst_pos:0 ~len:n;
  for i = 0 to n - 1 do
    Fvec.unsafe_set fscr i (Fvec.unsafe_get pay (Array.unsafe_get idx i))
  done;
  Fvec.blit ~src:fscr ~src_pos:0 ~dst:pay ~dst_pos:0 ~len:n

let radix_fi_on sc key pay n =
  radix_ensure sc n;
  let khi = sc.khi and klo = sc.klo and phi = sc.phi and plo = sc.plo in
  for i = 0 to n - 1 do
    let b = Int64.bits_of_float (Fvec.unsafe_get key i +. 0.0) in
    let hi = Int64.to_int (Int64.shift_right_logical b 32) in
    let lo = Int64.to_int (Int64.logand b 0xFFFF_FFFFL) in
    let s = -(hi lsr 31) land mask32 in
    Array.unsafe_set khi i (hi lxor (s lor 0x8000_0000));
    Array.unsafe_set klo i (lo lxor s);
    (* int payload, ascending: flip the sign bit so unsigned
       half-order matches signed order *)
    let m = Array.unsafe_get pay i lxor min_int in
    Array.unsafe_set plo i (m land mask32);
    Array.unsafe_set phi i ((m lsr 32) land mask32)
  done;
  radix_passes sc n;
  let idx = sc.idx and fscr = sc.fscr and iscr = sc.idx2 in
  for i = 0 to n - 1 do
    Fvec.unsafe_set fscr i (Fvec.unsafe_get key (Array.unsafe_get idx i));
    Array.unsafe_set iscr i (Array.unsafe_get pay i)
  done;
  Fvec.blit ~src:fscr ~src_pos:0 ~dst:key ~dst_pos:0 ~len:n;
  for i = 0 to n - 1 do
    Array.unsafe_set pay i (Array.unsafe_get iscr (Array.unsafe_get idx i))
  done

(* The scratch is lent for one sort: a thread switch inside the passes
   must not let another sort of this domain swap [idx]/[idx2] under us,
   or the unchecked gathers would index past the arrays. *)
let radix_ff key pay n =
  if n > 1 then begin
    let sc = Lend.take radix_lend in
    match radix_ff_on sc key pay n with
    | () -> Lend.give radix_lend sc
    | exception e ->
        Lend.give radix_lend sc;
        raise e
  end

let radix_fi key pay n =
  if n > 1 then begin
    let sc = Lend.take radix_lend in
    match radix_fi_on sc key pay n with
    | () -> Lend.give radix_lend sc
    | exception e ->
        Lend.give radix_lend sc;
        raise e
  end

let radix_threshold = 512

(* ---------- order: stable key-only permutation -------------------- *)
(* The order of a key column alone: a stable LSD radix over the mapped
   key (the same monotone map as above) that starts from the identity
   permutation, so equal keys keep ascending index — exactly the
   payload [intro_fi] leaves when its payload is the identity, and no
   payload digits to sort. Six digits of at most 11 bits, three per
   32-bit half (11, 11, 10 bits), so no digit straddles the halves;
   constant digits are skipped. Below [radix_threshold] the introsort
   runs on a copy of the keys. *)

let radix_order sc key n perm =
  if Array.length sc.hist < 6 * 2048 then sc.hist <- Array.make (6 * 2048) 0;
  let khi = sc.khi and klo = sc.klo and hist = sc.hist in
  Array.fill hist 0 (6 * 2048) 0;
  for i = 0 to n - 1 do
    let b = Int64.bits_of_float (Fvec.unsafe_get key i +. 0.0) in
    let hi = Int64.to_int (Int64.shift_right_logical b 32) in
    let lo = Int64.to_int (Int64.logand b 0xFFFF_FFFFL) in
    let s = -(hi lsr 31) land mask32 in
    let hi = hi lxor (s lor 0x8000_0000) and lo = lo lxor s in
    Array.unsafe_set khi i hi;
    Array.unsafe_set klo i lo;
    Array.unsafe_set perm i i;
    let d = lo land 0x7ff in
    Array.unsafe_set hist d (Array.unsafe_get hist d + 1);
    let d = 2048 + ((lo lsr 11) land 0x7ff) in
    Array.unsafe_set hist d (Array.unsafe_get hist d + 1);
    let d = 4096 + (lo lsr 22) in
    Array.unsafe_set hist d (Array.unsafe_get hist d + 1);
    let d = 6144 + (hi land 0x7ff) in
    Array.unsafe_set hist d (Array.unsafe_get hist d + 1);
    let d = 8192 + ((hi lsr 11) land 0x7ff) in
    Array.unsafe_set hist d (Array.unsafe_get hist d + 1);
    let d = 10240 + (hi lsr 22) in
    Array.unsafe_set hist d (Array.unsafe_get hist d + 1)
  done;
  let src = ref perm and dst = ref sc.idx in
  for p = 0 to 5 do
    let arr = if p < 3 then klo else khi in
    let shift = 11 * (p mod 3) in
    let base = 2048 * p in
    let d0 = (Array.unsafe_get arr 0 lsr shift) land 0x7ff in
    if Array.unsafe_get hist (base + d0) < n then begin
      let sum = ref 0 in
      for d = base to base + 2047 do
        let c = Array.unsafe_get hist d in
        Array.unsafe_set hist d !sum;
        sum := !sum + c
      done;
      let s = !src and t = !dst in
      for i = 0 to n - 1 do
        let e = Array.unsafe_get s i in
        let d = base + ((Array.unsafe_get arr e lsr shift) land 0x7ff) in
        Array.unsafe_set t (Array.unsafe_get hist d) e;
        Array.unsafe_set hist d (Array.unsafe_get hist d + 1)
      done;
      src := t;
      dst := s
    end
  done;
  if !src != perm then Array.blit !src 0 perm 0 n

let order_on sc key n perm =
  if n >= radix_threshold then begin
    ensure_keys sc n;
    radix_order sc key n perm
  end
  else begin
    ensure_gather sc n;
    let keys = sc.fscr in
    for i = 0 to n - 1 do
      Fvec.unsafe_set keys i (Fvec.unsafe_get key i);
      Array.unsafe_set perm i i
    done;
    intro_fi keys perm n
  end

let order key n perm =
  if n < 0 || n > Fvec.length key || n > Array.length perm then
    invalid_arg "Kern.order";
  if n > 0 then begin
    let sc = Lend.take radix_lend in
    match order_on sc key n perm with
    | () -> Lend.give radix_lend sc
    | exception e ->
        Lend.give radix_lend sc;
        raise e
  end

let sort_ff key pay n =
  if n >= radix_threshold then radix_ff key pay n else intro_ff key pay n

let sort_fi key pay n =
  if n >= radix_threshold then radix_fi key pay n else intro_fi key pay n

(* ---------- growable scratch buffers ------------------------------ *)

module Fbuf = struct
  type t = { mutable data : Fvec.t; mutable len : int }

  let create cap = { data = Fvec.create (max cap 8); len = 0 }
  let clear b = b.len <- 0
  let length b = b.len

  (* A slot, not a push: a float passed to a function of another
     module is boxed, while the caller's store through the [Fvec]
     external is not. *)
  let reserve b =
    let k = b.len in
    let cap = Fvec.length b.data in
    if k = cap then begin
      let data = Fvec.create (2 * cap) in
      Fvec.blit ~src:b.data ~src_pos:0 ~dst:data ~dst_pos:0 ~len:k;
      b.data <- data
    end;
    b.len <- k + 1;
    k

  let get b i = Fvec.get b.data i
  let data b = b.data
end

module Ibuf = struct
  type t = { mutable data : int array; mutable len : int }

  let create cap = { data = Array.make (max cap 8) 0; len = 0 }
  let clear b = b.len <- 0
  let length b = b.len

  let push b x =
    let cap = Array.length b.data in
    if b.len = cap then begin
      let data = Array.make (2 * cap) 0 in
      Array.blit b.data 0 data 0 b.len;
      b.data <- data
    end;
    Array.unsafe_set b.data b.len x;
    b.len <- b.len + 1

  let get b i = b.data.(i)
  let data b = b.data
end
