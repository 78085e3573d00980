module Obs = Maxrs_obs.Obs
module Guard = Maxrs_resilience.Guard
module Fvec = Maxrs_geom.Fvec
module Interval1d = Maxrs_sweep.Interval1d

let c_builds = Obs.counter "rmsq.builds"
let c_queries = Obs.counter "rmsq.queries"
let g_bits = Obs.gauge "rmsq.bits_per_point"

(* Tree nodes hold indices into the prefix column, so int32 columns
   halve the footprint vs boxed ints and keep the whole tree out of the
   OCaml heap: a query never allocates and never moves under the GC. *)
type ivec = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let ivec len : ivec = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout len
let iget (a : ivec) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)
let iset (a : ivec) i v = Bigarray.Array1.unsafe_set a i (Int32.of_int v)

type t = {
  b : Interval1d.batched;  (** shared sorted columns; [b.prefix] is P *)
  size : int;  (** leaf slots: least power of two >= max 1 n *)
  t_min : ivec;  (** argmin of P(l), l in node's [a..b]; leftmost tie *)
  t_max : ivec;  (** argmax of P(r), r in node's [a+1..b+1]; leftmost *)
  t_bl : ivec;  (** best segment's left prefix index *)
  t_br : ivec;  (** best segment's right prefix index ([> t_bl]) *)
  compiled : (float * Interval1d.placement) array;
      (** fixed-length answers materialised at build time *)
}

type seg = { s_lo : int; s_hi : int; s_sum : float }

(* Node values are P(r) -. P(l); the total order for "best" is value
   descending, then P(r) descending, P(l) ascending, l ascending, r
   ascending — strict on distinct (l, r) pairs, so every merge/fold
   order yields the same segment, and the leftmost argmin/argmax
   shortcuts stay exact on rounding ties (DESIGN.md §13). *)
let better p l1 r1 l2 r2 =
  let pl1 = Fvec.unsafe_get p l1 and pr1 = Fvec.unsafe_get p r1 in
  let pl2 = Fvec.unsafe_get p l2 and pr2 = Fvec.unsafe_get p r2 in
  let v1 = pr1 -. pl1 and v2 = pr2 -. pl2 in
  v1 > v2
  || v1 = v2
     && (pr1 > pr2
        || pr1 = pr2
           && (pl1 < pl2 || (pl1 = pl2 && (l1 < l2 || (l1 = l2 && r1 < r2)))))

let of_batched ?(lens = [||]) (b : Interval1d.batched) =
  let n = b.n in
  let p = b.prefix in
  let size =
    let s = ref 1 in
    while !s < n do
      s := !s * 2
    done;
    !s
  in
  let nn = 2 * size in
  let t_min = ivec nn and t_max = ivec nn in
  let t_bl = ivec nn and t_br = ivec nn in
  (* Leaf for element k is segment [k..k] = prefix pair (k, k+1);
     padding leaves (k >= n) are -1 sentinels, neutral under merge.
     Because padding is a suffix, an internal node with a live right
     child always has a live left child. *)
  for k = 0 to size - 1 do
    let i = size + k in
    if k < n then begin
      iset t_min i k;
      iset t_max i (k + 1);
      iset t_bl i k;
      iset t_br i (k + 1)
    end
    else begin
      iset t_min i (-1);
      iset t_max i (-1);
      iset t_bl i (-1);
      iset t_br i (-1)
    end
  done;
  for i = size - 1 downto 1 do
    let a = 2 * i and c = (2 * i) + 1 in
    if iget t_min c < 0 then begin
      iset t_min i (iget t_min a);
      iset t_max i (iget t_max a);
      iset t_bl i (iget t_bl a);
      iset t_br i (iget t_br a)
    end
    else begin
      let amin = iget t_min a and cmin = iget t_min c in
      let amax = iget t_max a and cmax = iget t_max c in
      iset t_min i
        (if Fvec.unsafe_get p cmin < Fvec.unsafe_get p amin then cmin else amin);
      iset t_max i
        (if Fvec.unsafe_get p cmax > Fvec.unsafe_get p amax then cmax else amax);
      (* best of: left best, right best, the spanning pair. The
         spanning candidate (left argmin, right argmax) is exactly the
         lex-best spanning segment, so the merge loses nothing. *)
      let bl = ref (iget t_bl a) and br = ref (iget t_br a) in
      if better p (iget t_bl c) (iget t_br c) !bl !br then begin
        bl := iget t_bl c;
        br := iget t_br c
      end;
      if better p amin cmax !bl !br then begin
        bl := amin;
        br := cmax
      end;
      iset t_bl i !bl;
      iset t_br i !br
    end
  done;
  let compiled =
    Array.map (fun len -> (len, Interval1d.query b ~len)) lens
  in
  let t = { b; size; t_min; t_max; t_bl; t_br; compiled } in
  Obs.incr c_builds;
  t

let build ?lens pts = of_batched ?lens (Interval1d.preprocess pts)

let build_checked ?(lens = [||]) pts =
  let open Guard in
  let* () =
    each ~field:"lens"
      (fun l ->
        if Float.is_finite l && l >= 0. then None
        else Some (Printf.sprintf "length must be finite and >= 0, got %g" l))
      lens
  in
  let* () = pairs_1d ~field:"points" pts in
  Ok (build ~lens pts)

let project_state (st : Maxrs.Dynamic.State.t) =
  let open Maxrs.Dynamic in
  Array.of_list
    (List.map
       (fun (_, (c, w)) -> (c.(0) *. st.State.radius, w))
       st.State.balls)

let of_state ?lens st = build ?lens (project_state st)

let n t = t.b.Interval1d.n
let coord t i = Fvec.get t.b.Interval1d.xs i
let weight t i = Fvec.get t.b.Interval1d.ws i
let lens t = Array.map fst t.compiled

let seg_of p bl br =
  { s_lo = bl; s_hi = br - 1; s_sum = Fvec.get p br -. Fvec.get p bl }

let top_segment t =
  Obs.incr c_queries;
  if n t = 0 then None
  else Some (seg_of t.b.Interval1d.prefix (iget t.t_bl 1) (iget t.t_br 1))

let clamp t ~lo ~hi =
  let lo = if lo < 0 then 0 else lo in
  let hi = if hi > n t - 1 then n t - 1 else hi in
  (lo, hi)

let max_sum_in_range t ~lo ~hi =
  Obs.incr c_queries;
  let lo, hi = clamp t ~lo ~hi in
  if lo > hi then None
  else begin
    let p = t.b.Interval1d.prefix in
    (* Fold the canonical decomposition left to right, carrying the
       leftmost argmin of P over the processed prefix plus the best
       segment so far; each node contributes its own best and the
       spanning candidate (carried argmin, node argmax). *)
    let minl = ref (-1) and bl = ref (-1) and br = ref (-1) in
    let absorb node =
      let nmin = iget t.t_min node in
      if nmin >= 0 then begin
        let nmax = iget t.t_max node in
        let nbl = iget t.t_bl node and nbr = iget t.t_br node in
        if !bl < 0 || better p nbl nbr !bl !br then begin
          bl := nbl;
          br := nbr
        end;
        if !minl >= 0 && better p !minl nmax !bl !br then begin
          bl := !minl;
          br := nmax
        end;
        if !minl < 0 || Fvec.unsafe_get p nmin < Fvec.unsafe_get p !minl then
          minl := nmin
      end
    in
    let rec go node a b =
      if lo <= a && b <= hi then absorb node
      else begin
        let m = (a + b) / 2 in
        if lo <= m then go (2 * node) a m;
        if hi > m then go ((2 * node) + 1) (m + 1) b
      end
    in
    go 1 0 (t.size - 1);
    Some (seg_of p !bl !br)
  end

(* Linear scan maximising the same P(r) -. P(l) under the same order:
   for each r the only viable l is the leftmost argmin of P over
   [lo..r-1], so the lex-best pair is always enumerated. *)
let scan_prefix p ~lo ~hi =
  let minl = ref lo and bl = ref lo and br = ref (lo + 1) in
  for r = lo + 2 to hi + 1 do
    let l = r - 1 in
    if Fvec.unsafe_get p l < Fvec.unsafe_get p !minl then minl := l;
    if better p !minl r !bl !br then begin
      bl := !minl;
      br := r
    end
  done;
  seg_of p !bl !br

let range_ref t ~lo ~hi =
  let lo, hi = clamp t ~lo ~hi in
  if lo > hi then None else Some (scan_prefix t.b.Interval1d.prefix ~lo ~hi)

(* Leftmost i with xs.(i) >= v, in [0..n] (n = none). *)
let lower_bound xs n v =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let m = (!lo + !hi) / 2 in
    if Fvec.unsafe_get xs m >= v then hi := m else lo := m + 1
  done;
  !lo

(* Leftmost i with xs.(i) > v. *)
let upper_bound xs n v =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let m = (!lo + !hi) / 2 in
    if Fvec.unsafe_get xs m > v then hi := m else lo := m + 1
  done;
  !lo

let scan_coords (b : Interval1d.batched) ~lo ~hi =
  let i = lower_bound b.xs b.n lo in
  let j = upper_bound b.xs b.n hi - 1 in
  if i > j then None else Some (scan_prefix b.prefix ~lo:i ~hi:j)

let max_sum_in_coords t ~lo ~hi =
  let xs = t.b.Interval1d.xs and nn = n t in
  let i = lower_bound xs nn lo in
  let j = upper_bound xs nn hi - 1 in
  if i > j then begin
    Obs.incr c_queries;
    None
  end
  else max_sum_in_range t ~lo:i ~hi:j

let interval t ~len =
  Obs.incr c_queries;
  let rec find i =
    if i >= Array.length t.compiled then None
    else
      let l, pl = t.compiled.(i) in
      if l = len then Some pl else find (i + 1)
  in
  find 0

let interval_sweep t ~len = Interval1d.query t.b ~len

let size_bytes t =
  let fvec v = 8 * Fvec.length v in
  let tree = 4 * (4 * (2 * t.size)) in
  let cols =
    fvec t.b.Interval1d.xs + fvec t.b.Interval1d.ws + fvec t.b.Interval1d.prefix
  in
  (* compiled table: len + placement's two floats, all boxed-free sizes *)
  tree + cols + (24 * Array.length t.compiled)

let bits_per_point t =
  let bpp = 8. *. float_of_int (size_bytes t) /. float_of_int (max 1 (n t)) in
  Obs.set_gauge g_bits (int_of_float (Float.round bpp));
  bpp
