let two_pi = 2. *. Float.pi

let[@inline] norm a =
  let r = Float.rem a two_pi in
  if r < 0. then r +. two_pi else r

type ivl = { start : float; len : float }

let ivl a b =
  let a = norm a in
  { start = a; len = norm (b -. a) }

let full = { start = 0.; len = two_pi }
let is_full i = i.len >= two_pi -. Closed.angle_eps

let mem i theta =
  let t = norm theta in
  let off = norm (t -. i.start) in
  off <= i.len +. Closed.angle_eps

let midpoint i = norm (i.start +. (i.len /. 2.))
let endpoints i = (i.start, norm (i.start +. i.len))

(* Cut every (possibly wrapping) span into non-wrapping [a, b] pieces with
   0 <= a <= b <= 2pi held in two tandem float columns, then sort the
   columns in place and merge front-to-back within the same storage. The
   merged sequence is independent of the order of equal-start pieces
   (each one extends the open piece to the max end), so the in-place
   tandem sort reproduces the old [List.sort]-of-pairs result without
   consing a pair per piece. [cut_spans], [merge_pieces] and
   [complement_into] run on caller-owned columns and pass no float
   across a call, so a sweep that calls [complement_into] from another
   module allocates nothing. *)

(* Cuts the [n] spans (start, len) of [s], [l] into pieces in [a], [b];
   returns the piece count (at most [2n]). *)
let cut_spans s l n a b =
  let k = ref 0 in
  for i = 0 to n - 1 do
    let start = Fvec.get s i and len = Fvec.get l i in
    if len > 0. then begin
      let e = start +. len in
      if e <= two_pi then begin
        Fvec.set a !k start;
        Fvec.set b !k e;
        incr k
      end
      else begin
        Fvec.set a !k start;
        Fvec.set b !k two_pi;
        Fvec.set a (!k + 1) 0.;
        Fvec.set b (!k + 1) (e -. two_pi);
        k := !k + 2
      end
    end
  done;
  !k

(* Sort by start and merge overlapping pieces in place; returns the
   merged piece count (pieces live in the column prefixes). Writes trail
   reads ([m - 1 < i] throughout), so the merge reuses the columns. *)
let merge_pieces a b count =
  if count = 0 then 0
  else begin
    Kern.sort_ff a b count;
    let m = ref 0 in
    for i = 0 to count - 1 do
      let ai = Fvec.get a i and bi = Fvec.get b i in
      if !m > 0 && ai <= Fvec.get b (!m - 1) +. Closed.angle_eps then begin
        (* [Float.max], which a call would box: ends are finite and
           positive, so the plain comparison returns the same float. *)
        if bi > Fvec.get b (!m - 1) then Fvec.set b (!m - 1) bi
      end
      else begin
        Fvec.set a !m ai;
        Fvec.set b !m bi;
        incr m
      end
    done;
    !m
  end

let complement_into s l n a b =
  let full = ref false in
  for i = 0 to n - 1 do
    if Fvec.get l i >= two_pi -. Closed.angle_eps then full := true
  done;
  if !full then 0
  else begin
    let m = merge_pieces a b (cut_spans s l n a b) in
    if m = 0 then begin
      Fvec.set a 0 0.;
      Fvec.set b 0 two_pi;
      1
    end
    else begin
      (* Gaps between consecutive covered pieces, plus the wrap-around gap
         from the last piece's end back to the first piece's start. Gap
         [i] reads slots [i] and [i + 1] and is written to a slot [<= i],
         so the gaps overwrite the pieces in place. *)
      let tol = Closed.angle_eps in
      let first_a = Fvec.get a 0 and b_last = Fvec.get b (m - 1) in
      let k = ref 0 in
      for i = 0 to m - 2 do
        let b_i = Fvec.get b i and a' = Fvec.get a (i + 1) in
        if a' -. b_i > tol then begin
          Fvec.set a !k b_i;
          Fvec.set b !k (a' -. b_i);
          incr k
        end
      done;
      let wrap_len = norm (first_a -. b_last) in
      if wrap_len > tol then begin
        Fvec.set a !k (norm b_last);
        Fvec.set b !k wrap_len;
        incr k
      end;
      !k
    end
  end

(* The list entries stage their spans in fresh columns. *)
let columns ivls =
  let n = List.length ivls in
  let s = Fvec.create n and l = Fvec.create n in
  List.iteri
    (fun i iv ->
      Fvec.set s i iv.start;
      Fvec.set l i iv.len)
    ivls;
  (s, l, n, Fvec.create ((2 * n) + 1), Fvec.create ((2 * n) + 1))

let total_length ivls =
  if List.exists is_full ivls then two_pi
  else begin
    let s, l, n, a, b = columns ivls in
    let m = merge_pieces a b (cut_spans s l n a b) in
    let acc = ref 0. in
    for i = 0 to m - 1 do
      acc := !acc +. (Fvec.get b i -. Fvec.get a i)
    done;
    !acc
  end

let complement ivls =
  let s, l, n, a, b = columns ivls in
  List.init (complement_into s l n a b) (fun i ->
      { start = Fvec.get a i; len = Fvec.get b i })

let covers_circle ivls = total_length ivls >= two_pi -. Closed.angle_eps
