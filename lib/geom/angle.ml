let two_pi = 2. *. Float.pi

let norm a =
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
   consing a pair per piece. *)

(* Fills fresh columns (starts, ends) and returns (starts, ends, count). *)
let flat_pieces ivls =
  let count =
    List.fold_left
      (fun acc i ->
        if i.len <= 0. then acc
        else if i.start +. i.len <= two_pi then acc + 1
        else acc + 2)
      0 ivls
  in
  let a = Fvec.create count and b = Fvec.create count in
  let k = ref 0 in
  List.iter
    (fun i ->
      if i.len > 0. then begin
        let s = i.start and e = i.start +. i.len in
        if e <= two_pi then begin
          Fvec.set a !k s;
          Fvec.set b !k e;
          incr k
        end
        else begin
          Fvec.set a !k s;
          Fvec.set b !k two_pi;
          incr k;
          Fvec.set a !k 0.;
          Fvec.set b !k (e -. two_pi);
          incr k
        end
      end)
    ivls;
  (a, b, count)

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
      if !m > 0 && ai <= Fvec.get b (!m - 1) +. Closed.angle_eps then
        Fvec.set b (!m - 1) (Float.max (Fvec.get b (!m - 1)) bi)
      else begin
        Fvec.set a !m ai;
        Fvec.set b !m bi;
        incr m
      end
    done;
    !m
  end

let total_length ivls =
  if List.exists is_full ivls then two_pi
  else begin
    let a, b, count = flat_pieces ivls in
    let m = merge_pieces a b count in
    let acc = ref 0. in
    for i = 0 to m - 1 do
      acc := !acc +. (Fvec.get b i -. Fvec.get a i)
    done;
    !acc
  end

let complement ivls =
  if List.exists is_full ivls then []
  else begin
    let a, b, count = flat_pieces ivls in
    let m = merge_pieces a b count in
    if m = 0 then [ full ]
    else begin
      (* Gaps between consecutive covered pieces, plus the wrap-around gap
         from the last piece's end back to the first piece's start. *)
      let tol = Closed.angle_eps in
      let first_a = Fvec.get a 0 in
      let acc = ref [] in
      for i = 0 to m - 2 do
        let b_i = Fvec.get b i and a' = Fvec.get a (i + 1) in
        if a' -. b_i > tol then
          acc := { start = b_i; len = a' -. b_i } :: !acc
      done;
      let b_last = Fvec.get b (m - 1) in
      let wrap = { start = norm b_last; len = norm (first_a -. b_last) } in
      let acc =
        if
          norm (first_a -. b_last) > tol
          || (b_last >= two_pi -. tol && first_a <= tol)
        then if wrap.len > tol then wrap :: !acc else !acc
        else !acc
      in
      List.rev acc
    end
  end

let covers_circle ivls = total_length ivls >= two_pi -. Closed.angle_eps
