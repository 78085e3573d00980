module Obs = Maxrs_obs.Obs
module Parallel = Maxrs_parallel.Parallel
module Guard = Maxrs_resilience.Guard
module Kern = Maxrs_geom.Kern
module Fvec = Maxrs_geom.Fvec
module Lend = Maxrs_geom.Lend

(* Each query merges two implicit streams of n endpoints each; the 2n
   events are recorded in one [add] per query (not per event) to keep
   the per-event loop free of instrumentation. *)
let c_queries = Obs.counter "sweep.interval1d.queries"
let c_events = Obs.counter "sweep.interval1d.events"

type placement = { lo : float; value : float }

(* A point at coordinate [x] with weight [w] is covered by the closed
   interval [a, a + len] iff a lies in [x - len, x]. So 1-D MaxRS is the
   max weighted overlap of the n "left-endpoint intervals" [x - len, x].
   Sweep their endpoints left to right; at equal coordinates process
   starts before ends (both endpoints are inclusive). *)

type batched = { xs : Fvec.t; ws : Fvec.t; prefix : Fvec.t; n : int }

(* Per-domain sort scratch, lent to one solve at a time ([Lend]): the
   pairs gathered in input order and their order, and a single query's
   sorted columns, which [preprocess] never needs (it sorts into columns
   of its own). Each group is grown, never shrunk. *)
type scratch = {
  mutable xin : Fvec.t;
  mutable win : Fvec.t;
  mutable perm : int array;
  mutable xs : Fvec.t;
  mutable ws : Fvec.t;
}

let scratch =
  Lend.make (fun () ->
      {
        xin = Fvec.create 0;
        win = Fvec.create 0;
        perm = [||];
        xs = Fvec.create 0;
        ws = Fvec.create 0;
      })

let cap n =
  let c = ref 256 in
  while !c < n do
    c := 2 * !c
  done;
  !c

let ensure sc n =
  if Array.length sc.perm < n then begin
    let c = cap n in
    sc.xin <- Fvec.create c;
    sc.win <- Fvec.create c;
    sc.perm <- Array.make c 0
  end

let ensure_cols sc n =
  if Fvec.length sc.xs < n then begin
    let c = cap n in
    sc.xs <- Fvec.create c;
    sc.ws <- Fvec.create c
  end

(* The one sorting routine. One sequential pass validates the pairs and
   gathers them in input order; [Kern.order] orders the coordinates
   by (coordinate, input index); one permuting pass writes [xs]/[ws].
   Returns the index of the first non-finite pair, whose error
   [Guard.pairs_1d] reports, or -1 once [xs]/[ws] hold the sorted
   columns. The query sweep only ever folds whole groups of equal
   coordinates, so any stable tie order is as good as another. The
   scratch must already hold [Array.length pts] slots. *)
let sort_into sc pts ~xs ~ws =
  let n = Array.length pts in
  let xin = sc.xin and win = sc.win in
  let bad = ref (-1) and i = ref 0 in
  while !i < n do
    let x, w = Array.unsafe_get pts !i in
    if x -. x = 0. && w -. w = 0. then begin
      Fvec.unsafe_set xin !i x;
      Fvec.unsafe_set win !i w;
      incr i
    end
    else begin
      bad := !i;
      i := n
    end
  done;
  if !bad < 0 then begin
    let perm = sc.perm in
    Kern.order xin n perm;
    for i = 0 to n - 1 do
      let j = Array.unsafe_get perm i in
      Fvec.unsafe_set xs i (Fvec.unsafe_get xin j);
      Fvec.unsafe_set ws i (Fvec.unsafe_get win j)
    done
  end;
  !bad

let non_finite fn = invalid_arg (fn ^ ": non-finite coordinate or weight")

(* Columns the caller keeps ([batched], the RMSQ read tier, which
   compiles these very columns and [prefix] into an index): no boxed
   pair array survives preprocessing. *)
let preprocess pts =
  let n = Array.length pts in
  let xs = Fvec.create n and ws = Fvec.create n in
  if
    Lend.with_ scratch (fun sc ->
        ensure sc n;
        sort_into sc pts ~xs ~ws)
    >= 0
  then
    non_finite "Interval1d.preprocess";
  let prefix = Fvec.create (n + 1) in
  Fvec.unsafe_set prefix 0 0.;
  for i = 0 to n - 1 do
    Fvec.unsafe_set prefix (i + 1)
      (Fvec.unsafe_get prefix i +. Fvec.unsafe_get ws i)
  done;
  { xs; ws; prefix; n }

(* Allocation-free core of [query] over sorted coordinate/weight
   columns. The two event streams are peeked with an [infinity] sentinel
   for an exhausted stream — [Float.min v infinity = v] for the finite
   coordinates the guards admit, so the merge order is exactly the old
   option-based peek's; exhaustion itself is decided by the indices, not
   the sentinel. *)
let query_cols xs ws n ~len =
  assert (len >= 0.);
  if n = 0 then { lo = 0.; value = 0. }
  else begin
    Obs.incr c_queries;
    Obs.add c_events (2 * n);
    (* Two implicitly sorted event streams over the left endpoint [a]:
       starts: point i enters the window at a = x_i - len;
       ends:   point i leaves the window just after a = x_i.
       Ties go to starts (closed interval). Because weights may be
       negative (the Section 5 guard points), the max can be attained
       both right after a start group and right after an end group, so we
       evaluate after each group. After an end at coordinate c the
       witness placement is any a in the open gap (c, next event), hence
       the midpoint (or c + 1 past the last event). *)
    let si = ref 0 and ei = ref 0 in
    let active = ref 0. in
    let best = ref 0. and best_lo = ref (Fvec.get xs 0 -. len -. 1.) in
    while !si < n || !ei < n do
      let s = if !si < n then Fvec.unsafe_get xs !si -. len else infinity in
      let e = if !ei < n then Fvec.unsafe_get xs !ei else infinity in
      let c = Float.min s e in
      (* all starts at coordinate c *)
      while !si < n && Fvec.unsafe_get xs !si -. len <= c do
        active := !active +. Fvec.unsafe_get ws !si;
        incr si
      done;
      if !active > !best then begin
        best := !active;
        best_lo := c
      end;
      (* all ends at coordinate c *)
      let had_end = !ei < n && Fvec.unsafe_get xs !ei <= c in
      while !ei < n && Fvec.unsafe_get xs !ei <= c do
        active := !active -. Fvec.unsafe_get ws !ei;
        incr ei
      done;
      if had_end && !active > !best then begin
        best := !active;
        best_lo :=
          (if !si >= n && !ei >= n then c +. 1.
           else
             let s =
               if !si < n then Fvec.unsafe_get xs !si -. len else infinity
             in
             let e = if !ei < n then Fvec.unsafe_get xs !ei else infinity in
             (c +. Float.min s e) /. 2.)
      end
    done;
    { lo = !best_lo; value = !best }
  end

let query (b : batched) ~len = query_cols b.xs b.ws b.n ~len

(* A single query sorts into the lent scratch's columns and sweeps them
   there: no prefix, nothing allocated but the answer. [None] when a
   pair is not finite. *)
let solve ~len pts =
  let n = Array.length pts in
  let sc = Lend.take scratch in
  match
    ensure sc n;
    ensure_cols sc n;
    if sort_into sc pts ~xs:sc.xs ~ws:sc.ws >= 0 then None
    else Some (query_cols sc.xs sc.ws n ~len)
  with
  | r ->
      Lend.give scratch sc;
      r
  | exception e ->
      Lend.give scratch sc;
      raise e

let max_sum ~len pts =
  match solve ~len pts with
  | Some p -> p
  | None -> non_finite "Interval1d.max_sum"

let max_sum_brute ~len pts =
  assert (len >= 0.);
  let n = Array.length pts in
  if n = 0 then { lo = 0.; value = 0. }
  else begin
    (* The objective is piecewise constant in the left endpoint, changing
       at a = x_j - len and just after a = x_j; with negative weights the
       optimum may lie strictly between events, so candidates include all
       event coordinates, the midpoints of consecutive events, and a
       point past the last event. *)
    let events =
      List.sort_uniq Float.compare
        (Array.to_list (Array.map (fun (x, _) -> x -. len) pts)
        @ Array.to_list (Array.map fst pts))
    in
    let rec mids = function
      | a :: (b :: _ as rest) -> ((a +. b) /. 2.) :: mids rest
      | [ last ] -> [ last +. 1. ]
      | [] -> []
    in
    let candidates = events @ mids events in
    let eval a =
      Array.fold_left
        (fun acc (x, w) -> if a <= x && x <= a +. len then acc +. w else acc)
        0. pts
    in
    List.fold_left
      (fun best a ->
        let v = eval a in
        if v > best.value then { lo = a; value = v } else best)
      { lo = fst pts.(0) -. len -. 1.; value = 0. }
      candidates
  end

let max_sum_checked ~len pts =
  let open Guard in
  let* () = non_negative ~field:"len" len in
  match solve ~len pts with
  | Some p -> Ok p
  | None -> (
      match pairs_1d ~field:"points" pts with
      | Error _ as e -> e
      | Ok () -> assert false (* [solve] met a non-finite pair *))

let batched ?domains ~lens pts =
  let b = preprocess pts in
  let m = Array.length lens in
  let n = Array.length pts in
  (* Each query costs O(n); below ~16k total work the queries are
     cheaper than spawning domains. *)
  let domains = if m < 2 || m * n < 16384 then 1 else Parallel.resolve domains in
  if domains = 1 then Array.map (fun len -> query b ~len) lens
  else
    (* The m queries are independent and only read the preprocessed
       columns; slot i always holds query i's answer. *)
    Parallel.with_pool ~domains (fun pool ->
        Parallel.map pool ~n:m (fun i -> query b ~len:lens.(i)))

let batched_checked ?domains ~lens pts =
  let open Guard in
  let* () =
    each ~field:"lens"
      (fun l ->
        if Float.is_finite l && l >= 0. then None
        else Some (Printf.sprintf "length must be finite and >= 0, got %g" l))
      lens
  in
  let* () = pairs_1d ~field:"points" pts in
  Ok (batched ?domains ~lens pts)
