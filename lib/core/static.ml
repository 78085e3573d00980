module Point = Maxrs_geom.Point
module Pstore = Maxrs_geom.Pstore
module Grid = Maxrs_geom.Grid
module Shifted_grids = Maxrs_geom.Shifted_grids
module Closed = Maxrs_geom.Closed
module Rng = Maxrs_geom.Rng
module Lend = Maxrs_geom.Lend
module Fvec = Maxrs_geom.Fvec
module Obs = Maxrs_obs.Obs
module Parallel = Maxrs_parallel.Parallel
module Guard = Maxrs_resilience.Guard
module FA = Float.Array
module BA1 = Bigarray.Array1

type result = { center : Point.t; value : float }

(* The sample space's counters: cells created, samples drawn, sample
   visits (one per sample per ball scanned against it). *)
let c_cells = Obs.counter "grid.cells"
let c_drawn = Obs.counter "samples.drawn"
let c_visited = Obs.counter "samples.visited"

(* Theorem 1.2 answers with the deepest circumsphere sample of a sample
   space holding every ball: the first maximum of the deepest cell,
   ties to the smallest cell uid ([Sample_space.best]). A sample's depth
   sums, in ball order, the weights of the balls that meet its cell and
   contain it. Each grid finds its own best by branch and bound, from
   the same layout and stream a sample space would use:

   - Phase 1 walks the balls in index order through the grid's cursor.
     A cell is created when a ball first meets it, in the order, with
     the uid and at the stream state the sample space would give it,
     and the stream skips its samples instead of drawing them. The cell
     records its bound [ub], the weights of the balls that meet it
     summed in ball order, and those balls.
   - Phase 2 evaluates the cell of largest bound, then, in creation
     order, every cell that can still win: a bound above the best depth
     so far, or equal to it with a smaller uid. Evaluating draws the
     cell's samples from its stamp and sums, per sample, the weights of
     its balls that contain it, in ball order, with the update loop's
     distance expression; the cell's first maximum (strict [>]) is its
     candidate.

   Weights are >= 0 and rounding is monotone, so a depth, the same sum
   over a subset of the balls, is at most its cell's bound: a cell that
   is not evaluated could not have won, and the answer is the sample
   space's, bit for bit. The grids' bests start at depth 0 with no cell,
   so a cell of depth 0 never wins, as a static solve reports no sample
   of depth 0. *)

(* One grid's cells as columns, and one cell's samples: lent per domain,
   grown and never shrunk. A ball meeting a cell is a link, and a cell's
   links chain in ball order. *)
type scratch = {
  mutable keys : int array;  (** [dim] per cell *)
  mutable stamps : Rng.states;  (** per cell: the stream state of its draw *)
  mutable ub : floatarray;  (** per cell: its balls' weights, summed *)
  mutable first : int array;  (** per cell: its first link *)
  mutable last : int array;  (** per cell: its last link *)
  mutable ball : int array;  (** per link: the ball *)
  mutable next : int array;  (** per link: the cell's next link, or -1 *)
  mutable index : int array;  (** key index: a cell per slot, or -1 *)
  mutable ibits : int;  (** the index uses [1 lsl ibits] slots *)
  rng : Rng.t;  (** the evaluated cell's stream *)
  mutable pos : floatarray;  (** the evaluated cell's samples *)
  mutable depth : floatarray;
}

let scratch =
  Lend.make (fun () ->
      {
        keys = [||];
        stamps = BA1.create Bigarray.Int64 Bigarray.c_layout 0;
        ub = FA.create 0;
        first = [||];
        last = [||];
        ball = [||];
        next = [||];
        index = [||];
        ibits = 0;
        rng = Rng.create 0;
        pos = FA.create 0;
        depth = FA.create 0;
      })

(* Room for [n] slots, the contents kept; doubled when short. *)
let room n len = Int.max n (2 * len)

let ints a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (room n (Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let floats a n =
  if FA.length a >= n then a
  else begin
    let b = FA.create (room n (FA.length a)) in
    FA.blit a 0 b 0 (FA.length a);
    b
  end

let grow_stamps (a : Rng.states) n : Rng.states =
  if BA1.dim a >= n then a
  else begin
    let b = BA1.create Bigarray.Int64 Bigarray.c_layout (room n (BA1.dim a)) in
    BA1.blit a (BA1.sub b 0 (BA1.dim a));
    b
  end

let ceil_log2 n =
  let rec go b = if 1 lsl b < n then go (b + 1) else b in
  go 0

(* The key index: open addressing, probed linearly from the top
   [ibits] bits of a 30-bit FNV-style hash of the key, at most half
   full. Cells are never removed. *)
let hash_at (ks : int array) off dim =
  let h = ref 0x811c9dc5 in
  for k = 0 to dim - 1 do
    h := (!h lxor Array.unsafe_get ks (off + k)) * 0x01000193
  done;
  (!h * 0x1E3779B97F4A7C15) lsr 33

let clear_index sc ibits =
  sc.ibits <- ibits;
  if Array.length sc.index < 1 lsl ibits then
    sc.index <- Array.make (1 lsl ibits) (-1)
  else Array.fill sc.index 0 (1 lsl ibits) (-1)

(* The slot holding the cell keyed [key] (hash [h]), or the empty slot
   where it belongs. *)
let find_slot sc ~dim (key : int array) h =
  let mask = (1 lsl sc.ibits) - 1 in
  let i = ref (h lsr (30 - sc.ibits)) in
  while
    let c = Array.unsafe_get sc.index !i in
    c >= 0
    &&
    let k = ref 0 in
    while
      !k < dim
      && Array.unsafe_get sc.keys ((c * dim) + !k) = Array.unsafe_get key !k
    do
      incr k
    done;
    !k < dim
  do
    i := (!i + 1) land mask
  done;
  !i

(* Double the index once more than half of it is used. *)
let maybe_grow_index sc ~dim ~cells =
  if 2 * cells > 1 lsl sc.ibits then begin
    clear_index sc (sc.ibits + 1);
    let mask = (1 lsl sc.ibits) - 1 in
    for c = 0 to cells - 1 do
      let i = ref (hash_at sc.keys (c * dim) dim lsr (30 - sc.ibits)) in
      while Array.unsafe_get sc.index !i >= 0 do
        i := (!i + 1) land mask
      done;
      Array.unsafe_set sc.index !i c
    done
  end

(* Create cell [c] at [key], standing at the stream's current state,
   and skip the stream past its samples. *)
let new_cell sc ~dim ~m grid rng (key : int array) c =
  (* Each column grows by its own length: the scratch serves every d. *)
  sc.keys <- ints sc.keys ((c + 1) * dim);
  sc.stamps <- grow_stamps sc.stamps (c + 1);
  sc.ub <- floats sc.ub (c + 1);
  sc.first <- ints sc.first (c + 1);
  sc.last <- ints sc.last (c + 1);
  Array.blit key 0 sc.keys (c * dim) dim;
  Rng.save rng sc.stamps c;
  Sample_space.skip_cell rng grid ~m;
  FA.unsafe_set sc.ub c 0.;
  sc.first.(c) <- -1;
  Obs.incr c_cells

(* Phase 1 over grid [gi]: every cell the balls meet, its bound and its
   links. Returns the cell count. [buf] is the scaled center's scratch:
   [inv *. x] is the exact expression [Point.scale] evaluates. *)
let build sc (l : Sample_space.layout) ~gi ~inv ~cols ~ws ~buf =
  let dim = Array.length cols and m = l.Sample_space.samples in
  let grid = l.Sample_space.grids.Shifted_grids.grids.(gi) in
  let rng = l.Sample_space.streams.(gi) in
  let cur = Grid.cursor grid in
  (* Room for 8 cells per ball at half load (a 2-D grid at ε = 0.3 holds
     about 7), up to 2^20 slots; past that the index doubles as cells
     come, so clustered balls do not pay for slots they never fill. *)
  clear_index sc (Int.max 4 (Int.min 20 (ceil_log2 (16 * Fvec.length ws))));
  let cells = ref 0 and links = ref 0 in
  for i = 0 to Fvec.length ws - 1 do
    for k = 0 to dim - 1 do
      Array.unsafe_set buf k
        (inv *. Fvec.unsafe_get (Array.unsafe_get cols k) i)
    done;
    let w = Fvec.unsafe_get ws i in
    Grid.start cur ~center:buf ~radius:1.;
    while Grid.next cur do
      let key = Grid.cursor_key cur in
      let s = find_slot sc ~dim key (hash_at key 0 dim) in
      let c =
        let c = Array.unsafe_get sc.index s in
        if c >= 0 then c
        else begin
          let c = !cells in
          new_cell sc ~dim ~m grid rng key c;
          Array.unsafe_set sc.index s c;
          cells := c + 1;
          maybe_grow_index sc ~dim ~cells:!cells;
          c
        end
      in
      FA.unsafe_set sc.ub c (FA.unsafe_get sc.ub c +. w);
      let e = !links in
      if e >= Array.length sc.ball || e >= Array.length sc.next then begin
        sc.ball <- ints sc.ball (e + 1);
        sc.next <- ints sc.next (e + 1)
      end;
      sc.ball.(e) <- i;
      sc.next.(e) <- -1;
      if sc.first.(c) < 0 then sc.first.(c) <- e
      else sc.next.(sc.last.(c)) <- e;
      sc.last.(c) <- e;
      links := e + 1
    done
  done;
  !cells

(* Phase 2's evaluation of cell [c]: its samples drawn into [sc.pos]
   from its stamp, each sample's depth into [sc.depth], summed over the
   cell's balls in ball order as the update loop adds them. Returns the
   index of the first maximum. *)
let evaluate sc (l : Sample_space.layout) ~gi ~inv ~cols ~ws ~buf ~key c =
  let dim = Array.length cols and m = l.Sample_space.samples in
  let grid = l.Sample_space.grids.Shifted_grids.grids.(gi) in
  Array.blit sc.keys (c * dim) key 0 dim;
  Rng.load sc.rng sc.stamps c;
  Sample_space.draw_cell sc.rng grid key ~m sc.pos ~at:0;
  Obs.add c_drawn m;
  let pos = sc.pos and depth = sc.depth in
  FA.fill depth 0 m 0.;
  let r2 = Closed.unit_r2 in
  let e = ref sc.first.(c) and balls = ref 0 in
  while !e >= 0 do
    let b = sc.ball.(!e) in
    for k = 0 to dim - 1 do
      Array.unsafe_set buf k
        (inv *. Fvec.unsafe_get (Array.unsafe_get cols k) b)
    done;
    let w = Fvec.unsafe_get ws b in
    for si = 0 to m - 1 do
      let d2 = ref 0. in
      for k = 0 to dim - 1 do
        let d = FA.unsafe_get pos ((si * dim) + k) -. Array.unsafe_get buf k in
        d2 := !d2 +. (d *. d)
      done;
      if !d2 <= r2 then FA.unsafe_set depth si (FA.unsafe_get depth si +. w)
    done;
    incr balls;
    e := sc.next.(!e)
  done;
  Obs.add c_visited (m * !balls);
  let mx = ref Float.neg_infinity and arg = ref 0 in
  for si = 0 to m - 1 do
    let d = FA.unsafe_get depth si in
    if d > !mx then begin
      mx := d;
      arg := si
    end
  done;
  !arg

(* Grid [gi]'s best cell: its depth into [depths.(gi)], its uid into
   [uids.(gi)] (-1 when no cell has a positive depth) and its witness
   into [wins.(gi)]. *)
let solve_grid sc l ~gi ~inv ~cols ~ws ~depths ~uids ~wins =
  let dim = Array.length cols and m = l.Sample_space.samples in
  let buf = Array.make dim 0. in
  let cells = build sc l ~gi ~inv ~cols ~ws ~buf in
  sc.pos <- floats sc.pos (m * dim);
  sc.depth <- floats sc.depth m;
  let key = Array.make dim 0 in
  let best = ref 0. and best_c = ref (-1) in
  (* Evaluate cell [c] if its bound lets it beat the best so far, and
     keep it if it does. *)
  let consider c =
    let u = FA.unsafe_get sc.ub c in
    if u > !best || (u = !best && c < !best_c) then begin
      let si = evaluate sc l ~gi ~inv ~cols ~ws ~buf ~key c in
      let d = FA.unsafe_get sc.depth si in
      if d > !best || (d = !best && c < !best_c) then begin
        best := d;
        best_c := c;
        wins.(gi) <- Array.init dim (fun k -> FA.get sc.pos ((si * dim) + k))
      end
    end
  in
  if cells > 0 then begin
    let top = ref 0 in
    for c = 1 to cells - 1 do
      if FA.unsafe_get sc.ub c > FA.unsafe_get sc.ub !top then top := c
    done;
    consider !top;
    for c = 0 to cells - 1 do
      if c <> !top then consider c
    done
  end;
  FA.set depths gi !best;
  uids.(gi) <- (if !best_c < 0 then -1 else Sample_space.uid l ~grid:gi !best_c)

(* Grids run concurrently on their own streams and scratch, and each
   finds its own best, so answers and counts are the same for any
   domain count. *)
let solve_core ~cfg ~radius ~dim store =
  Obs.with_span "static.solve" @@ fun () ->
  begin
    let l = Sample_space.layout ~dim ~cfg ~expected_n:(Pstore.length store) in
    let count = Shifted_grids.count l.Sample_space.grids in
    let inv = 1. /. radius in
    let ws = Pstore.weights store in
    let cols = Array.init dim (Pstore.col store) in
    let depths = FA.make count 0. in
    let uids = Array.make count (-1) and wins = Array.make count [||] in
    Parallel.with_pool ~domains:(Config.domains cfg) (fun pool ->
        Parallel.parallel_for pool ~n:count (fun gi ->
            Lend.with_ scratch (fun sc ->
                solve_grid sc l ~gi ~inv ~cols ~ws ~depths ~uids ~wins)));
    (* The deepest grid best, ties to the smallest uid. *)
    let b = ref (-1) in
    for gi = 0 to count - 1 do
      let u = uids.(gi) in
      if u >= 0 then
        if
          !b < 0
          || FA.get depths gi > FA.get depths !b
          || (FA.get depths gi = FA.get depths !b && u < uids.(!b))
        then b := gi
    done;
    if !b < 0 then None
    else
      Some { center = Point.scale radius wins.(!b); value = FA.get depths !b }
  end

let solve_unchecked ?(cfg = Config.default) ?(radius = 1.) ~dim pts =
  Config.validate cfg;
  if Array.length pts = 0 then None
  else solve_core ~cfg ~radius ~dim (Pstore.of_weighted pts)

let solve_store ?(cfg = Config.default) ?(radius = 1.) store =
  Config.validate cfg;
  solve_core ~cfg ~radius ~dim:(Pstore.dims store) store

let validate ~radius ~dim pts =
  let open Guard in
  let* () = positive ~field:"radius" radius in
  if dim < 1 then
    invalid ~field:"dim" (Printf.sprintf "must be >= 1, got %d" dim)
  else weighted_points ~dim ~field:"points" pts

let solve_checked ?cfg ?(radius = 1.) ~dim pts =
  Result.map
    (fun () -> solve_unchecked ?cfg ~radius ~dim pts)
    (validate ~radius ~dim pts)

let solve ?cfg ?radius ~dim pts =
  Guard.ok_exn (solve_checked ?cfg ?radius ~dim pts)

let solve_or_point ?cfg ?radius ~dim pts =
  Guard.ok_exn
    (let open Guard in
     let* () = non_empty ~field:"points" pts in
     let* r = solve_checked ?cfg ?radius ~dim pts in
     match r with
     | Some r -> Ok r
     | None ->
         let best = ref pts.(0) in
         Array.iter (fun (p, w) -> if w > snd !best then best := (p, w)) pts;
         let p, w = !best in
         Ok { center = p; value = w })
