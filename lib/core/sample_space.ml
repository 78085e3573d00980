module Point = Maxrs_geom.Point
module Ball = Maxrs_geom.Ball
module Closed = Maxrs_geom.Closed
module Grid = Maxrs_geom.Grid
module Shifted_grids = Maxrs_geom.Shifted_grids
module Sphere = Maxrs_geom.Sphere
module Rng = Maxrs_geom.Rng
module Obs = Maxrs_obs.Obs
module FA = Float.Array
module BA1 = Bigarray.Array1

(* Cells materialized and samples drawn/visited are the primitive
   operations behind Theorems 1.2/1.5: O(n) cells per grid, O(ε⁻²log n)
   samples per cell, and each ball update touches O(1) cells. *)
let c_cells = Obs.counter "grid.cells"
let c_drawn = Obs.counter "samples.drawn"
let c_visited = Obs.counter "samples.visited"

(* The public [sample] record is a materialized snapshot view; the
   working representation is columnar (below). *)
type sample = {
  id : int;
  pos : Point.t;
  mutable depth : float;
  mutable flag : int;
}

type stamps = (int64, Bigarray.int64_elt, Bigarray.c_layout) BA1.t

(* Cells as rows. Every per-cell field of a grid lives in a flat column
   indexed by the cell's row, and every per-sample field in a column
   with [samples_per_cell] slots per row, so the per-update scan streams
   unboxed floats and machine ints and no cell is a heap block of its
   own. The columns come in pages: page 0 holds the rows a restore
   adopted (none for a fresh grid), every later page [1 lsl shift]
   rows (see {!page_shift}). A grid grows by one page at a time and
   never copies a column, so it never holds two copies of its rows. *)
type page = {
  keys : int array;  (** [dim] per row: the cell's grid key *)
  nballs : int array;  (** live balls meeting the cell; 0 on a free row *)
  stamps : stamps;
      (** the grid's rng state just before the row's positions were
          drawn: {!draw_cell} redraws them from it bit for bit *)
  bases : int array;
      (** the first sample's id; sample [si]'s is [base + si * stride]
          ([new_cell] numbers a cell's samples consecutively) *)
  best : int array;  (** index of the first sample attaining the max *)
  slot : int array;  (** the row's slot in a {!Cell_heap}, -1 if none *)
  maxd : floatarray;  (** the cached max over the row's depths *)
  depth : floatarray;  (** [m] per row *)
  pos : floatarray;
      (** [m * dim] per row, row-major (sample, axis), immutable while
          the row is live: the only copy of the positions *)
  mutable flag : int array;
      (** colored MaxRS: [m] per row, the last color counted per sample;
          empty until the page's first colored touch, the only writer *)
}

(* One grid's rows, its key index and its sampling stream. All of it is
   the grid's own, so work sharded by grid index touches disjoint state
   and grids can be built on different domains with no locking and no
   cross-grid ordering effects. The rng stream is derived with
   [Rng.split_at] keyed by the grid index — not by insertion order — so
   a grid's sample positions depend only on the operations applied to
   that grid.

   Rows are indexed by key with open addressing: [index] holds a row per
   slot (-1 when empty) packed with that row's key hash, probed
   linearly from the hash's top bits, at most half full, and compacted
   by backward shift on removal (no tombstones). Keys compare exactly,
   coordinate by coordinate. Dropped rows go on the [free] stack and are
   handed out again before a never-used row. *)
type rows = {
  grid : Grid.t;
  cursor : Grid.cursor;
      (** one key enumeration per grid, so the sharded [*_in_grid]
          operations keep touching disjoint state *)
  rng : Rng.t;
  mutable next_id : int;
  mutable pages : page array;
  mutable npages : int;
  first : int;  (** rows in page 0 *)
  shift : int;
  mutable fresh : int;  (** rows ever handed out *)
  mutable free : int array;
  mutable nfree : int;
  mutable live : int;
  mutable index : int array;
  mutable ibits : int;  (** [index] has [1 lsl ibits] slots *)
}

(* The grids, the samples per cell and each grid's stream a space is
   built on (see {!layout}). *)
type layout = { grids : Shifted_grids.t; samples : int; streams : Rng.t array }

(* A cell is named by its row and grid, [row lsl gbits lor grid]: an
   int, so a heap of cells holds no pointer. *)
type cell = int

type t = {
  dim : int;
  cfg : Config.t;
  grids : Shifted_grids.t;
  rows : rows array;
  t_samples : int;
  stride : int;  (** grid count; sample ids are [local * stride + grid] *)
  gbits : int;
  mutable hook : cell -> unit;
}

let make_page ~dim ~m cap =
  {
    keys = Array.make (cap * dim) 0;
    nballs = Array.make cap 0;
    stamps = BA1.create Bigarray.Int64 Bigarray.c_layout cap;
    bases = Array.make cap 0;
    best = Array.make cap 0;
    slot = Array.make cap (-1);
    maxd = FA.create cap;
    depth = FA.create (cap * m);
    pos = FA.create (cap * m * dim);
    flag = [||];
  }

let ceil_log2 n =
  let rec go b = if 1 lsl b < n then go (b + 1) else b in
  go 0

(* The most rows a page holds, as a shift: the largest power of two in
   [8, 1024] whose positions fit in 8 Ki floats (64 KiB). A restored
   grid's later pages hold this many. *)
let max_page_shift ~dim ~m =
  let rec go s =
    if s < 10 && (1 lsl (s + 1)) * m * dim <= 8192 then go (s + 1) else s
  in
  go 3

(* Rows per page past the first for a fresh grid, as a shift: the power
   of two at or below a sixteenth of the expected balls, at least 4 and
   at most [max_page_shift]. A grid holds a few rows per ball, so a page
   is a small share of its rows. A small space — a colored solve over a
   hundred points — gets pages small enough to be allocated in the minor
   heap, where a short-lived space's pages die young instead of passing
   through the major heap as large blocks. *)
let page_shift ~dim ~m ~expected_n =
  Int.max 2
    (Int.min (max_page_shift ~dim ~m) (ceil_log2 ((expected_n / 16) + 1) - 1))

(* Index slots for [n] rows: at most half full, and at least 16. *)
let index_bits n = Int.max 4 (ceil_log2 (2 * n))

(* An empty key index of [1 lsl ibits] slots (see [slot_row]). *)
let make_index ibits = Array.make (1 lsl ibits) (-1)

let make_rows grid rng ~next_id ~shift page0 =
  let n = FA.length page0.maxd in
  let ibits = index_bits n in
  {
    grid;
    cursor = Grid.cursor grid;
    rng;
    next_id;
    pages = [| page0 |];
    npages = 1;
    first = n;
    shift;
    fresh = n;
    free = [||];
    nfree = 0;
    live = 0;
    index = make_index ibits;
    ibits;
  }

(* Grid collection and the rng the per-grid streams derive from; both
   are deterministic functions of (dim, cfg), which is what lets a
   restored structure rebuild the same geometry from the config alone. *)
let make_grids ~dim ~cfg =
  let side = Config.grid_side cfg ~dim in
  let delta = Config.grid_delta cfg in
  let rng = Rng.create cfg.Config.seed in
  let grids =
    match cfg.Config.max_grid_shifts with
    | None -> Shifted_grids.make ~dim ~side ~delta ()
    | Some cap ->
        Shifted_grids.make ~cap ~rng:(Rng.split rng) ~dim ~side ~delta ()
  in
  (grids, rng)

let layout ~dim ~cfg ~expected_n =
  Config.validate cfg;
  let grids, rng = make_grids ~dim ~cfg in
  {
    grids;
    samples = Config.samples_per_cell cfg ~n:expected_n;
    streams = Array.init (Shifted_grids.count grids) (Rng.split_at rng);
  }

(* [new_cell] numbers each cell's samples on from the grid's id counter,
   which every creation moves by [m]. *)
let uid l ~grid c = (c * l.samples * Shifted_grids.count l.grids) + grid

let create ~dim ~cfg ~expected_n =
  let l = layout ~dim ~cfg ~expected_n in
  let count = Shifted_grids.count l.grids and m = l.samples in
  let shift = page_shift ~dim ~m ~expected_n in
  {
    dim;
    cfg;
    grids = l.grids;
    rows =
      Array.mapi
        (fun gi grid ->
          make_rows grid l.streams.(gi) ~next_id:0 ~shift
            (make_page ~dim ~m 0))
        l.grids.Shifted_grids.grids;
    t_samples = m;
    stride = count;
    gbits = ceil_log2 count;
    hook = ignore;
  }

(* Row [r]'s page and its offset there. *)
let page_of g r =
  if r < g.first then Array.unsafe_get g.pages 0
  else Array.unsafe_get g.pages (1 + ((r - g.first) lsr g.shift))

let off_of g r =
  if r < g.first then r else (r - g.first) land ((1 lsl g.shift) - 1)
let cell_of t gi r = (r lsl t.gbits) lor gi
let grid_of_cell t c = c land ((1 lsl t.gbits) - 1)
let row_of t c = c lsr t.gbits

(* Materialize the snapshot view of sample [si] of the row at offset [o]
   of page [p]: every field is a copy ([pos] is rebuilt from the flat
   position column), so mutating the view does not write back. *)
let sample_of t p o si =
  let dim = t.dim and s = (o * t.t_samples) + si in
  {
    id = Array.unsafe_get p.bases o + (si * t.stride);
    pos = Array.init dim (fun k -> FA.unsafe_get p.pos ((s * dim) + k));
    depth = FA.unsafe_get p.depth s;
    flag = (if Array.length p.flag = 0 then -1 else p.flag.(s));
  }

let dim t = t.dim
let samples_per_cell t = t.t_samples
let grid_count t = Shifted_grids.count t.grids
let cell_count t = Array.fold_left (fun acc g -> acc + g.live) 0 t.rows
let sample_count t = cell_count t * t.t_samples
let on_cell_change t f = t.hook <- f

(* Cell [c]'s grid rows and its row. *)
let rows_of t c = t.rows.(grid_of_cell t c)

let cell_max t c =
  let g = rows_of t c and r = row_of t c in
  FA.get (page_of g r).maxd (off_of g r)

let cell_max_into t c dst i =
  let g = rows_of t c and r = row_of t c in
  FA.set dst i (FA.get (page_of g r).maxd (off_of g r))

let cell_best t c =
  let g = rows_of t c and r = row_of t c in
  let p = page_of g r and o = off_of g r in
  sample_of t p o p.best.(o)

(* The first sample's id doubles as a cell identifier: ids are unique
   across the structure and assigned at materialization, so the uid is a
   deterministic function of the per-grid operation history — a stable
   tie-breaking key that survives serialization, unlike the row. *)
let cell_uid t c =
  let g = rows_of t c and r = row_of t c in
  (page_of g r).bases.(off_of g r)

let cell_slot t c =
  let g = rows_of t c and r = row_of t c in
  (page_of g r).slot.(off_of g r)

let set_cell_slot t c i =
  let g = rows_of t c and r = row_of t c in
  (page_of g r).slot.(off_of g r) <- i

(* The heap's order over rows: the larger cached max, ties to the
   smaller uid. *)
let row_precedes pa oa pb ob =
  let da = FA.unsafe_get pa.maxd oa and db = FA.unsafe_get pb.maxd ob in
  da > db || (da = db && pa.bases.(oa) < pb.bases.(ob))

let precedes t a b =
  let ga = rows_of t a and ra = row_of t a in
  let gb = rows_of t b and rb = row_of t b in
  row_precedes (page_of ga ra) (off_of ga ra) (page_of gb rb) (off_of gb rb)

(* ------------------------------------------------------------------ *)
(* The key index *)

(* FNV-style mix over the coordinates, then a multiplicative scramble
   whose top 30 bits are the hash; its top [ibits] bits pick the home
   slot. A plain counted loop: a closure capturing the accumulator would
   allocate per lookup. *)
let hash_key (key : int array) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length key - 1 do
    h := (!h lxor Array.unsafe_get key i) * 0x01000193
  done;
  (!h * 0x1E3779B97F4A7C15) lsr 33

let home g h = h lsr (30 - g.ibits)

let key_is ~dim g r (key : int array) =
  let p = page_of g r in
  let base = off_of g r * dim in
  let k = ref 0 in
  while
    !k < dim && Array.unsafe_get p.keys (base + !k) = Array.unsafe_get key !k
  do
    incr k
  done;
  !k = dim

(* Slot [i] of the index is one word, [row lsl 30 lor hash] (-1 when
   empty): the row and its key's hash, so a probe rejects almost every
   other key without reading it. Rows fit in 32 bits and the index in
   2{^30} slots. *)
let slot_row g i = Array.unsafe_get g.index i asr 30
let slot_hash g i = Array.unsafe_get g.index i land 0x3FFF_FFFF
let set_slot g i r h = Array.unsafe_set g.index i ((r lsl 30) lor h)

(* The slot holding the row keyed [key] (hash [h]), or the empty slot
   where a row with that key belongs. Keys compare exactly. *)
let find_slot ~dim g key h =
  let mask = (1 lsl g.ibits) - 1 in
  let i = ref (home g h) in
  while
    let r = slot_row g !i in
    r >= 0 && not (slot_hash g !i = h && key_is ~dim g r key)
  do
    i := (!i + 1) land mask
  done;
  !i

(* Put the slot word [e] of an indexed row at the first empty slot from
   its home. *)
let place g e =
  let mask = (1 lsl g.ibits) - 1 in
  let i = ref (home g (e land 0x3FFF_FFFF)) in
  while slot_row g !i >= 0 do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set g.index !i e

(* Double the index once it is more than half full. *)
let maybe_grow_index g =
  if 2 * g.live > 1 lsl g.ibits then begin
    let old = g.index in
    g.ibits <- g.ibits + 1;
    g.index <- make_index g.ibits;
    Array.iter (fun e -> if e >= 0 then place g e) old
  end

(* Empty slot [i], moving later entries of its probe run back into the
   hole when their home slot allows, so every lookup still reaches its
   row without passing an empty slot. *)
let unindex g i =
  let index = g.index in
  let mask = (1 lsl g.ibits) - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while slot_row g !j >= 0 do
    if (!j - home g (slot_hash g !j)) land mask >= (!j - !hole) land mask
    then begin
      Array.unsafe_set index !hole (Array.unsafe_get index !j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  Array.unsafe_set index !hole (-1)

(* ------------------------------------------------------------------ *)
(* Rows *)

(* A free row: a dropped one first, else the next never-used one, on a
   new page when the last is full. *)
let alloc_row t g =
  if g.nfree > 0 then begin
    g.nfree <- g.nfree - 1;
    Array.unsafe_get g.free g.nfree
  end
  else begin
    let r = g.fresh in
    if r >= g.first + ((g.npages - 1) lsl g.shift) then begin
      if g.npages = Array.length g.pages then begin
        let pages = Array.make (2 * g.npages) g.pages.(0) in
        Array.blit g.pages 0 pages 0 g.npages;
        g.pages <- pages
      end;
      g.pages.(g.npages) <- make_page ~dim:t.dim ~m:t.t_samples (1 lsl g.shift);
      g.npages <- g.npages + 1
    end;
    g.fresh <- r + 1;
    r
  end

let free_row g r =
  if g.nfree = Array.length g.free then begin
    let free = Array.make (Int.max 16 (2 * g.nfree)) 0 in
    Array.blit g.free 0 free 0 g.nfree;
    g.free <- free
  end;
  Array.unsafe_set g.free g.nfree r;
  g.nfree <- g.nfree + 1

(* The sampling step behind Lemma 3.1, and the only place positions are
   drawn: the cell's [m] samples, uniform on the circumsphere of the
   cell at [key] of [grid], from [rng] standing at the cell's stamp,
   into [pos] from index [at]. [new_cell] draws from the grid's live
   stream; {!redraw} draws a decoded state's positions again from each
   cell's stamp. *)
let draw_cell rng grid key ~m pos ~at =
  Sphere.fill_on rng ~center:(Grid.cell_center grid key)
    ~radius:(Grid.cell_circumradius grid) ~pos:at ~samples:m pos

let skip_cell rng grid ~m = Sphere.skip_on rng ~dim:grid.Grid.dim ~samples:m

(* Materialize the cell at [key] (hash [h]) of grid [gi] in a free row,
   indexed at the empty slot [i] that {!find_slot} returned. *)
let new_cell t gi g key h i =
  let m = t.t_samples and dim = t.dim in
  let r = alloc_row t g in
  let p = page_of g r and o = off_of g r in
  let local = g.next_id in
  g.next_id <- local + m;
  Obs.incr c_cells;
  Obs.add c_drawn m;
  for k = 0 to dim - 1 do
    Array.unsafe_set p.keys ((o * dim) + k) (Array.unsafe_get key k)
  done;
  BA1.unsafe_set p.stamps o (Rng.state g.rng);
  draw_cell g.rng g.grid key ~m p.pos ~at:(o * m * dim);
  p.bases.(o) <- (local * t.stride) + gi;
  p.nballs.(o) <- 0;
  p.best.(o) <- 0;
  p.slot.(o) <- -1;
  FA.unsafe_set p.maxd o 0.;
  FA.fill p.depth (o * m) m 0.;
  if Array.length p.flag > 0 then Array.fill p.flag (o * m) m (-1);
  set_slot g i r h;
  g.live <- g.live + 1;
  maybe_grow_index g;
  r

(* The row of grid [gi] at [key], materialized if absent. *)
let row_at t gi g key =
  let h = hash_key key in
  let i = find_slot ~dim:t.dim g key h in
  let r = slot_row g i in
  if r >= 0 then r else new_cell t gi g key h i

(* A row whose refcount reached zero: its cached max becomes
   [neg_infinity] and the hook fires once more, so a heap indexing it
   takes it out; then it leaves the index for the free stack. *)
let drop_row t gi g r key =
  let p = page_of g r and o = off_of g r in
  FA.unsafe_set p.maxd o Float.neg_infinity;
  t.hook (cell_of t gi r);
  unindex g (find_slot ~dim:t.dim g key (hash_key key));
  free_row g r;
  g.live <- g.live - 1

(* Visit every row of grid [gi] intersected by the unit ball at
   [center], materializing absent rows, with the grid's cursor. *)
let iter_cells_in_grid t gi ~center f =
  let g = t.rows.(gi) in
  let cur = g.cursor in
  Grid.start cur ~center ~radius:1.;
  while Grid.next cur do
    let r = row_at t gi g (Grid.cursor_key cur) in
    f (page_of g r) (off_of g r) (cell_of t gi r)
  done

(* The three update loops below each inline the same squared-distance
   scan over the row's positions — accumulated in ascending axis order,
   bit-identical to [Point.dist2 pos center] — rather than calling a
   shared helper: the backend never inlines a function containing a
   loop, and a real call would box its float result once per sample
   visit, on the hottest path of the static solvers. The local float
   refs compile to unboxed mutable registers. Each scan also finds the
   row's first maximum (strict [>]) and hands its index to
   [refresh_cell]. *)

(* Refresh the cached max/argmax after a sample scan found the first
   maximum at [arg]. The max is read back from the depth column rather
   than passed in, since a float argument of a call would be boxed. *)
let refresh_cell t p o c ~changed ~arg =
  let mx = FA.unsafe_get p.depth ((o * t.t_samples) + arg) in
  if changed && (mx <> FA.unsafe_get p.maxd o || arg <> p.best.(o)) then begin
    FA.unsafe_set p.maxd o mx;
    p.best.(o) <- arg;
    t.hook c
  end

(* Apply [update] to every sample of the row inside the unit ball at
   [center], then refresh the row's cached max/argmax in the same pass
   and fire the hook if it moved. Generic (closure-driven) variant for
   custom depth notions — [update si] may rewrite the sample's depth
   and reports whether it did; the weighted/colored hot paths below are
   hand-specialized copies of the same loop. *)
let update_cell t p o c ~center update =
  let m = t.t_samples and dim = t.dim in
  Obs.add c_visited m;
  let pos = p.pos and depth = p.depth and s0 = o * m in
  let changed = ref false in
  let mx = ref Float.neg_infinity and arg = ref 0 in
  let r2 = Closed.unit_r2 in
  for si = 0 to m - 1 do
    let d2 = ref 0. in
    for k = 0 to dim - 1 do
      let d =
        FA.unsafe_get pos (((s0 + si) * dim) + k) -. Array.unsafe_get center k
      in
      d2 := !d2 +. (d *. d)
    done;
    if !d2 <= r2 && update si then changed := true;
    let d = FA.unsafe_get depth (s0 + si) in
    if d > !mx then begin
      mx := d;
      arg := si
    end
  done;
  refresh_cell t p o c ~changed:!changed ~arg:!arg

(* [update_cell] specialized to the colored flag test. The page's flag
   column is allocated on its first colored touch: weighted rows never
   carry one. *)
let update_cell_color t p o c ~center ~color =
  let m = t.t_samples and dim = t.dim in
  Obs.add c_visited m;
  if Array.length p.flag = 0 then
    p.flag <- Array.make (Array.length p.nballs * m) (-1);
  let pos = p.pos and depth = p.depth and flag = p.flag and s0 = o * m in
  let changed = ref false in
  let mx = ref Float.neg_infinity and arg = ref 0 in
  let r2 = Closed.unit_r2 in
  for si = 0 to m - 1 do
    let d2 = ref 0. in
    for k = 0 to dim - 1 do
      let d =
        FA.unsafe_get pos (((s0 + si) * dim) + k) -. Array.unsafe_get center k
      in
      d2 := !d2 +. (d *. d)
    done;
    if !d2 <= r2 && Array.unsafe_get flag (s0 + si) <> color then begin
      Array.unsafe_set flag (s0 + si) color;
      FA.unsafe_set depth (s0 + si) (FA.unsafe_get depth (s0 + si) +. 1.);
      changed := true
    end;
    let d = FA.unsafe_get depth (s0 + si) in
    if d > !mx then begin
      mx := d;
      arg := si
    end
  done;
  refresh_cell t p o c ~changed:!changed ~arg:!arg

(* The weighted update, insertion ([count] = 1) and deletion ([count] =
   -1) alike, hand-fused: the key enumeration, the row
   lookup/materialization, the refcount and the [update_cell] scan in
   one loop per grid, with nothing allocated per grid or per visited
   row. Deletion subtracts the weight, the IEEE operation [x +. (-.w)],
   so the depths are bit-identical to adding the negated weight. A row
   whose refcount reaches zero is dropped ({!drop_row}). Only insertion
   can meet a missing row — every cell a live ball intersects is
   materialized. *)
let add_in_grid t gi ~center ~weight ~count =
  assert (Point.dim center = t.dim);
  let g = t.rows.(gi) in
  let cur = g.cursor in
  let dim = t.dim and m = t.t_samples in
  let r2 = Closed.unit_r2 in
  Grid.start cur ~center ~radius:1.;
  while Grid.next cur do
    let key = Grid.cursor_key cur in
    let r = row_at t gi g key in
    let p = page_of g r and o = off_of g r in
    let nballs = p.nballs.(o) + count in
    assert (nballs >= 0);
    p.nballs.(o) <- nballs;
    Obs.add c_visited m;
    let pos = p.pos and depth = p.depth and s0 = o * m in
    let changed = ref false in
    let mx = ref Float.neg_infinity and arg = ref 0 in
    for si = 0 to m - 1 do
      let d2 = ref 0. in
      for k = 0 to dim - 1 do
        let d =
          FA.unsafe_get pos (((s0 + si) * dim) + k)
          -. Array.unsafe_get center k
        in
        d2 := !d2 +. (d *. d)
      done;
      if !d2 <= r2 then begin
        let d = FA.unsafe_get depth (s0 + si) in
        FA.unsafe_set depth (s0 + si)
          (if count > 0 then d +. weight else d -. weight);
        changed := true
      end;
      let d = FA.unsafe_get depth (s0 + si) in
      if d > !mx then begin
        mx := d;
        arg := si
      end
    done;
    if nballs > 0 then
      refresh_cell t p o (cell_of t gi r) ~changed:!changed ~arg:!arg
    else drop_row t gi g r key
  done

let insert_in_grid t ~grid ~center ~weight =
  add_in_grid t grid ~center ~weight ~count:1

let insert t ~center ~weight =
  for gi = 0 to grid_count t - 1 do
    add_in_grid t gi ~center ~weight ~count:1
  done

let delete_in_grid t ~grid ~center ~weight =
  add_in_grid t grid ~center ~weight ~count:(-1)

let delete t ~center ~weight =
  for gi = 0 to grid_count t - 1 do
    add_in_grid t gi ~center ~weight ~count:(-1)
  done

(* Generic insertion: [f] returns the depth delta for each sample of an
   intersected cell lying inside the ball (0 = unchanged). Counts as a
   ball insertion for cell reference counting. [f] receives a snapshot
   view of the sample (materialized per visited in-ball sample). *)
let insert_with t ~center ~f =
  assert (Point.dim center = t.dim);
  let m = t.t_samples in
  for gi = 0 to grid_count t - 1 do
    iter_cells_in_grid t gi ~center (fun p o c ->
        p.nballs.(o) <- p.nballs.(o) + 1;
        update_cell t p o c ~center (fun si ->
            let delta = f (sample_of t p o si) in
            if delta <> 0. then begin
              let s = (o * m) + si in
              FA.unsafe_set p.depth s (FA.unsafe_get p.depth s +. delta);
              true
            end
            else false))
  done

let touch_colored_in_grid t ~grid ~center ~color =
  assert (Point.dim center = t.dim);
  assert (color >= 0);
  iter_cells_in_grid t grid ~center (fun p o c ->
      p.nballs.(o) <- p.nballs.(o) + 1;
      update_cell_color t p o c ~center ~color)

(* Every live row of grid [gi], in row order. *)
let iter_rows t gi f =
  let g = t.rows.(gi) in
  for r = 0 to g.fresh - 1 do
    let p = page_of g r and o = off_of g r in
    if Array.unsafe_get p.nballs o > 0 then f p o r
  done

let iter_samples t f =
  for gi = 0 to grid_count t - 1 do
    iter_rows t gi (fun p o _ ->
        for si = 0 to t.t_samples - 1 do
          f (sample_of t p o si)
        done)
  done

let iter_live_cells t f =
  for gi = 0 to grid_count t - 1 do
    iter_rows t gi (fun _ _ r -> f (cell_of t gi r))
  done

(* Offset from [pos] of the first maximum of the [len] depths there:
   the strict [>] scan of the update loops, so a row's cached argmax is
   exactly this index and its cached max the depth it names. *)
let first_max depth ~pos ~len =
  let mx = ref Float.neg_infinity and arg = ref 0 in
  for si = 0 to len - 1 do
    let d = FA.unsafe_get depth (pos + si) in
    if d > !mx then begin
      mx := d;
      arg := si
    end
  done;
  !arg

let row_key t p o = Array.sub p.keys (o * t.dim) t.dim

(* Test support: check the structural invariants against the caller's
   record of live balls — every materialized cell is intersected by
   exactly [nballs] live balls, every cell intersected by some live ball
   is materialized, every live row is indexed under its key and no
   other row is, and every cached cell max and argmax is its samples'
   first maximum. *)
let validate t ~live =
  let ok = ref true in
  let m = t.t_samples in
  let expected : int Grid.Tbl.t array =
    Array.map (fun _ -> Grid.Tbl.create 64) t.rows
  in
  List.iter
    (fun center ->
      let ball = Ball.unit center in
      Array.iteri
        (fun gi tbl ->
          let grid = t.grids.Shifted_grids.grids.(gi) in
          Grid.iter_keys_intersecting_ball grid ball (fun key ->
              (* [key] is a scratch buffer: always store a copy. *)
              match Grid.Tbl.find_opt tbl key with
              | Some r -> Grid.Tbl.replace tbl (Array.copy key) (r + 1)
              | None -> Grid.Tbl.add tbl (Array.copy key) 1))
        expected)
    live;
  Array.iteri
    (fun gi exp ->
      let g = t.rows.(gi) and rows = ref 0 in
      iter_rows t gi (fun p o r ->
          incr rows;
          let key = row_key t p o in
          (match Grid.Tbl.find_opt exp key with
          | Some count when count = p.nballs.(o) -> ()
          | _ -> ok := false);
          if slot_row g (find_slot ~dim:t.dim g key (hash_key key)) <> r
          then ok := false;
          let arg = first_max p.depth ~pos:(o * m) ~len:m in
          if
            arg <> p.best.(o)
            || FA.get p.depth ((o * m) + arg) <> FA.get p.maxd o
          then ok := false);
      let indexed = ref 0 in
      for i = 0 to (1 lsl g.ibits) - 1 do
        if slot_row g i >= 0 then incr indexed
      done;
      let indexed = !indexed in
      if !rows <> Grid.Tbl.length exp || g.live <> !rows || indexed <> !rows
      then ok := false)
    expected;
  !ok

let best t =
  let best = ref None in
  for gi = 0 to grid_count t - 1 do
    iter_rows t gi (fun p o _ ->
        match !best with
        | Some (bp, bo) when not (row_precedes p o bp bo) -> ()
        | _ -> best := Some (p, o))
  done;
  match !best with
  | Some (p, o) when FA.get p.maxd o > Float.neg_infinity ->
      Some (sample_of t p o p.best.(o))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Durable state capture.

   [state] is a canonical copy of everything mutable: per-grid rng
   stream states and id counters, and every live cell with its stamp,
   its base id and its samples' exact depth bit patterns. Balls are not
   part of this layer (the dynamic structure owns them), so two
   structures that behave identically capture identical states — the
   bit-for-bit comparison the crash-recovery harness relies on.

   Nothing derivable is kept: a cell's sample ids follow from its base,
   its cached max and argmax are its depths' first maximum, and its
   positions are a function of (grid, key, stamp). The positions are
   still captured, as a column the codec checksums; a decoder redraws
   them with {!redraw} instead of reading them. Colored flags are not
   captured, so a space a colored update touched has no state.

   The state has the live layout's columns, cells in ascending key
   order: capture gathers the live rows in key order and copies each
   row's slice of every column, and restore adopts the state's columns
   as its grids' first pages. No observable behaviour depends on which
   row holds a cell — the dynamic structure's heap and the static scan
   use a total order over (depth, cell uid), and epoch rebuilds iterate
   balls in sorted handle order. *)
module State = struct
  type nonrec stamps = stamps

  type grid = {
    rng : int64;
    next_id : int;
    keys : int array;
    nballs : int array;
    stamps : stamps;
    bases : int array;
    pos : floatarray;
    depth : floatarray;
  }

  type t = { dim : int; samples_per_cell : int; grids : grid array }

  let cells g = Array.length g.nballs
  let create_stamps n : stamps = BA1.create Bigarray.Int64 Bigarray.c_layout n

  let check_shape st =
    let dim = st.dim and m = st.samples_per_cell in
    Array.iter
      (fun g ->
        let n = cells g in
        if
          Array.length g.keys <> n * dim
          || BA1.dim g.stamps <> n
          || Array.length g.bases <> n
          || FA.length g.pos <> n * m * dim
          || FA.length g.depth <> n * m
        then
          invalid_arg
            "Sample_space.State: column lengths disagree with dim and \
             samples_per_cell")
      st.grids
end

(* Lexicographic order on the keys at positions [i] and [j] of [ks]. *)
let compare_at (ks : int array) dim i j =
  let k = ref 0 in
  while
    !k < dim
    && Array.unsafe_get ks ((i * dim) + !k)
       = Array.unsafe_get ks ((j * dim) + !k)
  do
    incr k
  done;
  if !k = dim then 0
  else
    Int.compare
      (Array.unsafe_get ks ((i * dim) + !k))
      (Array.unsafe_get ks ((j * dim) + !k))

(* Grid [gi]'s live rows in ascending key order: the rows in row order
   with their keys copied out flat, then sorted by key. *)
let rows_in_key_order t gi =
  let g = t.rows.(gi) and dim = t.dim in
  let n = g.live in
  let rows = Array.make n 0 and ks = Array.make (n * dim) 0 and k = ref 0 in
  iter_rows t gi (fun p o r ->
      rows.(!k) <- r;
      Array.blit p.keys (o * dim) ks (!k * dim) dim;
      incr k);
  let a = Array.init n Fun.id in
  Array.stable_sort (compare_at ks dim) a;
  Array.map (fun i -> rows.(i)) a

let capture_grid t gi =
  let g = t.rows.(gi) in
  for i = 0 to g.npages - 1 do
    if Array.length g.pages.(i).flag > 0 then
      invalid_arg "Sample_space.state: a colored update touched the space"
  done;
  let order = rows_in_key_order t gi in
  let n = Array.length order and dim = t.dim and m = t.t_samples in
  let s =
    {
      State.rng = Rng.state g.rng;
      next_id = g.next_id;
      keys = Array.make (n * dim) 0;
      nballs = Array.make n 0;
      stamps = State.create_stamps n;
      bases = Array.make n 0;
      pos = FA.create (n * m * dim);
      depth = FA.create (n * m);
    }
  in
  Array.iteri
    (fun i r ->
      let p = page_of g r and o = off_of g r in
      for k = 0 to dim - 1 do
        Array.unsafe_set s.State.keys ((i * dim) + k)
          (Array.unsafe_get p.keys ((o * dim) + k))
      done;
      s.State.nballs.(i) <- p.nballs.(o);
      BA1.unsafe_set s.State.stamps i (BA1.unsafe_get p.stamps o);
      s.State.bases.(i) <- p.bases.(o);
      FA.blit p.pos (o * m * dim) s.State.pos (i * m * dim) (m * dim);
      FA.blit p.depth (o * m) s.State.depth (i * m) m)
    order;
  s

let state t =
  {
    State.dim = t.dim;
    samples_per_cell = t.t_samples;
    grids = Array.init (grid_count t) (capture_grid t);
  }

(* The grid collection a state of this shape lives on, derived from the
   config alone. The config is validated without its [stats] field,
   whose validation switches recording on or off: a decoder calls this
   too, and decoding must not change what is recorded. *)
let grids_of ~cfg (st : State.t) =
  Config.validate { cfg with Config.stats = None };
  if st.State.dim < 1 then invalid_arg "Sample_space: dimension must be >= 1";
  if st.State.samples_per_cell < 1 then
    invalid_arg "Sample_space: samples_per_cell must be >= 1";
  State.check_shape st;
  let dim = st.State.dim in
  (* Counted before anything is built, so a state claiming a huge
     collection is refused without building it. *)
  if
    Shifted_grids.count_for ?cap:cfg.Config.max_grid_shifts ~dim
      ~side:(Config.grid_side cfg ~dim) ~delta:(Config.grid_delta cfg) ()
    <> float_of_int (Array.length st.State.grids)
  then invalid_arg "Sample_space: grid count disagrees with the config";
  fst (make_grids ~dim ~cfg)

let redraw ~cfg (st : State.t) =
  let grids = grids_of ~cfg st in
  let dim = st.State.dim and m = st.State.samples_per_cell in
  let key = Array.make dim 0 in
  Array.iteri
    (fun gi (g : State.grid) ->
      let grid = grids.Shifted_grids.grids.(gi) in
      for i = 0 to State.cells g - 1 do
        Array.blit g.State.keys (i * dim) key 0 dim;
        draw_cell
          (Rng.of_state (BA1.unsafe_get g.State.stamps i))
          grid key ~m g.State.pos ~at:(i * m * dim)
      done)
    st.State.grids

(* Grid [gi]'s rows adopted from its state: the state's columns become
   page 0, the cached max and argmax are computed, and the index is
   built in one pass over the rows. *)
let adopt_grid ~dim ~m ~count gi grid (g : State.grid) =
  let n = State.cells g in
  for i = 0 to n - 1 do
    if g.State.nballs.(i) < 1 then
      invalid_arg "Sample_space.restore: a live cell without a ball";
    let base = g.State.bases.(i) in
    if base < 0 || base mod count <> gi then
      invalid_arg "Sample_space.restore: a base id outside its grid"
  done;
  let page =
    {
      keys = g.State.keys;
      nballs = g.State.nballs;
      stamps = g.State.stamps;
      bases = g.State.bases;
      best = Array.make n 0;
      slot = Array.make n (-1);
      maxd = FA.create n;
      depth = g.State.depth;
      pos = g.State.pos;
      flag = [||];
    }
  in
  let rows =
    make_rows grid (Rng.of_state g.State.rng) ~next_id:g.State.next_id
      ~shift:(max_page_shift ~dim ~m) page
  in
  let key = Array.make dim 0 in
  for i = 0 to n - 1 do
    (* The cached max and argmax seed the owner's heap: the depths'
       first maximum, the strict [>] scan of the update loops. *)
    let best = first_max page.depth ~pos:(i * m) ~len:m in
    page.best.(i) <- best;
    FA.unsafe_set page.maxd i (FA.unsafe_get page.depth ((i * m) + best));
    Array.blit page.keys (i * dim) key 0 dim;
    let h = hash_key key in
    let s = find_slot ~dim rows key h in
    if slot_row rows s >= 0 then
      invalid_arg "Sample_space.restore: a cell key twice in one grid";
    set_slot rows s i h
  done;
  rows.live <- n;
  rows

let restore ~cfg (st : State.t) =
  Config.validate cfg;
  let grids = grids_of ~cfg st in
  let dim = st.State.dim and m = st.State.samples_per_cell in
  let count = Shifted_grids.count grids in
  {
    dim;
    cfg;
    grids;
    rows =
      Array.mapi
        (fun gi g ->
          adopt_grid ~dim ~m ~count gi grids.Shifted_grids.grids.(gi) g)
        st.State.grids;
    t_samples = m;
    stride = count;
    gbits = ceil_log2 count;
    hook = ignore;
  }
