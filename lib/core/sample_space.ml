module Point = Maxrs_geom.Point
module Ball = Maxrs_geom.Ball
module Closed = Maxrs_geom.Closed
module Grid = Maxrs_geom.Grid
module Shifted_grids = Maxrs_geom.Shifted_grids
module Sphere = Maxrs_geom.Sphere
module Rng = Maxrs_geom.Rng
module Obs = Maxrs_obs.Obs
module FA = Float.Array

(* Cells materialized and samples drawn/visited are the primitive
   operations behind Theorems 1.2/1.5: O(n) cells per grid, O(ε⁻²log n)
   samples per cell, and each ball update touches O(1) cells. *)
let c_cells = Obs.counter "grid.cells"
let c_drawn = Obs.counter "samples.drawn"
let c_visited = Obs.counter "samples.visited"

(* The public [sample] record is a materialized snapshot view; the
   working representation is columnar (below). A mixed int/float record
   stores its float field boxed, so the old per-sample records made
   every [depth <- depth +. delta] on the update path allocate a fresh
   boxed float — the dominant allocation of the static solvers. *)
type sample = {
  id : int;
  pos : Point.t;
  mutable depth : float;
  mutable flag : int;
}

(* Struct-of-arrays cell: every per-sample field lives in its own flat
   column, so the per-update scan reads and writes unboxed floats and
   machine ints only — zero allocation per ball update. Per-cell columns
   are [floatarray] (not Bigarray): cells are created in bulk during a
   solve and the columns are small, so minor-heap allocation beats a
   malloc per column. *)
type cell = {
  base : int;
      (** the first sample's id; sample [si]'s is [base + si * stride]
          ([new_cell] numbers a cell's samples consecutively) *)
  stamp : int64;
      (** the grid's rng state just before this cell's positions were
          drawn: {!draw_cell} redraws them from it bit for bit *)
  posf : floatarray;
      (** the samples' positions flattened row-major (sample, axis),
          immutable after creation: the per-update containment scan
          streams this unboxed column instead of chasing one [Point.t]
          block per sample. This is the only copy of the positions —
          {!draw_cell} draws straight into it, and the snapshot view
          materializes points from it on demand. *)
  depth : floatarray;
      (** one slot per sample, then the cached max over them in the
          trailing slot: a float field of this mixed record would be
          boxed, so every refresh of the max would allocate *)
  mutable flag : int array;
      (** colored MaxRS: the last color counted per sample; empty until
          the cell's first colored touch, the only writer *)
  mutable nballs : int;
  mutable best : int;  (** index of the first sample attaining the max *)
  mutable slot : int;  (** the cell's slot in a {!Cell_heap}, -1 if none *)
}

(* Samples in the cell: the depth column has one more slot. *)
let cell_samples c = FA.length c.depth - 1

(* All per-grid state lives in per-grid array slots (table, rng stream,
   id counter, cell counter): work sharded by grid index touches disjoint
   state, so grids can be built on different domains with no locking and
   no cross-grid ordering effects. Each grid's rng stream is derived with
   [Rng.split_at] keyed by the grid index — not by insertion order — so a
   grid's sample positions depend only on the operations applied to that
   grid, never on how work was interleaved across grids. *)
type t = {
  dim : int;
  cfg : Config.t;
  grids : Shifted_grids.t;
  tables : cell Grid.Tbl.t array;
  rngs : Rng.t array;
  t_samples : int;
  stride : int;  (** grid count; sample ids are [local * stride + grid] *)
  next_ids : int array;
  n_cells : int array;
  cursors : Grid.cursor array;
      (** one key enumeration per grid, so the sharded [*_in_grid]
          operations keep touching disjoint state *)
  mutable hook : cell -> unit;
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

let create ~dim ~cfg ~expected_n =
  Config.validate cfg;
  let grids, rng = make_grids ~dim ~cfg in
  let count = Shifted_grids.count grids in
  {
    dim;
    cfg;
    grids;
    tables = Array.init count (fun _ -> Grid.Tbl.create 256);
    rngs = Array.init count (fun gi -> Rng.split_at rng gi);
    t_samples = Config.samples_per_cell cfg ~n:expected_n;
    stride = count;
    next_ids = Array.make count 0;
    n_cells = Array.make count 0;
    cursors = Array.map Grid.cursor grids.Shifted_grids.grids;
    hook = ignore;
  }

(* Materialize the snapshot view of sample [si]: every field is a copy
   ([pos] is rebuilt from the flat position column), so mutating the
   view does not write back. *)
let sample_of t c si =
  let dim = t.dim in
  {
    id = c.base + (si * t.stride);
    pos = Array.init dim (fun k -> FA.unsafe_get c.posf ((si * dim) + k));
    depth = FA.unsafe_get c.depth si;
    flag = (if Array.length c.flag = 0 then -1 else c.flag.(si));
  }

let dim t = t.dim
let samples_per_cell t = t.t_samples
let grid_count t = Shifted_grids.count t.grids
let cell_count t = Array.fold_left ( + ) 0 t.n_cells
let sample_count t = cell_count t * t.t_samples
let on_cell_change t f = t.hook <- f

let cell_max c = FA.unsafe_get c.depth (cell_samples c)
let cell_max_column c = c.depth
let cell_best t c = sample_of t c c.best
let cell_slot c = c.slot
let set_cell_slot c i = c.slot <- i

(* The first sample's id doubles as a cell identifier: ids are unique
   across the structure and assigned at materialization, so the uid is a
   deterministic function of the per-grid operation history — a stable
   tie-breaking key that survives serialization. *)
let cell_uid c = c.base

(* Sample ids are [local * stride + grid], so the uid folds back to the
   owning grid — the sharded dynamic store routes a changed cell to the
   heap of the shard that owns its grid with this. *)
let grid_of_cell t c = cell_uid c mod t.stride

(* The sampling step behind Lemma 3.1, and the only place positions are
   drawn: the cell's samples, uniform on the circumsphere of the cell at
   [key] of [grid], from [rng] standing at the cell's stamp. [fill_on]
   draws ascending, one draw per sample, straight into the flat column.
   [new_cell] draws from the grid's live stream; {!redraw} draws a
   decoded state's positions again from each cell's stamp. *)
let draw_cell rng grid key posf =
  Sphere.fill_on rng ~center:(Grid.cell_center grid key)
    ~radius:(Grid.cell_circumradius grid) posf

let new_cell t gi grid key =
  let rng = t.rngs.(gi) in
  let m = t.t_samples in
  let local = t.next_ids.(gi) in
  t.next_ids.(gi) <- local + m;
  t.n_cells.(gi) <- t.n_cells.(gi) + 1;
  Obs.incr c_cells;
  Obs.add c_drawn m;
  let stamp = Rng.state rng in
  let posf = FA.create (m * t.dim) in
  draw_cell rng grid key posf;
  {
    base = (local * t.stride) + gi;
    stamp;
    posf;
    depth = FA.make (m + 1) 0.;
    flag = [||];
    nballs = 0;
    best = 0;
    slot = -1;
  }

(* The cell of grid [gi] at [key] ([table]/[grid] are the grid's),
   materialized if absent. The raising [Tbl.find] keeps the
   already-materialized path allocation-free. *)
let cell_at t gi table grid key =
  match Grid.Tbl.find table key with
  | c -> c
  | exception Not_found ->
      let c = new_cell t gi grid key in
      Grid.Tbl.add table (Array.copy key) c;
      c

(* Visit every cell of grid [gi] intersected by the unit ball at
   [center], materializing absent cells, with the grid's cursor. *)
let iter_cells_in_grid t gi ~center f =
  let table = t.tables.(gi) in
  let grid = t.grids.Shifted_grids.grids.(gi) in
  let cur = t.cursors.(gi) in
  Grid.start cur ~center ~radius:1.;
  while Grid.next cur do
    f (cell_at t gi table grid (Grid.cursor_key cur))
  done

let iter_cells t ~center f =
  for gi = 0 to grid_count t - 1 do
    iter_cells_in_grid t gi ~center f
  done

(* The three update loops below each inline the same squared-distance
   scan over [posf] — accumulated in ascending axis order, bit-identical
   to [Point.dist2 spos.(si) center] — rather than calling a shared
   helper: the backend never inlines a function containing a loop, and
   a real call would box its float result once per sample visit, on the
   hottest path of the static solvers. The local float refs compile to
   unboxed mutable registers. Each scan also finds the cell's first
   maximum (strict [>]) and hands its index to [refresh_cell]. *)

(* Refresh the cached max/argmax after a sample scan found the first
   maximum at [arg]. The max is read back from the depth column rather
   than passed in, since a float argument of a call would be boxed. *)
let refresh_cell t cell ~changed ~arg =
  let m = cell_samples cell in
  let mx = FA.unsafe_get cell.depth arg in
  if changed && (mx <> FA.unsafe_get cell.depth m || arg <> cell.best)
  then begin
    FA.unsafe_set cell.depth m mx;
    cell.best <- arg;
    t.hook cell
  end

(* Apply [update] to every sample of [cell] inside the unit ball at
   [center], then refresh the cell's cached max/argmax in the same pass
   and fire the hook if it moved. Generic (closure-driven) variant for
   custom depth notions — [update si] may rewrite [cell.depth.(si)] and
   reports whether it did; the weighted/colored hot paths below are
   hand-specialized copies of the same loop. *)
let update_cell t cell ~center update =
  let n = cell_samples cell in
  Obs.add c_visited n;
  let dim = t.dim in
  let posf = cell.posf and depth = cell.depth in
  let changed = ref false in
  let mx = ref Float.neg_infinity and arg = ref 0 in
  let r2 = Closed.unit_r2 in
  for si = 0 to n - 1 do
    let d2 = ref 0. in
    for k = 0 to dim - 1 do
      let d =
        FA.unsafe_get posf ((si * dim) + k) -. Array.unsafe_get center k
      in
      d2 := !d2 +. (d *. d)
    done;
    if !d2 <= r2 && update si then changed := true;
    let d = FA.unsafe_get depth si in
    if d > !mx then begin
      mx := d;
      arg := si
    end
  done;
  refresh_cell t cell ~changed:!changed ~arg:!arg

(* [update_cell] specialized to the colored flag test. The flag column
   is allocated here, on the cell's first colored touch: weighted cells
   never carry one. *)
let update_cell_color t cell ~center ~color =
  let n = cell_samples cell in
  Obs.add c_visited n;
  if Array.length cell.flag = 0 then cell.flag <- Array.make n (-1);
  let dim = t.dim in
  let posf = cell.posf and depth = cell.depth and flag = cell.flag in
  let changed = ref false in
  let mx = ref Float.neg_infinity and arg = ref 0 in
  let r2 = Closed.unit_r2 in
  for si = 0 to n - 1 do
    let d2 = ref 0. in
    for k = 0 to dim - 1 do
      let d =
        FA.unsafe_get posf ((si * dim) + k) -. Array.unsafe_get center k
      in
      d2 := !d2 +. (d *. d)
    done;
    if !d2 <= r2 && Array.unsafe_get flag si <> color then begin
      Array.unsafe_set flag si color;
      FA.unsafe_set depth si (FA.unsafe_get depth si +. 1.);
      changed := true
    end;
    let d = FA.unsafe_get depth si in
    if d > !mx then begin
      mx := d;
      arg := si
    end
  done;
  refresh_cell t cell ~changed:!changed ~arg:!arg

(* The weighted update, insertion ([count] = 1) and deletion ([count] =
   -1) alike, hand-fused: the key enumeration, cell
   lookup/materialization, the refcount and the [update_cell] scan in
   one loop per grid, with nothing allocated per grid or per visited
   cell. Deletion subtracts the weight, the IEEE operation
   [x +. (-.w)], so the depths are bit-identical to adding the negated
   weight. A cell whose refcount reaches zero is dropped: its cached
   max becomes [neg_infinity] and the hook fires once more, so a heap
   indexing it takes it out. Only insertion can meet a missing cell —
   every cell a live ball intersects is materialized. *)
let add_in_grid t gi ~center ~weight ~count =
  assert (Point.dim center = t.dim);
  let table = t.tables.(gi) in
  let grid = t.grids.Shifted_grids.grids.(gi) in
  let cur = t.cursors.(gi) in
  let dim = t.dim in
  Grid.start cur ~center ~radius:1.;
  while Grid.next cur do
    let key = Grid.cursor_key cur in
    let cell = cell_at t gi table grid key in
    let nballs = cell.nballs + count in
    assert (nballs >= 0);
    cell.nballs <- nballs;
    let n = cell_samples cell in
    Obs.add c_visited n;
    let posf = cell.posf and depth = cell.depth in
    let changed = ref false in
    let mx = ref Float.neg_infinity and arg = ref 0 in
    let r2 = Closed.unit_r2 in
    for si = 0 to n - 1 do
      let d2 = ref 0. in
      for k = 0 to dim - 1 do
        let d =
          FA.unsafe_get posf ((si * dim) + k) -. Array.unsafe_get center k
        in
        d2 := !d2 +. (d *. d)
      done;
      if !d2 <= r2 then begin
        let d = FA.unsafe_get depth si in
        FA.unsafe_set depth si (if count > 0 then d +. weight else d -. weight);
        changed := true
      end;
      let d = FA.unsafe_get depth si in
      if d > !mx then begin
        mx := d;
        arg := si
      end
    done;
    if nballs > 0 then refresh_cell t cell ~changed:!changed ~arg:!arg
    else begin
      FA.unsafe_set depth n Float.neg_infinity;
      t.hook cell;
      Grid.Tbl.remove table key;
      t.n_cells.(gi) <- t.n_cells.(gi) - 1
    end
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
  iter_cells t ~center (fun cell ->
      cell.nballs <- cell.nballs + 1;
      update_cell t cell ~center (fun si ->
          let delta = f (sample_of t cell si) in
          if delta <> 0. then begin
            FA.unsafe_set cell.depth si
              (FA.unsafe_get cell.depth si +. delta);
            true
          end
          else false))

let touch_colored_in_grid t ~grid ~center ~color =
  assert (Point.dim center = t.dim);
  assert (color >= 0);
  iter_cells_in_grid t grid ~center (fun cell ->
      cell.nballs <- cell.nballs + 1;
      update_cell_color t cell ~center ~color)

let iter_samples t f =
  Array.iter
    (fun table ->
      Grid.Tbl.iter
        (fun _ cell ->
          for si = 0 to cell_samples cell - 1 do
            f (sample_of t cell si)
          done)
        table)
    t.tables

let iter_live_cells t f =
  Array.iter (fun table -> Grid.Tbl.iter (fun _ cell -> f cell) table) t.tables

(* Offset from [pos] of the first maximum of the [len] depths there:
   the strict [>] scan of the update loops, so a cell's cached argmax
   is exactly this index and its cached max the depth it names. *)
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

(* Test support: check the structural invariants against the caller's
   record of live balls — every materialized cell is intersected by
   exactly [nballs] live balls, every cell intersected by some live ball
   is materialized, and every cached cell max and argmax is its samples'
   first maximum. *)
let validate t ~live =
  let ok = ref true in
  let expected : int Grid.Tbl.t array =
    Array.map (fun _ -> Grid.Tbl.create 64) t.tables
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
    (fun gi tbl ->
      let exp = expected.(gi) in
      if Grid.Tbl.length tbl <> Grid.Tbl.length exp then ok := false;
      Grid.Tbl.iter
        (fun key cell ->
          (match Grid.Tbl.find_opt exp key with
          | Some count when count = cell.nballs -> ()
          | _ -> ok := false);
          let arg = first_max cell.depth ~pos:0 ~len:(cell_samples cell) in
          if arg <> cell.best || FA.get cell.depth arg <> cell_max cell then
            ok := false)
        tbl)
    t.tables;
  !ok

(* Per-grid argmax, then a merge in grid-index order, both keeping the
   earlier candidate on ties — the same answer as one scan over all
   cells, but computable shard-by-shard. *)
let best_cell_in_grid t gi =
  let best = ref None in
  Grid.Tbl.iter
    (fun _ c ->
      match !best with
      | Some b when cell_max b >= cell_max c -> ()
      | _ -> best := Some c)
    t.tables.(gi);
  !best

let best t =
  let best = ref None in
  for gi = 0 to grid_count t - 1 do
    match best_cell_in_grid t gi with
    | Some c -> (
        match !best with
        | Some b when cell_max b >= cell_max c -> ()
        | _ -> best := Some c)
    | None -> ()
  done;
  match !best with
  | Some c when cell_max c > Float.neg_infinity -> Some (cell_best t c)
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

   The capture is columnar: per grid, one flat column per cell or
   sample field, cells in ascending key order. Taking it is a key sort
   plus one copy of each cell's columns into the grid's.

   [restore] rebuilds the deterministic parts (the grid collection) from
   the config and slices every cell's columns back out of the grid's.
   The hash tables are repopulated in key order; no observable
   behaviour depends on their internal layout — the dynamic structure's
   heap uses a total order over (depth, cell uid), and epoch rebuilds
   iterate balls in sorted handle order. *)
module State = struct
  type stamps = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

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
  let create_stamps n : stamps =
    Bigarray.Array1.create Bigarray.Int64 Bigarray.c_layout n

  let check_shape st =
    let dim = st.dim and m = st.samples_per_cell in
    Array.iter
      (fun g ->
        let n = cells g in
        if
          Array.length g.keys <> n * dim
          || Bigarray.Array1.dim g.stamps <> n
          || Array.length g.bases <> n
          || FA.length g.pos <> n * m * dim
          || FA.length g.depth <> n * m
        then
          invalid_arg
            "Sample_space.State: column lengths disagree with dim and \
             samples_per_cell")
      st.grids
end

(* Lexicographic order on keys of one length — the order
   [Stdlib.compare] gives them, without its polymorphic dispatch. *)
let compare_keys (a : int array) (b : int array) =
  let n = Array.length a and k = ref 0 in
  while !k < n && Array.unsafe_get a !k = Array.unsafe_get b !k do
    incr k
  done;
  if !k = n then 0
  else Int.compare (Array.unsafe_get a !k) (Array.unsafe_get b !k)

(* [Array.blit] writes an old-generation [int array] through the write
   barrier, one call per slot; a typed loop is plain stores. *)
let blit_ints (src : int array) spos (dst : int array) dpos len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst (dpos + i) (Array.unsafe_get src (spos + i))
  done

let capture_grid t gi =
  let cells =
    Grid.Tbl.fold (fun key c acc -> (key, c) :: acc) t.tables.(gi) []
    |> Array.of_list
  in
  Array.sort (fun (a, _) (b, _) -> compare_keys a b) cells;
  let n = Array.length cells and dim = t.dim and m = t.t_samples in
  let g =
    {
      State.rng = Rng.state t.rngs.(gi);
      next_id = t.next_ids.(gi);
      keys = Array.make (n * dim) 0;
      nballs = Array.make n 0;
      stamps = State.create_stamps n;
      bases = Array.make n 0;
      pos = FA.create (n * m * dim);
      depth = FA.create (n * m);
    }
  in
  Array.iteri
    (fun i (key, c) ->
      if Array.length c.flag > 0 then
        invalid_arg "Sample_space.state: a colored update touched the space";
      blit_ints key 0 g.State.keys (i * dim) dim;
      g.State.nballs.(i) <- c.nballs;
      Bigarray.Array1.unsafe_set g.State.stamps i c.stamp;
      g.State.bases.(i) <- c.base;
      FA.blit c.posf 0 g.State.pos (i * m * dim) (m * dim);
      FA.blit c.depth 0 g.State.depth (i * m) m)
    cells;
  g

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
  (* Sized only when a cell exists, whose bytes then back [m]. *)
  let posf =
    FA.create
      (if Array.exists (fun g -> State.cells g > 0) st.State.grids then m * dim
       else 0)
  in
  Array.iteri
    (fun gi (g : State.grid) ->
      let grid = grids.Shifted_grids.grids.(gi) in
      for i = 0 to State.cells g - 1 do
        blit_ints g.State.keys (i * dim) key 0 dim;
        draw_cell
          (Rng.of_state (Bigarray.Array1.unsafe_get g.State.stamps i))
          grid key posf;
        FA.blit posf 0 g.State.pos (i * m * dim) (m * dim)
      done)
    st.State.grids

let restore ~cfg (st : State.t) =
  Config.validate cfg;
  let grids = grids_of ~cfg st in
  let dim = st.State.dim and m = st.State.samples_per_cell in
  let count = Shifted_grids.count grids in
  let t =
    {
      dim;
      cfg;
      grids;
      tables = Array.init count (fun _ -> Grid.Tbl.create 256);
      rngs = Array.map (fun g -> Rng.of_state g.State.rng) st.State.grids;
      t_samples = m;
      stride = count;
      next_ids = Array.map (fun g -> g.State.next_id) st.State.grids;
      n_cells = Array.map State.cells st.State.grids;
      cursors = Array.map Grid.cursor grids.Shifted_grids.grids;
      hook = ignore;
    }
  in
  Array.iteri
    (fun gi (g : State.grid) ->
      for i = 0 to State.cells g - 1 do
        if g.State.nballs.(i) < 1 then
          invalid_arg "Sample_space.restore: a live cell without a ball";
        let base = g.State.bases.(i) in
        if base < 0 || base mod count <> gi then
          invalid_arg "Sample_space.restore: a base id outside its grid";
        (* The cached max and argmax seed the owner's heap: the depths'
           first maximum, the strict [>] scan of the update loops. *)
        let best = first_max g.State.depth ~pos:(i * m) ~len:m in
        let depth = FA.create (m + 1) in
        FA.blit g.State.depth (i * m) depth 0 m;
        FA.set depth m (FA.get depth best);
        let cell =
          {
            base;
            stamp = Bigarray.Array1.unsafe_get g.State.stamps i;
            posf = FA.sub g.State.pos (i * m * dim) (m * dim);
            depth;
            flag = [||];
            nballs = g.State.nballs.(i);
            best;
            slot = -1;
          }
        in
        Grid.Tbl.add t.tables.(gi) (Array.sub g.State.keys (i * dim) dim) cell
      done)
    st.State.grids;
  t
