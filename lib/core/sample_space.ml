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
  mutable version : int;
}

(* Struct-of-arrays cell: every per-sample field lives in its own flat
   column, so the per-update scan reads and writes unboxed floats and
   machine ints only — zero allocation per ball update. Per-cell columns
   are [floatarray] (not Bigarray): cells are created in bulk during a
   solve and the columns are small, so minor-heap allocation beats a
   malloc per column. *)
type cell = {
  ids : int array;
  posf : floatarray;
      (** the samples' positions flattened row-major (sample, axis),
          immutable after creation: the per-update containment scan
          streams this unboxed column instead of chasing one [Point.t]
          block per sample. This is the only copy of the positions —
          {!Sphere.fill_on} draws straight into it, and the snapshot
          view materializes points from it on demand. *)
  depth : floatarray;
  flag : int array;
  sver : int array;
  mutable nballs : int;
  mutable max_depth : float;  (** cached max over [depth] *)
  mutable best : int;  (** index of a sample attaining [max_depth] *)
  mutable cversion : int;  (** bumped whenever [max_depth]/[best] change *)
}

(* Materialize the snapshot view of sample [si]: every field is a copy
   ([pos] is rebuilt from the flat position column), so mutating the
   view does not write back. *)
let sample_of c si =
  let n = Array.length c.ids in
  let dim = FA.length c.posf / n in
  {
    id = Array.unsafe_get c.ids si;
    pos = Array.init dim (fun k -> FA.unsafe_get c.posf ((si * dim) + k));
    depth = FA.unsafe_get c.depth si;
    flag = Array.unsafe_get c.flag si;
    version = Array.unsafe_get c.sver si;
  }

(* All per-grid state lives in per-grid array slots (table, rng stream,
   id counter, cell counter): work sharded by grid index touches disjoint
   state, so grids can be built on different domains with no locking and
   no cross-grid ordering effects. Each grid's rng stream is derived with
   [Rng.split_at] keyed by the grid index — not by insertion order — so a
   grid's sample positions depend only on the operations applied to that
   grid, never on how work was interleaved across grids. *)
(* Odometer scratch for the grid-key enumeration, one per grid so the
   sharded [*_in_grid] operations keep touching disjoint state. *)
type scratch = { sc_lo : int array; sc_hi : int array; sc_key : int array }

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
  scratch : scratch array;
  mutable hook : cell -> unit;
}

let make_scratch ~dim count =
  Array.init count (fun _ ->
      {
        sc_lo = Array.make dim 0;
        sc_hi = Array.make dim 0;
        sc_key = Array.make dim 0;
      })

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
    scratch = make_scratch ~dim count;
    hook = ignore;
  }

let dim t = t.dim
let samples_per_cell t = t.t_samples
let grid_count t = Shifted_grids.count t.grids
let cell_count t = Array.fold_left ( + ) 0 t.n_cells
let sample_count t = cell_count t * t.t_samples
let on_cell_change t f = t.hook <- f

let cell_max c = c.max_depth
let cell_best c = sample_of c c.best
let cell_version c = c.cversion

(* The first sample's id doubles as a cell identifier: ids are unique
   across the structure and assigned at materialization, so the uid is a
   deterministic function of the per-grid operation history — a stable
   tie-breaking key that survives serialization. *)
let cell_uid c = c.ids.(0)

(* Sample ids are [local * stride + grid], so the uid folds back to the
   owning grid — the sharded dynamic store routes a changed cell to the
   heap of the shard that owns its grid with this. *)
let grid_of_cell t c = cell_uid c mod t.stride
let cell_count_in_grid t ~grid = t.n_cells.(grid)

let new_cell t gi grid key =
  let center = Grid.cell_center grid key in
  let radius = Grid.cell_circumradius grid in
  let rng = t.rngs.(gi) in
  let m = t.t_samples in
  let ids = Array.make m 0 in
  for si = 0 to m - 1 do
    let local = t.next_ids.(gi) in
    t.next_ids.(gi) <- local + 1;
    Array.unsafe_set ids si ((local * t.stride) + gi)
  done;
  t.n_cells.(gi) <- t.n_cells.(gi) + 1;
  Obs.incr c_cells;
  Obs.add c_drawn m;
  (* [fill_on] draws ascending, one draw per sample — the exact stream
     and coordinate bits of the old per-sample [Sphere.sample_on] loop,
     written straight into the flat column. *)
  let posf = FA.create (m * t.dim) in
  Sphere.fill_on rng ~center ~radius posf;
  {
    ids;
    posf;
    depth = FA.make m 0.;
    flag = Array.make m (-1);
    sver = Array.make m 0;
    nballs = 0;
    max_depth = 0.;
    best = 0;
    cversion = 0;
  }

(* Visit every cell of grid [gi] intersected by the unit ball at
   [center], materializing absent cells. Uses the grid's odometer
   scratch and the raising [Tbl.find] so the already-materialized path
   allocates nothing. *)
let iter_cells_in_grid t gi ~center f =
  let table = t.tables.(gi) in
  let grid = t.grids.Shifted_grids.grids.(gi) in
  let sc = t.scratch.(gi) in
  Grid.iter_keys_intersecting_into grid ~lo:sc.sc_lo ~hi:sc.sc_hi ~key:sc.sc_key
    ~center ~radius:1. (fun key ->
      let cell =
        match Grid.Tbl.find table key with
        | c -> c
        | exception Not_found ->
            let c = new_cell t gi grid key in
            Grid.Tbl.add table (Array.copy key) c;
            c
      in
      f table key cell)

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
   unboxed mutable registers. *)

(* Refresh the cached max/argmax after a sample scan marked changes. *)
let refresh_cell t cell changed mx arg =
  if changed && (mx <> cell.max_depth || arg <> cell.best) then begin
    cell.max_depth <- mx;
    cell.best <- arg;
    cell.cversion <- cell.cversion + 1;
    t.hook cell
  end

(* Apply [update] to every sample of [cell] inside the unit ball at
   [center], then refresh the cell's cached max/argmax in the same pass
   and fire the hook if it moved. Generic (closure-driven) variant for
   custom depth notions — [update si] may rewrite [cell.depth.(si)] and
   reports whether it did; the weighted/colored hot paths below are
   hand-specialized copies of the same loop. The argmax scan takes the
   first maximum (strict [>]), matching the old record scan. *)
let update_cell t cell ~center update =
  let n = Array.length cell.ids in
  Obs.add c_visited n;
  let dim = t.dim in
  let posf = cell.posf and depth = cell.depth and sver = cell.sver in
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
    if !d2 <= r2 && update si then begin
      Array.unsafe_set sver si (Array.unsafe_get sver si + 1);
      changed := true
    end;
    let d = FA.unsafe_get depth si in
    if d > !mx then begin
      mx := d;
      arg := si
    end
  done;
  refresh_cell t cell !changed !mx !arg

(* [update_cell] specialized to an unconditional depth delta: no update
   closure, no per-sample indirection, and — with the depth column
   unboxed — no allocation. Deletion passes a negated weight
   ([x +. (-.w)] and [x -. w] are the same IEEE operation, so the result
   is bit-identical to the old subtracting closure). *)
let update_cell_add t cell ~center ~delta =
  let n = Array.length cell.ids in
  Obs.add c_visited n;
  let dim = t.dim in
  let posf = cell.posf and depth = cell.depth and sver = cell.sver in
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
      FA.unsafe_set depth si (FA.unsafe_get depth si +. delta);
      Array.unsafe_set sver si (Array.unsafe_get sver si + 1);
      changed := true
    end;
    let d = FA.unsafe_get depth si in
    if d > !mx then begin
      mx := d;
      arg := si
    end
  done;
  refresh_cell t cell !changed !mx !arg

(* [update_cell] specialized to the colored flag test. *)
let update_cell_color t cell ~center ~color =
  let n = Array.length cell.ids in
  Obs.add c_visited n;
  let dim = t.dim in
  let posf = cell.posf
  and depth = cell.depth
  and sver = cell.sver
  and flag = cell.flag in
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
      Array.unsafe_set sver si (Array.unsafe_get sver si + 1);
      changed := true
    end;
    let d = FA.unsafe_get depth si in
    if d > !mx then begin
      mx := d;
      arg := si
    end
  done;
  refresh_cell t cell !changed !mx !arg

(* The insertion hot path, hand-fused: cell lookup/materialization and
   the [update_cell_add] scan in one closure, no per-cell calls. The
   generic composition ([iter_cells_in_grid] + [update_cell_add]) costs
   two boxed floats per visited cell — the [~delta] argument and the
   [refresh_cell] max — because the backend boxes float arguments of
   non-inlined calls; at O(1) cells per grid per ball that was the
   largest remaining per-insert allocation. Deletion and the generic/
   colored updates keep the composable path. *)
let insert_in_grid t ~grid:gi ~center ~weight =
  assert (Point.dim center = t.dim);
  let table = t.tables.(gi) in
  let grid = t.grids.Shifted_grids.grids.(gi) in
  let sc = t.scratch.(gi) in
  let dim = t.dim in
  Grid.iter_keys_intersecting_into grid ~lo:sc.sc_lo ~hi:sc.sc_hi
    ~key:sc.sc_key ~center ~radius:1. (fun key ->
      let cell =
        match Grid.Tbl.find table key with
        | c -> c
        | exception Not_found ->
            let c = new_cell t gi grid key in
            Grid.Tbl.add table (Array.copy key) c;
            c
      in
      cell.nballs <- cell.nballs + 1;
      let n = Array.length cell.ids in
      Obs.add c_visited n;
      let posf = cell.posf and depth = cell.depth and sver = cell.sver in
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
          FA.unsafe_set depth si (FA.unsafe_get depth si +. weight);
          Array.unsafe_set sver si (Array.unsafe_get sver si + 1);
          changed := true
        end;
        let d = FA.unsafe_get depth si in
        if d > !mx then begin
          mx := d;
          arg := si
        end
      done;
      if !changed && (!mx <> cell.max_depth || !arg <> cell.best) then begin
        cell.max_depth <- !mx;
        cell.best <- !arg;
        cell.cversion <- cell.cversion + 1;
        t.hook cell
      end)

let insert t ~center ~weight =
  assert (Point.dim center = t.dim);
  for gi = 0 to grid_count t - 1 do
    insert_in_grid t ~grid:gi ~center ~weight
  done

let delete_in_grid t ~grid:gi ~center ~weight =
  assert (Point.dim center = t.dim);
  iter_cells_in_grid t gi ~center (fun table key cell ->
      cell.nballs <- cell.nballs - 1;
      assert (cell.nballs >= 0);
      update_cell_add t cell ~center ~delta:(-.weight);
      if cell.nballs = 0 then begin
        (* Invalidate so stale heap entries are detectable. *)
        cell.max_depth <- Float.neg_infinity;
        cell.cversion <- cell.cversion + 1;
        for si = 0 to Array.length cell.ids - 1 do
          Array.unsafe_set cell.sver si (Array.unsafe_get cell.sver si + 1);
          FA.unsafe_set cell.depth si Float.neg_infinity
        done;
        t.hook cell;
        Grid.Tbl.remove table key;
        t.n_cells.(gi) <- t.n_cells.(gi) - 1
      end)

let delete t ~center ~weight =
  for gi = 0 to grid_count t - 1 do
    delete_in_grid t ~grid:gi ~center ~weight
  done

(* Generic insertion: [f] returns the depth delta for each sample of an
   intersected cell lying inside the ball (0 = unchanged). Counts as a
   ball insertion for cell reference counting. [f] receives a snapshot
   view of the sample (materialized per visited in-ball sample). *)
let insert_with t ~center ~f =
  assert (Point.dim center = t.dim);
  iter_cells t ~center (fun _table _key cell ->
      cell.nballs <- cell.nballs + 1;
      update_cell t cell ~center (fun si ->
          let delta = f (sample_of cell si) in
          if delta <> 0. then begin
            FA.unsafe_set cell.depth si
              (FA.unsafe_get cell.depth si +. delta);
            true
          end
          else false))

let touch_colored_in_grid t ~grid ~center ~color =
  assert (Point.dim center = t.dim);
  assert (color >= 0);
  iter_cells_in_grid t grid ~center (fun _table _key cell ->
      cell.nballs <- cell.nballs + 1;
      update_cell_color t cell ~center ~color)

let iter_samples t f =
  Array.iter
    (fun table ->
      Grid.Tbl.iter
        (fun _ cell ->
          for si = 0 to Array.length cell.ids - 1 do
            f (sample_of cell si)
          done)
        table)
    t.tables

let iter_live_cells t f =
  Array.iter (fun table -> Grid.Tbl.iter (fun _ cell -> f cell) table) t.tables

let iter_live_cells_in_grid t ~grid f =
  Grid.Tbl.iter (fun _ cell -> f cell) t.tables.(grid)

(* Test support: check the structural invariants against the caller's
   record of live balls — every materialized cell is intersected by
   exactly [nballs] live balls, every cell intersected by some live ball
   is materialized, and every cached cell max matches its samples. *)
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
          let mx = ref Float.neg_infinity in
          for si = 0 to Array.length cell.ids - 1 do
            mx := Float.max !mx (FA.get cell.depth si)
          done;
          if Float.abs (!mx -. cell.max_depth) > 1e-9 then ok := false)
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
      | Some b when cell_max b >= c.max_depth -> ()
      | _ -> best := Some c)
    t.tables.(gi);
  !best

let best t =
  let best = ref None in
  for gi = 0 to grid_count t - 1 do
    match best_cell_in_grid t gi with
    | Some c -> (
        match !best with
        | Some b when cell_max b >= c.max_depth -> ()
        | _ -> best := Some c)
    | None -> ()
  done;
  match !best with
  | Some c when c.max_depth > Float.neg_infinity -> Some (cell_best c)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Durable state capture.

   [state] is a canonical copy of everything mutable: per-grid rng
   stream states, id counters, and every live cell with its samples'
   exact float bit patterns. Balls are not part of this layer (the
   dynamic structure owns them), so two structures that behave
   identically capture identical states — the bit-for-bit comparison
   the crash-recovery harness relies on.

   The capture is columnar: per grid, one flat column per cell or
   sample field, cells in ascending key order. Taking it is a key sort
   plus one copy of each cell's columns into the grid's; the codec
   streams the columns straight into the wire format and decodes
   straight back into them.

   [restore] rebuilds the deterministic parts (the grid collection) from
   the config and slices every cell's columns back out of the grid's.
   The hash tables are repopulated in key order; no observable
   behaviour depends on their internal layout — the dynamic structure's
   heap uses a total order over (depth, cell uid, version), and epoch
   rebuilds iterate balls in sorted handle order. *)
module State = struct
  type grid = {
    rng : int64;
    next_id : int;
    keys : int array;  (** [cells * dim] cell keys, ascending *)
    nballs : int array;
    cversion : int array;
    cmax : floatarray;
    best : int array;
    ids : int array;  (** [cells * samples_per_cell] *)
    pos : floatarray;  (** [cells * samples_per_cell * dim] *)
    depth : floatarray;
    flag : int array;
    sver : int array;
  }

  type t = { dim : int; samples_per_cell : int; grids : grid array }

  let cells g = Array.length g.nballs

  let check_shape st =
    let dim = st.dim and m = st.samples_per_cell in
    Array.iter
      (fun g ->
        let n = cells g in
        if
          Array.length g.keys <> n * dim
          || Array.length g.cversion <> n
          || FA.length g.cmax <> n
          || Array.length g.best <> n
          || Array.length g.ids <> n * m
          || FA.length g.pos <> n * m * dim
          || FA.length g.depth <> n * m
          || Array.length g.flag <> n * m
          || Array.length g.sver <> n * m
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
      cversion = Array.make n 0;
      cmax = FA.create n;
      best = Array.make n 0;
      ids = Array.make (n * m) 0;
      pos = FA.create (n * m * dim);
      depth = FA.create (n * m);
      flag = Array.make (n * m) 0;
      sver = Array.make (n * m) 0;
    }
  in
  Array.iteri
    (fun i (key, c) ->
      blit_ints key 0 g.State.keys (i * dim) dim;
      g.State.nballs.(i) <- c.nballs;
      g.State.cversion.(i) <- c.cversion;
      FA.set g.State.cmax i c.max_depth;
      g.State.best.(i) <- c.best;
      blit_ints c.ids 0 g.State.ids (i * m) m;
      FA.blit c.posf 0 g.State.pos (i * m * dim) (m * dim);
      FA.blit c.depth 0 g.State.depth (i * m) m;
      blit_ints c.flag 0 g.State.flag (i * m) m;
      blit_ints c.sver 0 g.State.sver (i * m) m)
    cells;
  g

let state t =
  {
    State.dim = t.dim;
    samples_per_cell = t.t_samples;
    grids = Array.init (grid_count t) (capture_grid t);
  }

let restore ~cfg (st : State.t) =
  Config.validate cfg;
  let dim = st.State.dim and m = st.State.samples_per_cell in
  if dim < 1 then invalid_arg "Sample_space.restore: dimension must be >= 1";
  if m < 1 then
    invalid_arg "Sample_space.restore: samples_per_cell must be >= 1";
  let grids, _rng = make_grids ~dim ~cfg in
  let count = Shifted_grids.count grids in
  if count <> Array.length st.State.grids then
    invalid_arg "Sample_space.restore: grid count disagrees with the config";
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
      scratch = make_scratch ~dim count;
      hook = ignore;
    }
  in
  State.check_shape st;
  Array.iteri
    (fun gi (g : State.grid) ->
      for i = 0 to State.cells g - 1 do
        let best = g.State.best.(i) in
        if best < 0 || best >= m then
          invalid_arg "Sample_space.restore: best index out of range";
        let cell =
          {
            ids = Array.sub g.State.ids (i * m) m;
            posf = FA.sub g.State.pos (i * m * dim) (m * dim);
            depth = FA.sub g.State.depth (i * m) m;
            flag = Array.sub g.State.flag (i * m) m;
            sver = Array.sub g.State.sver (i * m) m;
            nballs = g.State.nballs.(i);
            max_depth = FA.get g.State.cmax i;
            best;
            cversion = g.State.cversion.(i);
          }
        in
        Grid.Tbl.add t.tables.(gi) (Array.sub g.State.keys (i * dim) dim) cell
      done)
    st.State.grids;
  t
