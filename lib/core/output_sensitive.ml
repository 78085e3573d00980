module Grid = Maxrs_geom.Grid
module Closed = Maxrs_geom.Closed
module Kern = Maxrs_geom.Kern
module Pstore = Maxrs_geom.Pstore
module Shifted_grids = Maxrs_geom.Shifted_grids
module Rng = Maxrs_geom.Rng
module Colored_depth = Maxrs_union.Colored_depth
module Colored_disk2d = Maxrs_sweep.Colored_disk2d
module Obs = Maxrs_obs.Obs
module Parallel = Maxrs_parallel.Parallel
module Guard = Maxrs_resilience.Guard
module Budget = Maxrs_resilience.Budget
module Outcome = Maxrs_resilience.Outcome

(* Theorem 4.6's O(n log n + n·opt) bound is checked against
   [os.sweep_events]; cells/disks record the grid-bucketing volume after
   the Lemma 4.3 corner trim. Added once per solve from the merged
   per-grid tallies, so the hot per-cell loop carries no
   instrumentation. *)
let c_os_cells = Obs.counter "os.cells"
let c_os_disks = Obs.counter "os.disks"
let c_os_events = Obs.counter "os.sweep_events"

type stats = {
  shifts : int;
  cells_processed : int;
  disks_after_trim : int;
  sweep_events : int;
}

type result = { x : float; y : float; depth : int; stats : stats }

(* Everything one grid of the shifted collection contributes: its best
   placement and its share of the statistics. Grids are independent, so
   these are computed in parallel and merged in grid-index order, which
   reproduces the sequential scan exactly. [g_expired] marks a grid
   whose scan was cut short by the deadline. *)
type grid_result = {
  g_depth : int;
  g_x : float;
  g_y : float;
  g_cells : int;
  g_disks : int;
  g_events : int;
  g_expired : bool;
}

exception Out_of_time

let solve_grid ~budget pts colors dense grid =
  let n = Array.length pts in
  let empty =
    {
      g_depth = 0;
      g_x = fst pts.(0);
      g_y = snd pts.(0);
      g_cells = 0;
      g_disks = 0;
      g_events = 0;
      g_expired = false;
    }
  in
  if Budget.expired budget then { empty with g_expired = true }
  else begin
    (* Bucket disks by the grid cells they intersect. Each bucket is a
       flat index buffer; legacy consed the indices onto a list, so a
       bucket was read in descending index order — downstream consumers
       (the witness tie-breaks of the per-cell sweep) see that order, so
       every bucket traversal below runs back-to-front. One key cursor
       serves the n disks of this grid: zero allocation per (disk,
       cell) pair. *)
    let buckets : Kern.Ibuf.t Grid.Tbl.t = Grid.Tbl.create (4 * n) in
    let cur = Grid.cursor grid in
    let cen = [| 0.; 0. |] in
    Array.iteri
      (fun i (x, y) ->
        cen.(0) <- x;
        cen.(1) <- y;
        Grid.start cur ~center:cen ~radius:1.;
        while Grid.next cur do
          let key = Grid.cursor_key cur in
          match Grid.Tbl.find buckets key with
          | b -> Kern.Ibuf.push b i
          | exception Not_found ->
              let b = Kern.Ibuf.create 8 in
              Kern.Ibuf.push b i;
              Grid.Tbl.add buckets (Array.copy key) b
        done)
      pts;
    (* This grid's best so far: depth, witness (x, y) and tallies, kept
       in mutable slots so a cell adds nothing to the heap. *)
    Colored_depth.Cell.with_scratch @@ fun cell ->
    let depth = ref 0 and cells = ref 0 and disks = ref 0 and events = ref 0 in
    let best = Float.Array.create 2 in
    Float.Array.set best 0 empty.g_x;
    Float.Array.set best 1 empty.g_y;
    let expired = ref false in
    (* The per-cell sweeps dominate; poll the budget between cells and
       abandon the rest of this grid's cells on expiry (one cell of
       overshoot at most). *)
    (try
       Grid.Tbl.iter
         (fun key idxs ->
           if Budget.expired budget then raise_notrace Out_of_time;
           (* Lemma 4.3: drop disks containing no corner of the cell.
              The corner coordinates replicate [Grid.cell_box]
              ([origin + k*side], [+ side]); membership is a disjunction
              over the four corners, so testing them inline in any order
              equals the old [List.exists] over [Box.corners]. The
              survivors go straight into the kernel's scratch. *)
           let lox = grid.Grid.origin.(0) +. (float_of_int key.(0) *. grid.Grid.side) in
           let loy = grid.Grid.origin.(1) +. (float_of_int key.(1) *. grid.Grid.side) in
           let hix = lox +. grid.Grid.side and hiy = loy +. grid.Grid.side in
           Colored_depth.Cell.clear cell;
           for s = Kern.Ibuf.length idxs - 1 downto 0 do
             let i = Kern.Ibuf.get idxs s in
             let x, y = Array.unsafe_get pts i in
             let hit cx cy =
               (((cx -. x) ** 2.) +. ((cy -. y) ** 2.)) <= Closed.unit_r2
             in
             if hit lox loy || hit lox hiy || hit hix loy || hit hix hiy then
               Colored_depth.Cell.push cell x y ~color:dense.(i)
                 ~raw:colors.(i)
           done;
           let nt = Colored_depth.Cell.length cell in
           if nt > 0 then begin
             let d = Colored_depth.Cell.solve cell ~radius:1. in
             if d > !depth then begin
               depth := d;
               let w = Colored_depth.Cell.witness cell in
               Float.Array.set best 0 (Float.Array.get w 0);
               Float.Array.set best 1 (Float.Array.get w 1)
             end;
             incr cells;
             disks := !disks + nt;
             events := !events + Colored_depth.Cell.events cell
           end)
         buckets
     with Out_of_time -> expired := true);
    {
      g_depth = !depth;
      g_x = Float.Array.get best 0;
      g_y = Float.Array.get best 1;
      g_cells = !cells;
      g_disks = !disks;
      g_events = !events;
      g_expired = !expired;
    }
  end

let solve_unchecked ?(radius = 1.) ?max_shifts ?(seed = 0x4f53) ?domains
    ?(budget = Budget.unlimited) centers ~colors =
  Obs.with_span "output_sensitive.solve" @@ fun () ->
  (* Work with unit disks. *)
  let pts = Array.map (fun (x, y) -> (x /. radius, y /. radius)) centers in
  let grids =
    match max_shifts with
    | None -> Shifted_grids.make ~dim:2 ~side:1. ~delta:0.25 ()
    | Some cap ->
        Shifted_grids.make ~cap ~rng:(Rng.create seed) ~dim:2 ~side:1.
          ~delta:0.25 ()
  in
  let garr = grids.Shifted_grids.grids in
  let dense = Colored_depth.dense_colors colors in
  let merged =
    Parallel.with_pool ~domains:(Parallel.resolve domains) (fun pool ->
        Parallel.map_reduce pool ~n:(Array.length garr)
          ~map:(fun gi -> solve_grid ~budget pts colors dense garr.(gi))
          ~reduce:(fun a g ->
            {
              g_depth = (if g.g_depth > a.g_depth then g.g_depth else a.g_depth);
              g_x = (if g.g_depth > a.g_depth then g.g_x else a.g_x);
              g_y = (if g.g_depth > a.g_depth then g.g_y else a.g_y);
              g_cells = a.g_cells + g.g_cells;
              g_disks = a.g_disks + g.g_disks;
              g_events = a.g_events + g.g_events;
              g_expired = a.g_expired || g.g_expired;
            })
          {
            g_depth = 0;
            g_x = fst pts.(0);
            g_y = snd pts.(0);
            g_cells = 0;
            g_disks = 0;
            g_events = 0;
            g_expired = false;
          })
  in
  (* Re-evaluate against the full input: the per-cell depth is computed
     on a subset, so in exact arithmetic this can only confirm or
     improve it. The re-evaluated value is the one reported — never the
     raw cell count, which on ill-conditioned inputs can exceed what
     the witness point actually achieves — keeping every answer
     (including deadline-cut ones) achievable at the reported point.
     O(n), so it runs even when the budget is spent. *)
  let depth =
    Colored_disk2d.colored_depth_at ~radius:1. pts ~colors merged.g_x
      merged.g_y
  in
  Obs.add c_os_cells merged.g_cells;
  Obs.add c_os_disks merged.g_disks;
  Obs.add c_os_events merged.g_events;
  let result =
    {
      x = merged.g_x *. radius;
      y = merged.g_y *. radius;
      depth;
      stats =
        {
          shifts = Shifted_grids.count grids;
          cells_processed = merged.g_cells;
          disks_after_trim = merged.g_disks;
          sweep_events = merged.g_events;
        };
    }
  in
  if merged.g_expired then Outcome.Partial result else Outcome.Complete result

let solve_store ?radius ?max_shifts ?seed ?domains ?budget store =
  if Pstore.dims store <> 2 then
    invalid_arg "Output_sensitive.solve_store: store must be planar";
  let xs = Pstore.col store 0 and ys = Pstore.col store 1 in
  let centers =
    Array.init (Pstore.length store) (fun i ->
        (Maxrs_geom.Fvec.get xs i, Maxrs_geom.Fvec.get ys i))
  in
  solve_unchecked ?radius ?max_shifts ?seed ?domains ?budget centers
    ~colors:(Pstore.colors store)

let solve_checked ?radius ?max_shifts ?seed ?domains ?budget centers ~colors =
  let cols = colors in
  (* rebound: [open Guard] below shadows [colors] *)
  let open Guard in
  let check =
    let* () =
      positive ~field:"radius" (Option.value ~default:1. radius)
    in
    let* () = non_empty ~field:"centers" centers in
    let* () = planar_points ~field:"centers" centers in
    length_matches ~field:"colors" ~expected:(Array.length centers) cols
  in
  Result.map
    (fun () ->
      solve_unchecked ?radius ?max_shifts ?seed ?domains ?budget centers
        ~colors:cols)
    check

let solve ?radius ?max_shifts ?seed ?domains centers ~colors =
  Outcome.value
    (Guard.ok_exn
       (solve_checked ?radius ?max_shifts ?seed ?domains centers ~colors))
