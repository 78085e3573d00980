(* In-process copies of the seed-era hot paths, for the E14 kernel
   benchmark (bench/main.ml). Each module below reproduces the code that
   shipped before the flat-memory kernel pass — Option-allocating event
   peeks, list-based sweep events, boxed (Point.t * weight) pipelines —
   so BENCH_kernels.json reports legacy-vs-current ratios measured on
   the same machine in the same process, not numbers copied from an old
   checkout. The copies are bit-identical to the current columnar paths
   at domains = 1; E14 asserts that on every row.

   Deliberately frozen: do not "fix" allocations or comparators here —
   the point is to preserve the seed's allocation behaviour. *)

module Point = Maxrs_geom.Point
module Ball = Maxrs_geom.Ball
module Grid = Maxrs_geom.Grid
module Shifted_grids = Maxrs_geom.Shifted_grids
module Sphere = Maxrs_geom.Sphere
module Rng = Maxrs_geom.Rng
module Circle = Maxrs_geom.Circle
module Angle = Maxrs_geom.Angle
module Config = Maxrs.Config
module Parallel = Maxrs_parallel.Parallel

(* Seed Interval1d: per-group [Option] peeks and boxed (coord, weight)
   pairs in the event merge; the batched entry rebuilds nothing but runs
   every query through the allocating peek loop. *)
module Interval1d_seed = struct
  type placement = { lo : float; value : float }
  type batched = { points_sorted : (float * float) array; prefix : float array }

  let preprocess pts =
    let sorted = Array.copy pts in
    Array.sort (fun (a, _) (b, _) -> Float.compare a b) sorted;
    let n = Array.length sorted in
    let prefix = Array.make (n + 1) 0. in
    for i = 0 to n - 1 do
      prefix.(i + 1) <- prefix.(i) +. snd sorted.(i)
    done;
    { points_sorted = sorted; prefix }

  let query b ~len =
    assert (len >= 0.);
    let pts = b.points_sorted in
    let n = Array.length pts in
    if n = 0 then { lo = 0.; value = 0. }
    else begin
      let si = ref 0 and ei = ref 0 in
      let active = ref 0. in
      let best = ref 0. and best_lo = ref (fst pts.(0) -. len -. 1.) in
      let peek () =
        let s = if !si < n then Some (fst pts.(!si) -. len) else None in
        let e = if !ei < n then Some (fst pts.(!ei)) else None in
        match (s, e) with
        | None, None -> None
        | Some v, None | None, Some v -> Some v
        | Some a, Some b -> Some (Float.min a b)
      in
      while !si < n || !ei < n do
        let c = Option.get (peek ()) in
        while !si < n && fst pts.(!si) -. len <= c do
          active := !active +. snd pts.(!si);
          incr si
        done;
        if !active > !best then begin
          best := !active;
          best_lo := c
        end;
        let had_end = !ei < n && fst pts.(!ei) <= c in
        while !ei < n && fst pts.(!ei) <= c do
          active := !active -. snd pts.(!ei);
          incr ei
        done;
        if had_end && !active > !best then begin
          best := !active;
          best_lo :=
            (match peek () with
            | Some next -> (c +. next) /. 2.
            | None -> c +. 1.)
        end
      done;
      { lo = !best_lo; value = !best }
    end

  (* Seed [batched] at domains = 1: a sequential map over the queries. *)
  let batched ~lens pts =
    let b = preprocess pts in
    Array.map (fun len -> query b ~len) lens
end

(* Seed Disk2d: per-circle event *list* (two boxed pairs and two conses
   per intersecting pair) sorted with a polymorphic-pair comparator
   closure. *)
module Disk2d_seed = struct
  type result = { x : float; y : float; value : float }

  let depth_at ~radius pts qx qy =
    let r2 = (radius +. 1e-9) ** 2. in
    Array.fold_left
      (fun acc (x, y, w) ->
        let d2 = ((x -. qx) ** 2.) +. ((y -. qy) ** 2.) in
        if d2 <= r2 then acc +. w else acc)
      0. pts

  let sweep_circle ~radius pts i =
    let xi, yi, wi = pts.(i) in
    let c = Circle.make ~cx:xi ~cy:yi ~r:radius in
    let base = ref wi in
    let events = ref [] in
    Array.iteri
      (fun j (xj, yj, wj) ->
        if j <> i then
          match Circle.coverage_by_disk c ~cx:xj ~cy:yj ~r:radius with
          | Circle.Covered -> base := !base +. wj
          | Circle.Disjoint -> ()
          | Circle.Arc ivl ->
              let s, e = Angle.endpoints ivl in
              events := (s, wj) :: (e, -.wj) :: !events;
              if Angle.mem ivl 0. && ivl.Angle.len < Angle.two_pi -. 1e-12
              then base := !base +. wj)
      pts;
    let evts = Array.of_list !events in
    Array.sort
      (fun (a1, w1) (a2, w2) ->
        match Float.compare a1 a2 with
        | 0 -> Float.compare w2 w1 (* additions first *)
        | c -> c)
      evts;
    let active = ref !base in
    let best = ref !base and best_angle = ref 0. in
    Array.iter
      (fun (a, w) ->
        active := !active +. w;
        if !active > !best then begin
          best := !active;
          best_angle := a
        end)
      evts;
    (!best_angle, !best)

  (* Seed [solve] at domains = 1 with no budget: a sequential argmax in
     index order (strict >, first index wins). *)
  let solve ~radius pts =
    let n = Array.length pts in
    let bi = ref (-1) and bangle = ref 0. and bv = ref Float.neg_infinity in
    for i = 0 to n - 1 do
      let angle, v = sweep_circle ~radius pts i in
      if v > !bv then begin
        bi := i;
        bangle := angle;
        bv := v
      end
    done;
    let xi, yi, _ = pts.(!bi) in
    let c = Circle.make ~cx:xi ~cy:yi ~r:radius in
    let x, y = Circle.point_at c !bangle in
    { x; y; value = depth_at ~radius pts x y }
end

(* Seed Sample_space, trimmed to what the static solver exercises:
   boxed [Point.t] sample positions, [Option]-allocating table lookups,
   a fresh [Ball.t] and odometer per insert, and closure-driven
   [update_cell]. Derives the identical per-grid rng streams from the
   config, so sample positions — and hence the solver answer — match
   the columnar structure bit for bit. *)
module Sample_space_seed = struct
  (* The seed's cell-key table: polymorphic [=] and the library's FNV
     hash. The same hash gives the same buckets and iteration order, so
     the static tie-breaks match the live [Grid.Tbl]'s; the copy keeps
     this column off the library's key-compare code. *)
  module Tbl = Hashtbl.Make (struct
    type t = Grid.key

    let equal a b = a = b

    let hash k =
      let h = ref 0x811c9dc5 in
      for i = 0 to Array.length k - 1 do
        h := (!h lxor Array.unsafe_get k i) * 0x01000193
      done;
      !h land max_int
  end)

  (* The seed's cell enumeration: a recursive odometer behind a
     callback, with fresh scratch and a fresh accumulator column per
     ball. A copy, so this column does not follow the library's
     allocation-free cursor. *)
  let iter_keys_intersecting_ball (g : Grid.t) (b : Ball.t) f =
    let d = g.Grid.dim in
    let lo = Array.make d 0 and hi = Array.make d 0 and key = Array.make d 0 in
    let c = b.Ball.center and r = b.Ball.radius +. Maxrs_geom.Closed.eps in
    for i = 0 to d - 1 do
      let o = g.Grid.origin.(i) in
      lo.(i) <- int_of_float (Float.floor ((c.(i) -. r -. o) /. g.Grid.side));
      hi.(i) <- int_of_float (Float.floor ((c.(i) +. r -. o) /. g.Grid.side));
      key.(i) <- lo.(i)
    done;
    let r2 = r *. r in
    let accs = Float.Array.create (d + 1) in
    Float.Array.unsafe_set accs 0 0.;
    let rec go i =
      let acc = Float.Array.unsafe_get accs i in
      if acc <= r2 then
        if i = d then f key
        else
          for v = lo.(i) to hi.(i) do
            key.(i) <- v;
            let cell_lo =
              g.Grid.origin.(i) +. (float_of_int v *. g.Grid.side)
            in
            let cell_hi = cell_lo +. g.Grid.side in
            let dx =
              if c.(i) < cell_lo then cell_lo -. c.(i)
              else if c.(i) > cell_hi then c.(i) -. cell_hi
              else 0.
            in
            Float.Array.unsafe_set accs (i + 1) (acc +. (dx *. dx));
            go (i + 1)
          done
    in
    go 0

  type sample = {
    id : int;
    pos : Point.t;
    mutable depth : float;
    mutable flag : int;
    mutable version : int;
  }

  type cell = {
    samples : sample array;
    mutable nballs : int;
    mutable max_depth : float;
    mutable best : sample;
    mutable cversion : int;
  }

  type t = {
    dim : int;
    grids : Shifted_grids.t;
    tables : cell Tbl.t array;
    rngs : Rng.t array;
    t_samples : int;
    stride : int;
    next_ids : int array;
    n_cells : int array;
  }

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
      grids;
      tables = Array.init count (fun _ -> Tbl.create 256);
      rngs = Array.init count (fun gi -> Rng.split_at rng gi);
      t_samples = Config.samples_per_cell cfg ~n:expected_n;
      stride = count;
      next_ids = Array.make count 0;
      n_cells = Array.make count 0;
    }

  let grid_count t = Shifted_grids.count t.grids
  let cell_max c = c.max_depth

  let new_cell t gi grid key =
    let center = Grid.cell_center grid key in
    let radius = Grid.cell_circumradius grid in
    let rng = t.rngs.(gi) in
    let samples =
      Array.init t.t_samples (fun _ ->
          let local = t.next_ids.(gi) in
          t.next_ids.(gi) <- local + 1;
          {
            id = (local * t.stride) + gi;
            pos = Sphere.sample_on rng ~center ~radius;
            depth = 0.;
            flag = -1;
            version = 0;
          })
    in
    t.n_cells.(gi) <- t.n_cells.(gi) + 1;
    { samples; nballs = 0; max_depth = 0.; best = samples.(0); cversion = 0 }

  let iter_cells_in_grid t gi ~center f =
    let ball = Ball.unit center in
    let table = t.tables.(gi) in
    let grid = t.grids.Shifted_grids.grids.(gi) in
    iter_keys_intersecting_ball grid ball (fun key ->
        let cell =
          match Tbl.find_opt table key with
          | Some c -> c
          | None ->
              let c = new_cell t gi grid key in
              Tbl.add table (Array.copy key) c;
              c
        in
        f table key cell)

  let update_cell cell ~center update =
    let changed = ref false in
    let mx = ref Float.neg_infinity and arg = ref cell.samples.(0) in
    Array.iter
      (fun s ->
        if Point.dist2 s.pos center <= 1. +. 1e-12 && update s then begin
          s.version <- s.version + 1;
          changed := true
        end;
        if s.depth > !mx then begin
          mx := s.depth;
          arg := s
        end)
      cell.samples;
    if !changed && (!mx <> cell.max_depth || !arg != cell.best) then begin
      cell.max_depth <- !mx;
      cell.best <- !arg;
      cell.cversion <- cell.cversion + 1
    end

  let insert_in_grid t ~grid ~center ~weight =
    assert (Point.dim center = t.dim);
    iter_cells_in_grid t grid ~center (fun _table _key cell ->
        cell.nballs <- cell.nballs + 1;
        update_cell cell ~center (fun s ->
            s.depth <- s.depth +. weight;
            true))

  let best_cell_in_grid t gi =
    let best = ref None in
    Tbl.iter
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
    | Some c when c.max_depth > Float.neg_infinity -> Some c.best
    | _ -> None
end

(* Seed Static: rescale the whole input up front into a boxed
   (Point.t, weight) array, then feed the sample space grid by grid.
   Sequential (the seed sharded by grid index with bit-identical
   results for any domain count; E14 measures the domains = 1 path on
   both sides). *)
module Static_seed = struct
  type result = { center : Point.t; value : float }

  let solve_unchecked ?(cfg = Config.default) ?(radius = 1.) ~dim pts =
    Config.validate cfg;
    let n = Array.length pts in
    if n = 0 then None
    else begin
      let space = Sample_space_seed.create ~dim ~cfg ~expected_n:n in
      let scaled =
        Array.map (fun (p, w) -> (Point.scale (1. /. radius) p, w)) pts
      in
      for gi = 0 to Sample_space_seed.grid_count space - 1 do
        Array.iter
          (fun (center, weight) ->
            Sample_space_seed.insert_in_grid space ~grid:gi ~center ~weight)
          scaled
      done;
      match Sample_space_seed.best space with
      | Some s when s.Sample_space_seed.depth > 0. ->
          Some
            {
              center = Point.scale radius s.Sample_space_seed.pos;
              value = s.Sample_space_seed.depth;
            }
      | _ -> None
    end
end
