module Circle = Maxrs_geom.Circle
module Closed = Maxrs_geom.Closed
module Fvec = Maxrs_geom.Fvec
module Kern = Maxrs_geom.Kern
module Lend = Maxrs_geom.Lend

type stats = { union_arcs : int; circles_swept : int; events : int }
type result = { x : float; y : float; depth : int; stats : stats }

let dense_colors colors =
  let ids = Hashtbl.create 16 in
  Array.map
    (fun c ->
      match Hashtbl.find_opt ids c with
      | Some d -> d
      | None ->
          let d = Hashtbl.length ids in
          Hashtbl.add ids c d;
          d)
    colors

module Cell = struct
  (* Per-disk work columns, all of one capacity; replaced whole when the
     cell outgrows them. *)
  type work = {
    kx : int array;  (** spatial-hash key, x *)
    ky : int array;  (** spatial-hash key, y *)
    gsize : int array;  (** per class: its size *)
    ghash : int array;  (** per class: [Hashtbl.hash] of its color *)
    gend : int array;  (** per class: end of its run in [order] *)
    order : int array;  (** disks by class, in union-pass order *)
    by_rank : int array;  (** contributing disks by first arc *)
    key : Fvec.t;  (** visit-order sort keys *)
    pay : int array;  (** visit-order sort payloads *)
    add_a : Fvec.t;  (** a sweep's arc starts *)
    add_c : int array;
    rem_a : Fvec.t;  (** a sweep's arc ends *)
    rem_c : int array;
  }

  let work cap =
    let ints () = Array.make cap 0 in
    {
      kx = ints ();
      ky = ints ();
      gsize = ints ();
      ghash = ints ();
      gend = ints ();
      order = ints ();
      by_rank = ints ();
      key = Fvec.create cap;
      pay = ints ();
      add_a = Fvec.create cap;
      add_c = ints ();
      rem_a = Fvec.create cap;
      rem_c = ints ();
    }

  (* One cell's disks and the work columns of its solve, per domain (as
     [Disk2d]'s sweep scratch). Columns grow, never shrink, so a solve on
     grown scratch allocates nothing. Between solves every [counts] slot
     is 0 and every [group] slot is -1. *)
  type t = {
    mutable n : int;
    mutable xs : Fvec.t;
    mutable ys : Fvec.t;
    mutable color : int array;  (** dense color *)
    mutable raw : int array;  (** the caller's color *)
    mutable w : work;
    mutable counts : int array;  (** per dense color: the sweep's multiset *)
    mutable distinct : int;
    mutable group : int array;  (** per dense color: its class in the cell *)
    pass : Disk_union.pass;
    cov : floatarray;  (** [Circle.coverage_into] out-buffer *)
    best : floatarray;  (** the witness (x, y) and a sweep's best angle *)
    mutable union_arcs : int;
    mutable swept : int;
    mutable events : int;
  }

  let create () =
    let cap = 16 in
    {
      n = 0;
      xs = Fvec.create cap;
      ys = Fvec.create cap;
      color = Array.make cap 0;
      raw = Array.make cap 0;
      w = work cap;
      counts = Array.make cap 0;
      distinct = 0;
      group = Array.make cap (-1);
      pass = Disk_union.pass ();
      cov = Float.Array.create 3;
      best = Float.Array.create 3;
      union_arcs = 0;
      swept = 0;
      events = 0;
    }

  (* Lent to one solve at a time: the daemon's worker threads share a
     domain, and a thread switch can fall inside a solve. *)
  let lend = Lend.make create
  let with_scratch f = Lend.with_ lend f

  let clear t = t.n <- 0
  let length t = t.n

  let grow t =
    let cap = 2 * Array.length t.color in
    let fcol old =
      let c = Fvec.create cap in
      Fvec.blit ~src:old ~src_pos:0 ~dst:c ~dst_pos:0 ~len:t.n;
      c
    and icol old =
      let c = Array.make cap 0 in
      Array.blit old 0 c 0 t.n;
      c
    in
    t.xs <- fcol t.xs;
    t.ys <- fcol t.ys;
    t.color <- icol t.color;
    t.raw <- icol t.raw;
    t.w <- work cap

  let grow_colors t color =
    let cap = Int.max (color + 1) (2 * Array.length t.counts) in
    t.counts <- Array.make cap 0;
    t.group <- Array.make cap (-1)

  let push t x y ~color ~raw =
    if color < 0 then invalid_arg "Colored_depth.Cell.push: negative color";
    if t.n = Array.length t.color then grow t;
    if color >= Array.length t.counts then grow_colors t color;
    Fvec.set t.xs t.n x;
    Fvec.set t.ys t.n y;
    t.color.(t.n) <- color;
    t.raw.(t.n) <- raw;
    t.n <- t.n + 1

  let witness t = t.best
  let union_arcs t = t.union_arcs
  let circles_swept t = t.swept
  let events t = t.events

  let bump t c =
    let k = t.counts.(c) in
    t.counts.(c) <- k + 1;
    if k = 0 then t.distinct <- t.distinct + 1

  let drop t c =
    let k = t.counts.(c) - 1 in
    t.counts.(c) <- k;
    if k = 0 then t.distinct <- t.distinct - 1

  (* Disk [j] is a candidate of circle [i] iff it sits in the 3x3 block
     of hash cells around [i]'s. Keys are compared by wrapped
     difference, which is exactly the lookup of [kx + dx] for dx in
     -1..1. *)
  let near t i j =
    let dx = t.w.kx.(j) - t.w.kx.(i) and dy = t.w.ky.(j) - t.w.ky.(i) in
    dx >= -1 && dx <= 1 && dy >= -1 && dy <= 1

  (* Sweep the circle of disk [i]: colored depth along its boundary over
     its candidates, adds before removals at equal angles. Returns the
     best depth and leaves its angle in [best.(2)]; every count is back
     at 0 afterwards. *)
  let sweep t ~radius i =
    let w = t.w in
    bump t t.color.(i);
    let na = ref 0 in
    for j = 0 to t.n - 1 do
      if j <> i && near t i j then begin
        let code = Circle.coverage_into t.xs t.ys ~r:radius i j t.cov in
        if code = Circle.cov_covered then bump t t.color.(j)
        else if code = Circle.cov_arc then begin
          let s = Float.Array.get t.cov 0 and e = Float.Array.get t.cov 2 in
          let c = t.color.(j) in
          Fvec.set w.add_a !na s;
          w.add_c.(!na) <- c;
          Fvec.set w.rem_a !na e;
          w.rem_c.(!na) <- c;
          incr na;
          (* Active from the start iff the arc wraps past angle 0 (its
             removal sorts before its addition); one starting at 0 is
             added by its own event. *)
          if e < s then bump t c
        end
      end
    done;
    let na = !na in
    t.events <- t.events + (2 * na);
    Kern.sort_fi w.add_a w.add_c na;
    Kern.sort_fi w.rem_a w.rem_c na;
    (* The distinct count after a run of same-angle adds does not depend
       on their order, so the sort's tie order is free. *)
    let best = ref t.distinct in
    Float.Array.set t.best 2 0.;
    let ai = ref 0 and ri = ref 0 in
    while !ai < na || !ri < na do
      if !ai < na && (!ri >= na || Fvec.get w.add_a !ai <= Fvec.get w.rem_a !ri)
      then begin
        bump t w.add_c.(!ai);
        if t.distinct > !best then begin
          best := t.distinct;
          Float.Array.set t.best 2 (Fvec.get w.add_a !ai)
        end;
        incr ai
      end
      else begin
        drop t w.rem_c.(!ri);
        incr ri
      end
    done;
    for j = 0 to t.n - 1 do
      if near t i j then t.counts.(t.color.(j)) <- 0
    done;
    t.distinct <- 0;
    !best

  (* A small table's bucket count: [Hashtbl.create size] starts at the
     power of two >= max 16 size and doubles while count > 2 * buckets. *)
  let buckets ~size ~count =
    let b = ref 16 in
    while !b < size || count > 2 * !b do
      b := 2 * !b
    done;
    !b

  let solve t ~radius =
    let n = t.n and w = t.w in
    t.union_arcs <- 0;
    t.swept <- 0;
    t.events <- 0;
    Float.Array.set t.best 0 0.;
    Float.Array.set t.best 1 0.;
    let side = 2. *. (radius +. Closed.eps) in
    for i = 0 to n - 1 do
      w.kx.(i) <- int_of_float (Float.floor (Fvec.get t.xs i /. side));
      w.ky.(i) <- int_of_float (Float.floor (Fvec.get t.ys i /. side))
    done;
    (* Color classes, numbered by first occurrence. *)
    let classes = ref 0 in
    for i = 0 to n - 1 do
      let c = t.color.(i) in
      let g = t.group.(c) in
      if g >= 0 then w.gsize.(g) <- w.gsize.(g) + 1
      else begin
        let g = !classes in
        t.group.(c) <- g;
        w.gsize.(g) <- 1;
        w.ghash.(g) <- Hashtbl.hash t.raw.(i);
        incr classes
      end
    done;
    let classes = !classes in
    (* Visit order, part one: the classes in the order [Hashtbl.iter]
       visits a table that [Hashtbl.add] filled with them by first
       occurrence — buckets ascending, the newest first within one. *)
    let b = buckets ~size:16 ~count:classes - 1 in
    for g = 0 to classes - 1 do
      Fvec.set w.key g (float_of_int (w.ghash.(g) land b));
      w.pay.(g) <- -g
    done;
    Kern.sort_fi w.key w.pay classes;
    let off = ref 0 in
    for v = 0 to classes - 1 do
      let g = -w.pay.(v) in
      off := !off + w.gsize.(g);
      w.gend.(g) <- !off
    done;
    (* Each class's run in [order] lists its disks by descending index:
       the order the old per-color lists had, and so the union pass's. *)
    for i = 0 to n - 1 do
      let g = t.group.(t.color.(i)) in
      w.gend.(g) <- w.gend.(g) - 1;
      w.order.(w.gend.(g)) <- i
    done;
    for i = 0 to n - 1 do
      t.group.(t.color.(i)) <- -1
    done;
    (* The union pass, class by class. Contributing disks are ranked as
       the old table met them: by class, then by ascending index. *)
    let ranks = ref 0 in
    for v = 0 to classes - 1 do
      let g = -w.pay.(v) in
      let lo = w.gend.(g) in
      let hi = lo + w.gsize.(g) in
      for k = hi - 1 downto lo do
        let arcs =
          Disk_union.disk_arcs t.pass t.xs t.ys ~r:radius w.order ~lo ~hi k
        in
        if arcs > 0 then begin
          t.union_arcs <- t.union_arcs + arcs;
          w.by_rank.(!ranks) <- w.order.(k);
          incr ranks
        end
      done
    done;
    (* Visit order, part two: the contributing disks in the order
       [Hashtbl.iter] visits a table of [Hashtbl.create n] that met them
       by rank. Among equally deep circles the first visited keeps the
       witness. *)
    let ranks = !ranks and depth = ref min_int in
    let c = buckets ~size:n ~count:0 - 1 in
    for r = 0 to ranks - 1 do
      Fvec.set w.key r (float_of_int (Hashtbl.hash w.by_rank.(r) land c));
      w.pay.(r) <- -r
    done;
    Kern.sort_fi w.key w.pay ranks;
    for v = 0 to ranks - 1 do
      let i = w.by_rank.(-w.pay.(v)) in
      let d = sweep t ~radius i in
      t.swept <- t.swept + 1;
      if d > !depth then begin
        depth := d;
        let a = Float.Array.get t.best 2 in
        Float.Array.set t.best 0 (Fvec.get t.xs i +. (radius *. cos a));
        Float.Array.set t.best 1 (Fvec.get t.ys i +. (radius *. sin a))
      end
    done;
    !depth
end

let max_colored_depth ~radius centers ~colors =
  assert (radius > 0.);
  let n = Array.length centers in
  assert (n > 0 && Array.length colors = n);
  let dense = dense_colors colors in
  Cell.with_scratch @@ fun cell ->
  Cell.clear cell;
  Array.iteri
    (fun i (x, y) -> Cell.push cell x y ~color:dense.(i) ~raw:colors.(i))
    centers;
  let depth = Cell.solve cell ~radius in
  let w = Cell.witness cell in
  {
    x = Float.Array.get w 0;
    y = Float.Array.get w 1;
    depth;
    stats =
      {
        union_arcs = Cell.union_arcs cell;
        circles_swept = Cell.circles_swept cell;
        events = Cell.events cell;
      };
  }
