(* Sharded dynamic MaxRS: the Theorem 1.1 structure restructured as
   persistent per-shard owners over a long-lived domain pool.

   Two notions of ownership, deliberately distinct:

   - Compute ownership is by grid index: shard [s] owns the grids
     [{gi | gi mod shards = s}] of the Lemma 2.1 shifted collection.
     The per-grid operations of [Sample_space] touch disjoint state and
     are deterministic in isolation, so each shard applies every ball
     update to its own grids concurrently with the others and the
     resulting sample space is bit-identical to the unsharded
     [Dynamic]'s for any shard/domain count. Each shard also owns a
     private [Cell_heap] over its own grids' cells (the cell-change hook
     routes on [Sample_space.grid_of_cell] and re-seats the cell in
     place), and [best] merges the per-shard heap tops in shard-index
     order under the heap's strict total order [Cell_heap.precedes] —
     because cell uids are globally unique, that merge equals the top
     of one global heap.

   - Storage ownership is by the ball's Lemma 2.1 spatial key: the cell
     of the (scaled) center in a canonical grid hashes to the shard
     whose flat columns ([Fvec] coordinate/weight columns plus a handle
     column, [Pstore]-style struct-of-arrays) hold the ball, and whose
     write-ahead log journals the op in the durable layer. Spatial
     partitioning keeps a shard's balls spatially coherent, so the
     durable layer's per-shard logs replay mostly-local updates.

   The journal hook reports the storage owner with every op so the
   durable session can append to exactly that shard's WAL. State
   capture reuses [Dynamic.State.t] verbatim: a sharded store and the
   unsharded reference that applied the same op sequence produce equal
   states — the bit-identity contract the differential suite checks. *)

module Point = Maxrs_geom.Point
module Grid = Maxrs_geom.Grid
module Fvec = Maxrs_geom.Fvec
module Guard = Maxrs_resilience.Guard
module Parallel = Maxrs_parallel.Parallel
module Obs = Maxrs_obs.Obs

let src = Logs.Src.create "maxrs.sharded" ~doc:"Sharded dynamic MaxRS"

module Log = (val Logs.src_log src : Logs.LOG)

let c_ops = Obs.counter "shard.ops"
let c_steals = Obs.counter "shard.steals"
let c_updates = Obs.counter "dynamic.updates"
let c_rebuilds = Obs.counter "dynamic.rebuilds"

type handle = Dynamic.handle

type op_event =
  | Op_insert of {
      shard : int;
      handle : handle;
      point : Point.t;
      weight : float;
    }
  | Op_delete of { shard : int; handle : handle }
  | Op_epoch of { epochs : int; n0 : int }

(* {1 Per-shard ball columns}

   Struct-of-arrays like [Pstore], but growable and deletable: flat
   [Fvec] coordinate and weight columns indexed by a dense row, a
   handle column, and a handle->row table. Deletion swaps the last row
   in, so the columns stay dense; canonical order is recovered by
   sorting on handles at capture time. *)

type columns = {
  cdim : int;
  mutable n : int;
  mutable handles : int array;
  mutable coords : Fvec.t;  (** scaled centers, row-major *)
  mutable weights : Fvec.t;
  slots : (int, int) Hashtbl.t;  (** handle -> row *)
}

let cols_create ~dim =
  {
    cdim = dim;
    n = 0;
    handles = Array.make 8 0;
    coords = Fvec.create (8 * dim);
    weights = Fvec.create 8;
    slots = Hashtbl.create 64;
  }

let cols_grow c =
  if c.n = Array.length c.handles then begin
    let cap' = 2 * c.n in
    let handles = Array.make cap' 0 in
    Array.blit c.handles 0 handles 0 c.n;
    let coords = Fvec.create (cap' * c.cdim) in
    Fvec.blit ~src:c.coords ~src_pos:0 ~dst:coords ~dst_pos:0
      ~len:(c.n * c.cdim);
    let weights = Fvec.create cap' in
    Fvec.blit ~src:c.weights ~src_pos:0 ~dst:weights ~dst_pos:0 ~len:c.n;
    c.handles <- handles;
    c.coords <- coords;
    c.weights <- weights
  end

let cols_add c h center w =
  cols_grow c;
  let i = c.n in
  c.handles.(i) <- h;
  for k = 0 to c.cdim - 1 do
    Fvec.set c.coords ((i * c.cdim) + k) center.(k)
  done;
  Fvec.set c.weights i w;
  Hashtbl.replace c.slots h i;
  c.n <- i + 1

let cols_center c i =
  Array.init c.cdim (fun k -> Fvec.get c.coords ((i * c.cdim) + k))

let cols_remove c h =
  match Hashtbl.find_opt c.slots h with
  | None -> None
  | Some i ->
      let center = cols_center c i and w = Fvec.get c.weights i in
      Hashtbl.remove c.slots h;
      let last = c.n - 1 in
      if i <> last then begin
        let hl = c.handles.(last) in
        c.handles.(i) <- hl;
        Fvec.blit ~src:c.coords ~src_pos:(last * c.cdim) ~dst:c.coords
          ~dst_pos:(i * c.cdim) ~len:c.cdim;
        Fvec.set c.weights i (Fvec.get c.weights last);
        Hashtbl.replace c.slots hl i
      end;
      c.n <- last;
      Some (center, w)

let cols_fold c f acc =
  let acc = ref acc in
  for i = 0 to c.n - 1 do
    acc := f !acc c.handles.(i) (cols_center c i) (Fvec.get c.weights i)
  done;
  !acc

(* {1 The sharded store} *)

type t = {
  dim : int;
  cfg : Config.t;
  radius : float;
  nshards : int;
  pool : Parallel.pool;
  key_grid : Grid.t;  (** canonical Lemma 2.1 grid keying storage owners *)
  columns : columns array;  (** per-shard ball columns *)
  owned : int array array;  (** owned.(s) = grid indices of shard s *)
  mutable space : Sample_space.t;
  heaps : Cell_heap.t array;  (** per shard: its grids' cells *)
  mutable n0 : int;
  mutable next_handle : int;
  mutable epochs : int;
  mutable nlive : int;
  mutable journal : op_event -> unit;
  mutable closed : bool;
}

(* Storage owner of a (scaled) center: the shard its Lemma 2.1 grid
   cell hashes to. The grid is the canonical unshifted one (side
   2eps/sqrt d, origin 0) — any fixed grid works; this one is a pure
   function of (dim, cfg), so owners survive restarts and epochs. *)
let mix h k =
  let h = (h lxor (k * 0x9E3779B1)) * 0x85EBCA6B land max_int in
  h lxor (h lsr 13)

let owner t center =
  if t.nshards = 1 then 0
  else
    let key = Grid.key_of_point t.key_grid center in
    Array.fold_left mix 0x27D4EB2F key land max_int mod t.nshards

(* Re-seat a cell in the heap of the shard owning its grid. As the hook,
   only the participant applying that shard's grids runs it for the
   cell, so the shard's heap needs no lock. *)
let reseat t c =
  Cell_heap.update
    t.heaps.(Sample_space.grid_of_cell t.space c mod t.nshards)
    c

let attach_hook t = Sample_space.on_cell_change t.space (reseat t)

(* Fan one ball update out across the shard owners: chunk s of the job
   is exactly shard s, so every grid is touched by one participant.
   Shard s's home participant is [s mod pool size]; the shared chunk
   counter lets an idle participant steal another's shard (counted, and
   harmless: per-grid determinism does not care which domain runs the
   work). Injected faults fire before a chunk body starts, so the
   retry/park recovery of the pool never double-applies a grid. *)
let apply t f =
  let psize = Parallel.size t.pool in
  Parallel.parallel_for ~chunks:t.nshards t.pool ~n:t.nshards (fun s ->
      if Parallel.participant () <> s mod psize then Obs.incr c_steals;
      let owned = t.owned.(s) in
      for i = 0 to Array.length owned - 1 do
        f owned.(i)
      done)

(* Never more domains than shards: a participant beyond the shard count
   would have no chunk to run. *)
let pool_for domains ~shards =
  Parallel.create (Int.min (Parallel.resolve domains) shards)

let owned_grids ~grids ~shards =
  Array.init shards (fun s ->
      List.init grids Fun.id
      |> List.filter (fun gi -> gi mod shards = s)
      |> Array.of_list)

let create ?(cfg = Config.default) ?(radius = 1.) ?domains ~dim ~shards () =
  Config.validate cfg;
  if radius <= 0. then invalid_arg "Sharded.create: radius must be positive";
  if shards < 1 then invalid_arg "Sharded.create: shards must be >= 1";
  let space = Sample_space.create ~dim ~cfg ~expected_n:16 in
  let t =
    {
      dim;
      cfg;
      radius;
      nshards = shards;
      pool = pool_for domains ~shards;
      key_grid =
        Grid.make ~side:(Config.grid_side cfg ~dim) ~origin:(Array.make dim 0.);
      columns = Array.init shards (fun _ -> cols_create ~dim);
      owned = owned_grids ~grids:(Sample_space.grid_count space) ~shards;
      space;
      heaps = Array.init shards (fun _ -> Cell_heap.create space);
      n0 = 4;
      next_handle = 0;
      epochs = 0;
      nlive = 0;
      journal = ignore;
      closed = false;
    }
  in
  attach_hook t;
  t

let size t = t.nlive
let epochs t = t.epochs
let dim t = t.dim
let radius t = t.radius
let config t = t.cfg
let shards t = t.nshards
let on_op t f = t.journal <- f

let shard_of_handle t h =
  let rec go s =
    if s = t.nshards then None
    else if Hashtbl.mem t.columns.(s).slots (Dynamic.handle_id h) then Some s
    else go (s + 1)
  in
  go 0

let check_open t name = if t.closed then invalid_arg (name ^ ": closed store")

(* All live balls in canonical (sorted-handle) order — the order every
   epoch rebuild and state capture must use. *)
let balls_sorted t =
  Array.fold_left (fun acc c -> cols_fold c (fun l h p w -> (h, (p, w)) :: l) acc)
    [] t.columns
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let rebuild t =
  t.epochs <- t.epochs + 1;
  Obs.incr c_rebuilds;
  Log.debug (fun m ->
      m "epoch %d: rebuilding sample space at n=%d across %d shards" t.epochs
        t.nlive t.nshards);
  t.n0 <- Int.max 4 t.nlive;
  t.space <- Sample_space.create ~dim:t.dim ~cfg:t.cfg ~expected_n:t.n0;
  for s = 0 to t.nshards - 1 do
    t.heaps.(s) <- Cell_heap.create t.space
  done;
  attach_hook t;
  (* Sorted handle order per grid — exactly the order the unsharded
     reference re-inserts in, so each grid's epoch is bit-identical. *)
  let balls = balls_sorted t in
  apply t (fun gi ->
      List.iter
        (fun (_, (center, weight)) ->
          Sample_space.insert_in_grid t.space ~grid:gi ~center ~weight)
        balls);
  t.journal (Op_epoch { epochs = t.epochs; n0 = t.n0 })

let maybe_rebuild t =
  if t.nlive > 2 * t.n0 || (t.nlive < t.n0 / 2 && t.n0 > 4) then rebuild t

let scale t p = Point.scale (1. /. t.radius) p
let unscale t p = Point.scale t.radius p

let insert_checked t ?(weight = 1.) p =
  check_open t "Sharded.insert";
  let open Guard in
  let check =
    let* () = points ~dim:t.dim ~field:"point" [| p |] in
    non_negative ~field:"weight" weight
  in
  Result.map
    (fun () ->
      let center = scale t p in
      let h = t.next_handle in
      t.next_handle <- h + 1;
      let s = owner t center in
      cols_add t.columns.(s) h center weight;
      t.nlive <- t.nlive + 1;
      Obs.incr c_ops;
      Obs.incr c_updates;
      apply t (fun gi ->
          Sample_space.insert_in_grid t.space ~grid:gi ~center ~weight);
      let handle = Dynamic.handle_of_id h in
      t.journal (Op_insert { shard = s; handle; point = p; weight });
      maybe_rebuild t;
      handle)
    check

let insert t ?weight p = Guard.ok_exn (insert_checked t ?weight p)

let delete t h =
  check_open t "Sharded.delete";
  match shard_of_handle t h with
  | None -> raise Not_found
  | Some s ->
      let center, weight =
        match cols_remove t.columns.(s) (Dynamic.handle_id h) with
        | Some cw -> cw
        | None -> assert false
      in
      t.nlive <- t.nlive - 1;
      Obs.incr c_ops;
      Obs.incr c_updates;
      apply t (fun gi ->
          Sample_space.delete_in_grid t.space ~grid:gi ~center ~weight);
      t.journal (Op_delete { shard = s; handle = h });
      maybe_rebuild t

(* Per-shard tops, merged in shard-index order. [Cell_heap.precedes] is
   a strict total order and cell uids are globally unique, so this
   equals the top of the unsharded structure's single heap. *)
let best t =
  let cand = ref None in
  Array.iter
    (fun heap ->
      match (Cell_heap.top heap, !cand) with
      | Some c, Some b when not (Cell_heap.precedes t.space c b) -> ()
      | Some c, _ -> cand := Some c
      | None, _ -> ())
    t.heaps;
  Option.map
    (fun c ->
      ( unscale t (Sample_space.cell_best t.space c).Sample_space.pos,
        Sample_space.cell_max t.space c ))
    !cand

let state t : Dynamic.State.t =
  {
    Dynamic.State.dim = t.dim;
    radius = t.radius;
    cfg = t.cfg;
    balls =
      List.map
        (fun (h, bw) -> (Dynamic.handle_of_id h, bw))
        (balls_sorted t);
    n0 = t.n0;
    next_handle = t.next_handle;
    epochs = t.epochs;
    space = Sample_space.state t.space;
  }

let restore ?domains ~shards (s : Dynamic.State.t) =
  Config.validate s.Dynamic.State.cfg;
  if shards < 1 then invalid_arg "Sharded.restore: shards must be >= 1";
  if s.Dynamic.State.radius <= 0. then
    invalid_arg "Sharded.restore: radius must be positive";
  if
    s.Dynamic.State.n0 < 4
    || s.Dynamic.State.next_handle < 0
    || s.Dynamic.State.epochs < 0
  then invalid_arg "Sharded.restore: negative or degenerate counters";
  let dim = s.Dynamic.State.dim in
  let cfg = s.Dynamic.State.cfg in
  let space = Sample_space.restore ~cfg s.Dynamic.State.space in
  let t =
    {
      dim;
      cfg;
      radius = s.Dynamic.State.radius;
      nshards = shards;
      pool = pool_for domains ~shards;
      key_grid =
        Grid.make ~side:(Config.grid_side cfg ~dim) ~origin:(Array.make dim 0.);
      columns = Array.init shards (fun _ -> cols_create ~dim);
      owned = owned_grids ~grids:(Sample_space.grid_count space) ~shards;
      space;
      heaps = Array.init shards (fun _ -> Cell_heap.create space);
      n0 = s.Dynamic.State.n0;
      next_handle = s.Dynamic.State.next_handle;
      epochs = s.Dynamic.State.epochs;
      nlive = 0;
      journal = ignore;
      closed = false;
    }
  in
  List.iter
    (fun (h, (c, w)) ->
      let hid = Dynamic.handle_id h in
      if hid < 0 || hid >= t.next_handle then
        invalid_arg "Sharded.restore: handle out of range";
      if Array.length c <> dim then
        invalid_arg "Sharded.restore: ball dimension mismatch";
      cols_add t.columns.(owner t c) hid (Array.copy c) w;
      t.nlive <- t.nlive + 1)
    s.Dynamic.State.balls;
  attach_hook t;
  Sample_space.iter_live_cells space (reseat t);
  t

let close t =
  if not t.closed then begin
    t.closed <- true;
    Parallel.shutdown t.pool
  end
