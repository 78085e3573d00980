module Point = Maxrs_geom.Point
module Guard = Maxrs_resilience.Guard

let src = Logs.Src.create "maxrs.dynamic" ~doc:"Dynamic MaxRS (Theorem 1.1)"

module Log = (val Logs.src_log src : Logs.LOG)

type handle = int

(* A strict total order: depth first, then the cell's stable uid, then
   the entry version (freshest first). With no ties between
   distinguishable entries, a heap's top — and hence every query
   answer — is independent of the heap's internal layout, so a
   crash-recovered structure (whose heap is rebuilt by compaction)
   answers exactly like one that never stopped. Exposed as a module so
   the sharded store's per-shard heaps use the very same order and its
   shard-index merge returns exactly this structure's answer. *)
module Entry = struct
  type t = { depth : float; version : int; cell : Sample_space.cell }

  let cmp a b =
    let c = Float.compare a.depth b.depth in
    if c <> 0 then c
    else
      let c =
        Int.compare
          (Sample_space.cell_uid b.cell)
          (Sample_space.cell_uid a.cell)
      in
      if c <> 0 then c else Int.compare a.version b.version

  (* The current entry for a cell, [None] when the cell witnesses no
     ball (such cells never enter a heap). *)
  let of_cell c =
    let depth = Sample_space.cell_max c in
    if depth > 0. then
      Some { depth; version = Sample_space.cell_version c; cell = c }
    else None

  let live e =
    e.version = Sample_space.cell_version e.cell
    && Sample_space.cell_max e.cell > 0.
end

type entry = Entry.t

type t = {
  dim : int;
  cfg : Config.t;
  radius : float;
  balls : (handle, Point.t * float) Hashtbl.t;  (** scaled centers *)
  mutable space : Sample_space.t;
  mutable heap : entry Heap.t;
  mutable n0 : int;  (** live count at epoch start *)
  mutable next_handle : int;
  mutable epochs : int;
  mutable pushes : int;  (** heap entries since the last compaction *)
}

let entry_cmp = Entry.cmp

(* The heap is lazy: every cell-max change pushes a fresh entry and stale
   ones are discarded at query time. Unchecked, that grows without bound,
   so once the entry count exceeds a multiple of the live-cell count we
   rebuild the heap from scratch — O(cells) work amortized over at least
   as many pushes. *)
let compact t =
  Log.debug (fun m ->
      m "compacting lazy heap: %d entries over %d cells" (Heap.length t.heap)
        (Sample_space.cell_count t.space));
  t.heap <- Heap.create ~cmp:entry_cmp;
  t.pushes <- 0;
  Sample_space.iter_live_cells t.space (fun c ->
      match Entry.of_cell c with
      | Some e -> Heap.push t.heap e
      | None -> ())

let attach_hook t =
  Sample_space.on_cell_change t.space (fun c ->
      match Entry.of_cell c with
      | Some e ->
          Heap.push t.heap e;
          t.pushes <- t.pushes + 1
      | None -> ())

(* Shared with the sharded store so both compaction policies amortize
   identically (policy only — compaction never changes answers). *)
let heap_budget ~cells = Int.max 50_000 (4 * cells)

let maybe_compact t =
  if t.pushes > heap_budget ~cells:(Sample_space.cell_count t.space) then
    compact t

let create ?(cfg = Config.default) ?(radius = 1.) ~dim () =
  Config.validate cfg;
  if radius <= 0. then invalid_arg "Dynamic.create: radius must be positive";
  let t =
    {
      dim;
      cfg;
      radius;
      balls = Hashtbl.create 256;
      space = Sample_space.create ~dim ~cfg ~expected_n:16;
      heap = Heap.create ~cmp:entry_cmp;
      n0 = 4;
      next_handle = 0;
      epochs = 0;
      pushes = 0;
    }
  in
  attach_hook t;
  t

let size t = Hashtbl.length t.balls
let epochs t = t.epochs
let sample_count t = Sample_space.sample_count t.space
let dim t = t.dim
let radius t = t.radius
let config t = t.cfg
let handle_id (h : handle) : int = h
let handle_of_id (i : int) : handle = i

let rebuild t =
  t.epochs <- t.epochs + 1;
  Log.debug (fun m ->
      m "epoch %d: rebuilding sample space at n=%d (%d cells, %d samples)"
        t.epochs (size t)
        (Sample_space.cell_count t.space)
        (Sample_space.sample_count t.space));
  t.n0 <- Int.max 4 (size t);
  t.space <- Sample_space.create ~dim:t.dim ~cfg:t.cfg ~expected_n:t.n0;
  t.heap <- Heap.create ~cmp:entry_cmp;
  t.pushes <- 0;
  attach_hook t;
  (* Sorted handle order, not hash-table order: the sample positions an
     epoch draws depend on the insertion order, and a restored ball
     table must rebuild exactly like the original. *)
  Hashtbl.fold (fun h bw acc -> (h, bw) :: acc) t.balls []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (_, (center, weight)) ->
         Sample_space.insert t.space ~center ~weight)

let maybe_rebuild t =
  let n = size t in
  if n > 2 * t.n0 || (n < t.n0 / 2 && t.n0 > 4) then rebuild t

let scale t p = Point.scale (1. /. t.radius) p
let unscale t p = Point.scale t.radius p

let insert_checked t ?(weight = 1.) p =
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
      Hashtbl.replace t.balls h (center, weight);
      Sample_space.insert t.space ~center ~weight;
      maybe_rebuild t;
      maybe_compact t;
      h)
    check

let insert t ?weight p = Guard.ok_exn (insert_checked t ?weight p)

let delete t h =
  match Hashtbl.find_opt t.balls h with
  | None -> raise Not_found
  | Some (center, weight) ->
      Hashtbl.remove t.balls h;
      Sample_space.delete t.space ~center ~weight;
      maybe_rebuild t;
      maybe_compact t

let best t =
  (* Lazy-deletion pop: discard entries whose cell has changed since the
     entry was pushed. *)
  let rec go () =
    match Heap.peek t.heap with
    | None -> None
    | Some e ->
        if Entry.live e then
          Some (unscale t (Sample_space.cell_best e.cell).Sample_space.pos, e.depth)
        else begin
          ignore (Heap.pop t.heap);
          go ()
        end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Durable state capture. The lazy heap is not serialized: stale entries
   never influence a query (they are discarded on sight) and, because
   [entry_cmp] is a total order, a heap rebuilt by [compact] from the
   restored cells returns exactly the answers the original heap would
   have — so [restore st] continues bit-identically to the structure
   [st] was captured from. *)

module State = struct
  type t = {
    dim : int;
    radius : float;
    cfg : Config.t;
    balls : (handle * (Point.t * float)) list;
        (** scaled centers, sorted by handle *)
    n0 : int;
    next_handle : int;
    epochs : int;
    space : Sample_space.State.t;
  }
end

let state t =
  {
    State.dim = t.dim;
    radius = t.radius;
    cfg = t.cfg;
    balls =
      Hashtbl.fold (fun h (c, w) acc -> (h, (Array.copy c, w)) :: acc) t.balls []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    n0 = t.n0;
    next_handle = t.next_handle;
    epochs = t.epochs;
    space = Sample_space.state t.space;
  }

let restore (s : State.t) =
  Config.validate s.State.cfg;
  if s.State.radius <= 0. then
    invalid_arg "Dynamic.restore: radius must be positive";
  if s.State.n0 < 4 || s.State.next_handle < 0 || s.State.epochs < 0 then
    invalid_arg "Dynamic.restore: negative or degenerate counters";
  let space = Sample_space.restore ~cfg:s.State.cfg s.State.space in
  let balls = Hashtbl.create 256 in
  List.iter
    (fun (h, (c, w)) ->
      if h < 0 || h >= s.State.next_handle then
        invalid_arg "Dynamic.restore: handle out of range";
      if Array.length c <> s.State.dim then
        invalid_arg "Dynamic.restore: ball dimension mismatch";
      Hashtbl.replace balls h (Array.copy c, w))
    s.State.balls;
  let t =
    {
      dim = s.State.dim;
      cfg = s.State.cfg;
      radius = s.State.radius;
      balls;
      space;
      heap = Heap.create ~cmp:entry_cmp;
      n0 = s.State.n0;
      next_handle = s.State.next_handle;
      epochs = s.State.epochs;
      pushes = 0;
    }
  in
  attach_hook t;
  compact t;
  t
