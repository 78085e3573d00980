module Point = Maxrs_geom.Point
module Guard = Maxrs_resilience.Guard
module Obs = Maxrs_obs.Obs

let src = Logs.Src.create "maxrs.dynamic" ~doc:"Dynamic MaxRS (Theorem 1.1)"

module Log = (val Logs.src_log src : Logs.LOG)

(* Ball updates applied and epoch rebuilds run, counted alike by the
   sharded store. *)
let c_updates = Obs.counter "dynamic.updates"
let c_rebuilds = Obs.counter "dynamic.rebuilds"

type handle = int

type t = {
  dim : int;
  cfg : Config.t;
  radius : float;
  balls : (handle, Point.t * float) Hashtbl.t;  (** scaled centers *)
  mutable space : Sample_space.t;
  mutable heap : Cell_heap.t;  (** the space's cells with a positive max *)
  mutable n0 : int;  (** live count at epoch start *)
  mutable next_handle : int;
  mutable epochs : int;
}

(* The hook re-seats every changed cell in the heap in place, so the
   heap's top is always the deepest cell. *)
let attach_hook t =
  Sample_space.on_cell_change t.space (fun c -> Cell_heap.update t.heap c)

let create ?(cfg = Config.default) ?(radius = 1.) ~dim () =
  Config.validate cfg;
  if radius <= 0. then invalid_arg "Dynamic.create: radius must be positive";
  let space = Sample_space.create ~dim ~cfg ~expected_n:16 in
  let t =
    {
      dim;
      cfg;
      radius;
      balls = Hashtbl.create 256;
      space;
      heap = Cell_heap.create space;
      n0 = 4;
      next_handle = 0;
      epochs = 0;
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
  Obs.incr c_rebuilds;
  Log.debug (fun m ->
      m "epoch %d: rebuilding sample space at n=%d (%d cells, %d samples)"
        t.epochs (size t)
        (Sample_space.cell_count t.space)
        (Sample_space.sample_count t.space));
  t.n0 <- Int.max 4 (size t);
  t.space <- Sample_space.create ~dim:t.dim ~cfg:t.cfg ~expected_n:t.n0;
  t.heap <- Cell_heap.create t.space;
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
      Obs.incr c_updates;
      Sample_space.insert t.space ~center ~weight;
      maybe_rebuild t;
      h)
    check

let insert t ?weight p = Guard.ok_exn (insert_checked t ?weight p)

let delete t h =
  match Hashtbl.find_opt t.balls h with
  | None -> raise Not_found
  | Some (center, weight) ->
      Hashtbl.remove t.balls h;
      Obs.incr c_updates;
      Sample_space.delete t.space ~center ~weight;
      maybe_rebuild t

let best t =
  match Cell_heap.top t.heap with
  | None -> None
  | Some c ->
      Some
        ( unscale t (Sample_space.cell_best t.space c).Sample_space.pos,
          Sample_space.cell_max t.space c )

(* ------------------------------------------------------------------ *)
(* Durable state capture. The heap is not serialized: its order is
   total, so a heap seeded from the restored cells' cached maxima (which
   [Sample_space.restore] computes from the depths) has the same top
   as the original — and [restore st] continues bit-identically to the
   structure [st] was captured from. *)

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
      heap = Cell_heap.create space;
      n0 = s.State.n0;
      next_handle = s.State.next_handle;
      epochs = s.State.epochs;
    }
  in
  attach_hook t;
  Sample_space.iter_live_cells space (Cell_heap.update t.heap);
  t
