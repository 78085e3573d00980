module Circle = Maxrs_geom.Circle
module Angle = Maxrs_geom.Angle
module Closed = Maxrs_geom.Closed

type stats = { union_arcs : int; circles_swept : int; events : int }
type result = { x : float; y : float; depth : int; stats : stats }

(* Spatial hash over disk centers with cell side twice the reach: only
   disks in the 3x3 cell neighborhood of a circle's center can touch it
   under the [Closed] rule. *)
module Hash = struct
  type t = { side : float; tbl : (int * int, int list ref) Hashtbl.t }

  let key t (x, y) =
    ( int_of_float (Float.floor (x /. t.side)),
      int_of_float (Float.floor (y /. t.side)) )

  let create ~side centers =
    let t = { side; tbl = Hashtbl.create (Array.length centers) } in
    Array.iteri
      (fun i c ->
        let k = key t c in
        match Hashtbl.find_opt t.tbl k with
        | Some l -> l := i :: !l
        | None -> Hashtbl.add t.tbl k (ref [ i ]))
      centers;
    t

  let neighbors t c f =
    let kx, ky = key t c in
    for dx = -1 to 1 do
      for dy = -1 to 1 do
        match Hashtbl.find_opt t.tbl (kx + dx, ky + dy) with
        | Some l -> List.iter f !l
        | None -> ()
      done
    done
end

(* Sweep one circle: colored depth along its boundary, using only the
   disks in [candidates]. Returns (best angle, best depth, events). *)
let sweep_circle ~radius centers ~colors i candidates =
  let xi, yi = centers.(i) in
  let c = Circle.make ~cx:xi ~cy:yi ~r:radius in
  let counts = Hashtbl.create 32 in
  let distinct = ref 0 in
  let bump col delta =
    let cur = Option.value ~default:0 (Hashtbl.find_opt counts col) in
    let next = cur + delta in
    Hashtbl.replace counts col next;
    if cur = 0 && next = 1 then incr distinct;
    if cur = 1 && next = 0 then decr distinct
  in
  bump colors.(i) 1;
  let events = ref [] in
  let n_events = ref 0 in
  List.iter
    (fun j ->
      if j <> i then begin
        let xj, yj = centers.(j) in
        match Circle.coverage_by_disk c ~cx:xj ~cy:yj ~r:radius with
        | Circle.Covered -> bump colors.(j) 1
        | Circle.Disjoint -> ()
        | Circle.Arc ivl ->
            let s, e = Angle.endpoints ivl in
            events := (s, true, colors.(j)) :: (e, false, colors.(j)) :: !events;
            n_events := !n_events + 2;
            (* Active from the start iff the arc wraps past angle 0 (its
               removal sorts before its addition); one starting at 0 is
               added by its own event. *)
            if e < s then bump colors.(j) 1
      end)
    candidates;
  let evts = Array.of_list !events in
  Array.sort
    (fun (a1, add1, _) (a2, add2, _) ->
      match Float.compare a1 a2 with
      | 0 -> Bool.compare add2 add1
      | cmp -> cmp)
    evts;
  let best = ref !distinct and best_angle = ref 0. in
  Array.iter
    (fun (a, add, col) ->
      bump col (if add then 1 else -1);
      if add && !distinct > !best then begin
        best := !distinct;
        best_angle := a
      end)
    evts;
  (!best_angle, !best, !n_events)

let max_colored_depth ~radius centers ~colors =
  assert (radius > 0.);
  let n = Array.length centers in
  assert (n > 0 && Array.length colors = n);
  (* Per-color union boundaries. *)
  let by_color = Hashtbl.create 16 in
  Array.iteri
    (fun i col ->
      match Hashtbl.find_opt by_color col with
      | Some l -> l := i :: !l
      | None -> Hashtbl.add by_color col (ref [ i ]))
    colors;
  let union_arcs = ref 0 in
  let contributing = Hashtbl.create n in
  Hashtbl.iter
    (fun _col idxs ->
      let idxs = Array.of_list !idxs in
      let sub_centers = Array.map (fun i -> centers.(i)) idxs in
      let arcs = Disk_union.boundary_arcs ~radius sub_centers in
      union_arcs := !union_arcs + List.length arcs;
      List.iter
        (fun a -> Hashtbl.replace contributing idxs.(a.Disk_union.disk) ())
        arcs)
    by_color;
  let hash = Hash.create ~side:(2. *. Closed.reach radius) centers in
  let best = ref { x = 0.; y = 0.; depth = min_int; stats = { union_arcs = 0; circles_swept = 0; events = 0 } } in
  let swept = ref 0 and total_events = ref 0 in
  Hashtbl.iter
    (fun i () ->
      incr swept;
      let candidates = ref [] in
      Hash.neighbors hash centers.(i) (fun j -> candidates := j :: !candidates);
      let angle, depth, events =
        sweep_circle ~radius centers ~colors i !candidates
      in
      total_events := !total_events + events;
      if depth > !best.depth then begin
        let xi, yi = centers.(i) in
        let c = Circle.make ~cx:xi ~cy:yi ~r:radius in
        let x, y = Circle.point_at c angle in
        best := { x; y; depth; stats = !best.stats }
      end)
    contributing;
  let stats =
    { union_arcs = !union_arcs; circles_swept = !swept; events = !total_events }
  in
  { !best with stats }
