module Closed = Maxrs_geom.Closed

type result = { x : float; y : float; value : int }

let colored_depth_at ~width ~height centers ~colors qx qy =
  let rw = Closed.reach (width /. 2.) and rh = Closed.reach (height /. 2.) in
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun i (x, y) ->
      if Float.abs (x -. qx) <= rw && Float.abs (y -. qy) <= rh then
        Hashtbl.replace seen colors.(i) ())
    centers;
  Hashtbl.length seen

let max_colored ~width ~height centers ~colors =
  assert (width > 0. && height > 0.);
  let n = Array.length centers in
  assert (n > 0 && Array.length colors = n);
  let rw = Closed.reach (width /. 2.) and rh = Closed.reach (height /. 2.) in
  let best = ref { x = 0.; y = 0.; value = 0 } in
  (* Candidate x-coordinates: a maximum-depth point slides left until
     some dual box's left edge binds. *)
  let seen_cx = Hashtbl.create n in
  Array.iter
    (fun (px, _) ->
      let cx = px -. rw in
      if not (Hashtbl.mem seen_cx cx) then begin
        Hashtbl.add seen_cx cx ();
        let ivls = ref [] in
        Array.iteri
          (fun i (x, y) ->
            if x -. rw <= cx && cx <= x +. rw then
              ivls := ((y -. rh, y +. rh), colors.(i)) :: !ivls)
          centers;
        match !ivls with
        | [] -> ()
        | _ :: _ ->
            let y, depth = Colored_interval1d.max_stab (Array.of_list !ivls) in
            if depth > !best.value then best := { x = cx; y; value = depth }
      end)
    centers;
  let { x; y; value } = !best in
  let x, y =
    Rect2d.center_with_margin ~width ~height
      (Array.map (fun (x, y) -> (x, y, 0.)) centers)
      x y
  in
  { x; y; value }
