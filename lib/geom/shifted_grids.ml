type t = {
  dim : int;
  side : float;
  delta : float;
  grids : Grid.t array;
  faithful : bool;
}

let shifts_per_axis ~side ~delta ~dim =
  assert (side > 0. && delta > 0.);
  int_of_float (Float.ceil (side *. sqrt (float_of_int dim) /. delta))

let faithful_origins ~dim ~side ~delta =
  let per_axis = shifts_per_axis ~side ~delta ~dim in
  let step = delta /. sqrt (float_of_int dim) in
  let total = int_of_float (float_of_int per_axis ** float_of_int dim) in
  let origins = ref [] in
  (* Odometer over z in {0..per_axis-1}^dim. *)
  let z = Array.make dim 0 in
  let rec go i =
    if i = dim then
      origins := Array.init dim (fun j -> float_of_int z.(j) *. step) :: !origins
    else
      for v = 0 to per_axis - 1 do
        z.(i) <- v;
        go (i + 1)
      done
  in
  go 0;
  assert (List.length !origins = total);
  List.rev !origins

(* The faithful collection's size, as a float: it can exceed every
   int, and [count_for] is asked before anything is built. Inlined, so
   the float is not boxed on its way out. *)
let[@inline] faithful_count ~dim ~side ~delta =
  float_of_int (shifts_per_axis ~side ~delta ~dim) ** float_of_int dim

let count_for ?cap ~dim ~side ~delta () =
  let faithful = faithful_count ~dim ~side ~delta in
  match cap with
  | Some c when faithful > float_of_int c -> float_of_int c
  | _ -> faithful

let make ?cap ?rng ~dim ~side ~delta () =
  assert (dim > 0 && side > 0. && delta > 0.);
  let faithful_count = faithful_count ~dim ~side ~delta in
  let use_cap =
    match cap with Some c -> faithful_count > float_of_int c | None -> false
  in
  let origins =
    if use_cap then begin
      let c = Option.get cap in
      let rng = match rng with Some r -> r | None -> Rng.create 0x5eed in
      List.init c (fun _ -> Array.init dim (fun _ -> Rng.float rng side))
    end
    else begin
      (* Refuse to build collections that cannot fit in memory. *)
      assert (faithful_count <= 4e6);
      faithful_origins ~dim ~side ~delta
    end
  in
  let grids =
    Array.of_list (List.map (fun origin -> Grid.make ~side ~origin) origins)
  in
  { dim; side; delta; grids; faithful = not use_cap }

let count t = Array.length t.grids

(* Δ-near means inside the closed Δ-ball about the cell center. *)
let near t g key p =
  Closed.in_ball ~radius:t.delta (Point.dist2 p (Grid.cell_center g key))

let is_near t ~grid_index p =
  let g = t.grids.(grid_index) in
  near t g (Grid.key_of_point g p) p

let find_near t p =
  let n = count t in
  let rec go i =
    if i >= n then None
    else
      let g = t.grids.(i) in
      let key = Grid.key_of_point g p in
      if near t g key p then Some (i, key) else go (i + 1)
  in
  go 0
