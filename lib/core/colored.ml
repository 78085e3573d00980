module Point = Maxrs_geom.Point
module Pstore = Maxrs_geom.Pstore
module Obs = Maxrs_obs.Obs
module Parallel = Maxrs_parallel.Parallel
module Guard = Maxrs_resilience.Guard
module Fvec = Maxrs_geom.Fvec

type result = { center : Point.t; value : int }

(* Columnar solve core over a colored store; see [Static.build] for
   the scratch-buffer scaling argument. The color-grouped processing
   order (Section 3.2's sort step) is computed on an index array with
   the exact comparator the tuple path used, so the permutation — and
   hence every sample's last-color-seen sequence — is unchanged. *)
let solve_core ~cfg ~radius ~dim store =
  Obs.with_span "colored.solve" @@ fun () ->
  begin
    let n = Pstore.length store in
    let space = Sample_space.create ~dim ~cfg ~expected_n:n in
    let colors = Pstore.colors store in
    (* Process balls grouped by color (Section 3.2's sort step). *)
    let order = Array.init n Fun.id in
    Array.sort (fun i j -> compare colors.(i) colors.(j)) order;
    let inv = 1. /. radius in
    let cols = Array.init dim (Pstore.col store) in
    (* Shard by shifted-grid index (see Static.solve): every grid sees
       the same color-grouped sequence, independently of the others. *)
    Parallel.with_pool ~domains:(Config.domains cfg) (fun pool ->
        Parallel.parallel_for pool ~n:(Sample_space.grid_count space)
          (fun gi ->
            let buf = Array.make dim 0. in
            Array.iter
              (fun i ->
                for k = 0 to dim - 1 do
                  Array.unsafe_set buf k
                    (inv *. Fvec.unsafe_get (Array.unsafe_get cols k) i)
                done;
                Sample_space.touch_colored_in_grid space ~grid:gi ~center:buf
                  ~color:(Array.unsafe_get colors i))
              order));
    match Sample_space.best space with
    | Some s when s.Sample_space.depth > 0. ->
        Some
          {
            center = Point.scale radius s.Sample_space.pos;
            value = int_of_float s.Sample_space.depth;
          }
    | _ -> None
  end

let solve_unchecked ?(cfg = Config.default) ?(radius = 1.) ~dim pts ~colors =
  Config.validate cfg;
  if Array.length pts = 0 then None
  else solve_core ~cfg ~radius ~dim (Pstore.of_colored pts ~colors)

let solve_store ?(cfg = Config.default) ?(radius = 1.) store =
  Config.validate cfg;
  solve_core ~cfg ~radius ~dim:(Pstore.dims store) store

let solve_checked ?cfg ?(radius = 1.) ~dim pts ~colors =
  let cols = colors in
  (* rebound: [open Guard] below shadows [colors] *)
  let open Guard in
  let check =
    let* () = positive ~field:"radius" radius in
    if dim < 1 then
      invalid ~field:"dim" (Printf.sprintf "must be >= 1, got %d" dim)
    else
      let* () = points ~dim ~field:"points" pts in
      colors ~nonneg:true ~field:"colors" ~expected:(Array.length pts) cols
  in
  Result.map
    (fun () -> solve_unchecked ?cfg ~radius ~dim pts ~colors:cols)
    check

let solve ?cfg ?radius ~dim pts ~colors =
  Guard.ok_exn (solve_checked ?cfg ?radius ~dim pts ~colors)

let solve_or_point ?cfg ?radius ~dim pts ~colors =
  let cols = colors in
  Guard.ok_exn
    (let open Guard in
     let* () = non_empty ~field:"points" pts in
     let* r = solve_checked ?cfg ?radius ~dim pts ~colors:cols in
     match r with
     | Some r -> Ok r
     | None -> Ok { center = pts.(0); value = 1 })
