(* Reference answers, computed by the same library calls in this process,
   and the checks that compare the code under test against them. Every
   comparison is on float bits. *)

module Proto = Maxrs_server.Proto
module Outcome = Maxrs_resilience.Outcome
module Guard = Maxrs_resilience.Guard
module Resilient = Maxrs.Resilient
module Static = Maxrs.Static
module Config = Maxrs.Config
module Interval1d = Maxrs_sweep.Interval1d
module Rmsq = Maxrs_query.Rmsq

let same = Util.float_bits_equal

let show_request req =
  let first show = function [||] -> "-" | a -> show a.(0) in
  let xyw = first (fun (x, y, w) -> Printf.sprintf "(%h,%h,%h)" x y w) in
  let xw = first (fun (x, w) -> Printf.sprintf "(%h,%h)" x w) in
  let xy = first (fun (x, y) -> Printf.sprintf "(%h,%h)" x y) in
  match req with
  | Proto.Range_sum { lo; hi } -> Printf.sprintf "Range_sum [%h, %h]" lo hi
  | Proto.Query -> "Query"
  | Proto.Solve_weighted { points; _ } ->
      Printf.sprintf "Solve_weighted n=%d first=%s" (Array.length points) (xyw points)
  | Proto.Solve_static { points; _ } ->
      Printf.sprintf "Solve_static n=%d first=%s" (Array.length points) (xyw points)
  | Proto.Solve_interval { points; _ } ->
      Printf.sprintf "Solve_interval n=%d first=%s" (Array.length points) (xw points)
  | Proto.Solve_colored { points; _ } ->
      Printf.sprintf "Solve_colored n=%d first=%s" (Array.length points) (xy points)
  | _ -> "other request"

let show_seg = function
  | None -> "none"
  | Some (l, h, s) -> Printf.sprintf "(%d,%d,%h)" l h s

let show_reply = function
  | Proto.Range_best { seg; epoch; lag_ops } ->
      Printf.sprintf "Range_best seg=%s epoch=%d lag=%d" (show_seg seg) epoch lag_ops
  | Proto.Best None -> "Best none"
  | Proto.Best (Some (x, y, v)) -> Printf.sprintf "Best (%h,%h,%h)" x y v
  | Proto.Solved o ->
      let a = Outcome.value o in
      Printf.sprintf "Solved %s (%h,%h,%h) verified=%b source=%s" (Outcome.label o) a.Proto.x
        a.Proto.y a.Proto.value a.Proto.verified
        (match a.Proto.source with
        | Proto.Exact -> "exact"
        | Proto.Approx_fallback -> "approx"
        | Proto.Best_so_far -> "best_so_far")
  | Proto.Error_reply { code; msg; _ } ->
      Printf.sprintf "Error_reply %s: %s" (Proto.err_code_to_string code) msg
  | _ -> "other reply"

(* {1 Solves} — what the daemon's request path answers, built from the
   same library entry with the same arguments. *)

let source_of = function
  | Resilient.Exact -> Proto.Exact
  | Resilient.Approx_fallback -> Proto.Approx_fallback
  | Resilient.Best_so_far -> Proto.Best_so_far

let invalid msg = Proto.Error_reply { code = Proto.Invalid; retry_after_ms = 0; msg }

let solve (req : Proto.request) : Proto.reply =
  match req with
  | Proto.Solve_weighted { radius; deadline; points } -> (
      match Resilient.exact_weighted ?deadline ~radius points with
      | Error e -> invalid (Guard.to_string e)
      | Ok o ->
          Proto.Solved
            (Outcome.map
               (fun (r : Resilient.weighted_result) ->
                 {
                   Proto.x = r.wx;
                   y = r.wy;
                   value = r.value;
                   verified = r.wverified;
                   source = source_of r.wsource;
                 })
               o))
  | Proto.Solve_colored { radius; deadline; seed; max_shifts; points; colors } -> (
      match Resilient.exact_colored ~radius ?max_shifts ~seed ?deadline points ~colors with
      | Error e -> invalid (Guard.to_string e)
      | Ok o ->
          Proto.Solved
            (Outcome.map
               (fun (r : Resilient.colored_result) ->
                 {
                   Proto.x = r.x;
                   y = r.y;
                   value = Float.of_int r.depth;
                   verified = r.verified;
                   source = source_of r.source;
                 })
               o))
  | Proto.Solve_static { radius; epsilon; seed; max_shifts; points } -> (
      let cfg = Config.make ~epsilon ~max_grid_shifts:max_shifts ~seed () in
      let pts = Array.map (fun (x, y, w) -> ([| x; y |], w)) points in
      match Static.solve_checked ~cfg ~radius ~dim:2 pts with
      | Error e -> invalid (Guard.to_string e)
      | Ok None -> invalid "no placement found (degenerate input)"
      | Ok (Some r) ->
          Proto.Solved
            (Outcome.Complete
               {
                 Proto.x = r.Static.center.(0);
                 y = r.Static.center.(1);
                 value = r.Static.value;
                 verified = false;
                 source = Proto.Exact;
               }))
  | Proto.Solve_interval { len; points } -> (
      match Interval1d.max_sum_checked ~len points with
      | Error e -> invalid (Guard.to_string e)
      | Ok p ->
          Proto.Solved
            (Outcome.Complete
               {
                 Proto.x = p.Interval1d.lo;
                 y = p.Interval1d.lo +. len;
                 value = p.Interval1d.value;
                 verified = false;
                 source = Proto.Exact;
               }))
  | _ -> invalid_arg "Expect.solve: not a solve request"

let solved_value = function
  | Proto.Solved o -> Some (Outcome.value o).Proto.value
  | _ -> None

(* Every float bit, the outcome status, [verified] and the source: the
   canonical encodings must be byte-equal. *)
let reply ~expected got =
  if String.equal (Proto.encode_reply ~id:0 expected) (Proto.encode_reply ~id:0 got) then Ok ()
  else Error (Printf.sprintf "expected %s, got %s" (show_reply expected) (show_reply got))

(* {1 Reads} *)

let seg_ref b ~lo ~hi =
  Rmsq.scan_coords b ~lo ~hi |> Option.map (fun s -> (s.Rmsq.s_lo, s.Rmsq.s_hi, s.Rmsq.s_sum))

let seg_equal a b =
  match (a, b) with
  | None, None -> true
  | Some (l, h, s), Some (l', h', s') -> l = l' && h = h' && same s s'
  | _ -> false

(* A [Range_best] must report lag 0 and the segment the reference scan
   finds over the live set; a timed reply must also come from a warm
   index (epoch >= 1). *)
let range ~b ~lo ~hi ~warm got =
  match got with
  | Proto.Range_best { seg; epoch; lag_ops } ->
      let want = seg_ref b ~lo ~hi in
      if lag_ops <> 0 then Error (Printf.sprintf "lag_ops %d, want 0 (%s)" lag_ops (show_reply got))
      else if warm && epoch < 1 then Error (Printf.sprintf "cold reply in the timed phase (%s)" (show_reply got))
      else if not (seg_equal seg want) then
        Error (Printf.sprintf "seg %s, want %s" (show_seg seg) (show_seg want))
      else Ok ()
  | r -> Error ("unexpected reply " ^ show_reply r)

let best_equal a b =
  match (a, b) with
  | None, None -> true
  | Some (x, y, v), Some (x', y', v') -> same x x' && same y y' && same v v'
  | _ -> false

let best ~expected got =
  match got with
  | Proto.Best b when best_equal b expected -> Ok ()
  | r -> Error (Printf.sprintf "expected %s, got %s" (show_reply (Proto.Best expected)) (show_reply r))

(* The dynamic structure's [best] as the wire carries it. *)
let best_of = function Some (p, v) -> Some (p.(0), p.(1), v) | None -> None
