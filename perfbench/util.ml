(* Clock, order statistics and the result printer. *)

(* Monotonic seconds: every duration in the benchmark is a difference of
   two readings of this one clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank quantile of an unsorted sample; 0 when empty. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = Float.to_int (Float.ceil (q *. Float.of_int n)) in
    s.(Int.max 0 (Int.min (n - 1) (rank - 1)))
  end

let median xs = quantile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. Float.of_int n

let sum xs = Array.fold_left ( +. ) 0. xs

(* Growable float column. *)
module Fcol = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

let float_bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* {1 Result} *)

type metric = { name : string; unit_ : string; value : float; samples : int option }

let metric ?samples name unit_ value = { name; unit_; value; samples }

(* JSON numbers must be finite; a metric with nothing to measure on this
   workload reads 0. *)
let finite v = if Float.is_finite v then v else 0.

let print_metrics ms =
  List.iter
    (fun m ->
      Printf.printf "  %-36s %16.6f %-6s%s\n" m.name (finite m.value) m.unit_
        (match m.samples with
        | Some n -> Printf.sprintf "  (n=%d)" n
        | None -> ""))
    ms

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed ms =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string m.name)
          (finite m.value) (json_string m.unit_))
      ms
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct (Int.max 1 attempted) failed (String.concat ", " metrics)

(* {1 Failures} — counted against operations attempted, each printed
   with the request that caused it. *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }
let shown = ref 0

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      incr shown;
      if !shown <= 50 then prerr_endline ("perfbench: FAILED " ^ msg)
      else if !shown = 51 then prerr_endline "perfbench: (further failures not shown)")
    fmt

let check t r ~what =
  t.attempted <- t.attempted + 1;
  match r with Ok () -> () | Error msg -> fail t "%s: %s" what msg

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt
