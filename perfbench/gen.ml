(* Seeded inputs for every workload.

   Each input family draws from its own [Random.State] keyed by
   (seed, tag), so the same seed always yields the same bytes and one
   family never shifts another. The code under test only ever sees
   these generated values. *)

module Proto = Maxrs_server.Proto

type size = Full | Smoke

let size_of_string = function
  | "full" -> Some Full
  | "smoke" -> Some Smoke
  | _ -> None

let size_to_string = function Full -> "full" | Smoke -> "smoke"
let rng ~seed ~tag = Random.State.make [| 0x70657266; seed; tag |]
let unif st lo hi = lo +. Random.State.float st (hi -. lo)

(* {1 The prepared session} *)

let prep_n = function Full -> 2500 | Smoke -> 250

(* Session ops between automatic snapshots: the library default at full
   size, so the prepared layout carries snapshots at 1,000 and 2,000
   and recovery replays the last 500 ops. *)
let snapshot_every = function Full -> 1000 | Smoke -> 100
let fsync_interval = 64
let radius = 1.

(* [n] points uniform in [-10,10]^2 with weights U[0,1). *)
let prepared ~size ~seed =
  let st = rng ~seed ~tag:1 in
  Array.init (prep_n size) (fun _ ->
      let x = unif st (-10.) 10. in
      let y = unif st (-10.) 10. in
      let w = Random.State.float st 1. in
      (x, y, w))

(* {1 ingest} *)

type op = Ins of { x : float; y : float; w : float } | Del of int | Best

(* A fixed multiple of the snapshot cadence: every round takes the same
   four snapshots at the same positions, whatever the host's speed. *)
let ingest_ops size = 5 * snapshot_every size

(* Writes alternate insert / delete-of-a-random-live-handle, and a
   [Best] follows every nine writes. The live count stays at n or n+1,
   so the dynamic structure never rebuilds. Handles are the dense ids
   the structure assigns in insertion order: the prepared points hold
   0..n-1. *)
let ingest_script ~size ~seed =
  let n0 = prep_n size and nops = ingest_ops size in
  let st = rng ~seed ~tag:2 in
  let live = Array.make (n0 + nops) 0 in
  for i = 0 to n0 - 1 do
    live.(i) <- i
  done;
  let nlive = ref n0 and next = ref n0 and writes = ref 0 in
  let ops = Array.make nops Best in
  for i = 0 to nops - 1 do
    if i mod 10 <> 9 then begin
      if !writes mod 2 = 0 then begin
        let x = unif st (-10.) 10. in
        let y = unif st (-10.) 10. in
        let w = Random.State.float st 1. in
        live.(!nlive) <- !next;
        incr nlive;
        incr next;
        ops.(i) <- Ins { x; y; w }
      end
      else begin
        let k = Random.State.int st !nlive in
        let h = live.(k) in
        live.(k) <- live.(!nlive - 1);
        decr nlive;
        ops.(i) <- Del h
      end;
      incr writes
    end
  done;
  ops

let is_write = function Ins _ | Del _ -> true | Best -> false

(* Live weighted points after each [Best] op whose ordinal is in
   [at] — the inputs of the exact-optimum checkpoints. *)
let live_at ~size ~seed ops ~at =
  let tbl = Hashtbl.create 4096 in
  Array.iteri (fun i p -> Hashtbl.replace tbl i p) (prepared ~size ~seed);
  let next = ref (prep_n size) and nbest = ref 0 and out = ref [] in
  Array.iter
    (function
      | Ins { x; y; w } ->
          Hashtbl.replace tbl !next (x, y, w);
          incr next
      | Del h -> Hashtbl.remove tbl h
      | Best ->
          if List.mem !nbest at then begin
            let pts =
              Hashtbl.fold (fun h p acc -> (h, p) :: acc) tbl []
              |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
              |> List.map snd |> Array.of_list
            in
            out := (!nbest, pts) :: !out
          end;
          incr nbest)
    ops;
  List.rev !out

(* {1 serve_reads} *)

type read = Range of float * float | Query

(* 90% [Range_sum] over [lo, lo + U(0,10)] with lo ~ U(-10,10), 10%
   [Query]. An endless stream: the closed loop draws until its time is
   up, and the trace replays the prefix that was sent. *)
let reads ~seed =
  let st = rng ~seed ~tag:3 in
  fun () ->
    if Random.State.float st 1. < 0.9 then begin
      let lo = unif st (-10.) 10. in
      let len = Random.State.float st 10. in
      Range (lo, lo +. len)
    end
    else Query

let read_request = function
  | Range (lo, hi) -> Proto.Range_sum { lo; hi }
  | Query -> Proto.Query

(* {1 solve_mix} *)

type kind = Weighted | Static | Interval | Colored

let kind_name = function
  | Weighted -> "weighted"
  | Static -> "static"
  | Interval -> "interval"
  | Colored -> "colored"

let kinds = [| Weighted; Static; Interval; Colored |]

(* The fixed 4:4:4:1 rotation. *)
let rotation =
  [|
    Weighted; Static; Interval; Weighted; Static; Interval; Weighted; Static;
    Interval; Weighted; Static; Interval; Colored;
  |]

let pool_size = 16

type sizes = { weighted_n : int; interval_n : int; colored_n : int }

let sizes = function
  | Full -> { weighted_n = 100; interval_n = 12_000; colored_n = 30 }
  | Smoke -> { weighted_n = 40; interval_n = 500; colored_n = 20 }

let static_epsilon = 0.3
let static_shifts = 4
let solver_seed = 7
let interval_len = 10.
let colors = 10

type pools = {
  weighted : (float * float * float) array array;
      (** also the [Solve_static] inputs *)
  interval : (float * float) array array;
  colored : ((float * float) array * int array) array;
}

let pools ~size ~seed =
  let sz = sizes size in
  let st = rng ~seed ~tag:4 in
  let weighted =
    Array.init pool_size (fun _ ->
        Array.init sz.weighted_n (fun _ ->
            let x = unif st (-5.) 5. in
            let y = unif st (-5.) 5. in
            let w = Random.State.float st 1. in
            (x, y, w)))
  in
  let interval =
    Array.init pool_size (fun _ ->
        Array.init sz.interval_n (fun _ ->
            let x = unif st 0. 1000. in
            let w = unif st (-0.3) 0.7 in
            (x, w)))
  in
  let colored =
    Array.init pool_size (fun _ ->
        let pts =
          Array.init sz.colored_n (fun _ ->
              let x = unif st 0. 10. in
              let y = unif st 0. 10. in
              (x, y))
        in
        let cols = Array.init sz.colored_n (fun _ -> Random.State.int st colors) in
        (pts, cols))
  in
  { weighted; interval; colored }

let solve_request pools kind i =
  let i = i mod pool_size in
  match kind with
  | Weighted ->
      Proto.Solve_weighted
        { radius; deadline = None; points = pools.weighted.(i) }
  | Static ->
      Proto.Solve_static
        {
          radius;
          epsilon = static_epsilon;
          seed = solver_seed;
          max_shifts = Some static_shifts;
          points = pools.weighted.(i);
        }
  | Interval -> Proto.Solve_interval { len = interval_len; points = pools.interval.(i) }
  | Colored ->
      let points, colors = pools.colored.(i) in
      Proto.Solve_colored
        {
          radius;
          deadline = None;
          seed = solver_seed;
          max_shifts = None;
          points;
          colors;
        }

(* The [k]-th request of the rotation: its kind and pool slot. *)
let mix_slot k =
  let kind = rotation.(k mod Array.length rotation) in
  let per_cycle =
    Array.fold_left (fun n c -> if c = kind then n + 1 else n) 0 rotation
  in
  let before =
    let n = ref 0 in
    for j = 0 to (k mod Array.length rotation) - 1 do
      if rotation.(j) = kind then incr n
    done;
    !n
  in
  (kind, (((k / Array.length rotation) * per_cycle) + before) mod pool_size)

(* {1 Script digests} — what the self-test compares across seeds. *)

let script_bytes ~workload ~size ~seed =
  let b = Buffer.create 65536 in
  let add_req r = Buffer.add_string b (Proto.encode_request ~id:0 r) in
  (match workload with
  | "ingest" ->
      Array.iter
        (fun (x, y, w) -> Buffer.add_string b (Printf.sprintf "p %h %h %h\n" x y w))
        (prepared ~size ~seed);
      Array.iter
        (function
          | Ins { x; y; w } -> Buffer.add_string b (Printf.sprintf "i %h %h %h\n" x y w)
          | Del h -> Buffer.add_string b (Printf.sprintf "d %d\n" h)
          | Best -> Buffer.add_string b "b\n")
        (ingest_script ~size ~seed)
  | "serve_reads" ->
      Array.iter
        (fun (x, y, w) -> Buffer.add_string b (Printf.sprintf "p %h %h %h\n" x y w))
        (prepared ~size ~seed);
      let next = reads ~seed in
      for _ = 1 to 1000 do
        add_req (read_request (next ()))
      done
  | "solve_mix" ->
      let p = pools ~size ~seed in
      for k = 0 to (2 * Array.length rotation) - 1 do
        let kind, i = mix_slot k in
        add_req (solve_request p kind i)
      done
  | w -> invalid_arg ("unknown workload " ^ w));
  Buffer.contents b
