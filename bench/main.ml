(* Benchmark harness: one experiment per theorem of the paper (see
   EXPERIMENTS.md and DESIGN.md section 5), plus Bechamel micro-benchmarks
   (one Test.make per experiment id).

   Usage:
     dune exec bench/main.exe                 # run everything
     dune exec bench/main.exe -- e3 e6        # selected experiments
     dune exec bench/main.exe -- micro        # Bechamel micro-benchmarks only
     dune exec bench/main.exe -- --domains 4 e2   # size the domain pool

   [--domains N] sets the domain count for every solver/oracle in the
   selected experiments (equivalent to MAXRS_DOMAINS=N); [e10] ignores it
   and sweeps 1/2/4/8 domains itself, writing BENCH_parallel.json. *)

module Point = Maxrs_geom.Point
module Rng = Maxrs_geom.Rng
module Interval1d = Maxrs_sweep.Interval1d
module Rect2d = Maxrs_sweep.Rect2d
module Disk2d = Maxrs_sweep.Disk2d
module Colored_disk2d = Maxrs_sweep.Colored_disk2d
module Convolution = Maxrs_conv.Convolution
module Reductions = Maxrs_conv.Reductions
module Bsei = Maxrs_conv.Bsei
module Boxd = Maxrs_sweep.Boxd
module Colored_rect2d = Maxrs_sweep.Colored_rect2d
module Approx_colored_rect = Maxrs.Approx_colored_rect
module Grid_baseline = Maxrs.Grid_baseline
module Config = Maxrs.Config
module Dynamic = Maxrs.Dynamic
module Static = Maxrs.Static
module Colored = Maxrs.Colored
module Output_sensitive = Maxrs.Output_sensitive
module Approx_colored = Maxrs.Approx_colored
module Workload = Maxrs.Workload
module Verify = Maxrs.Verify
module Resilient = Maxrs.Resilient
module Budget = Maxrs_resilience.Budget
module Outcome = Maxrs_resilience.Outcome

let time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* Monotonic wall clock in seconds. Every wall-clock measurement in
   this file goes through here: CLOCK_MONOTONIC is immune to NTP slews
   and settimeofday jumps, which on shared CI can otherwise swing a
   short interval by milliseconds — enough to corrupt a gate ratio. *)
let mono_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Wall-clock timer: with a domain pool doing the work, CPU time
   ([Sys.time]) sums over domains and hides the speedup. *)
let wtime f =
  let t0 = mono_s () in
  let r = f () in
  (r, mono_s () -. t0)

let header title = Printf.printf "\n=== %s ===\n" title
let row fmt = Printf.printf fmt

(* Domain count applied to the selected experiments (--domains N);
   None defers to MAXRS_DOMAINS. *)
let domains_opt : int option ref = ref None

(* Benchmarks use a capped-shift practical config (see DESIGN.md): the
   faithful Lemma 2.1 collection multiplies constants by (2/eps)^d. *)
let bench_cfg ?(epsilon = 0.3) ?(shifts = 8) ~seed () =
  Config.make ~epsilon ~sample_constant:0.25 ~max_grid_shifts:(Some shifts)
    ~seed ~domains:!domains_opt ()

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 1.1: dynamic MaxRS, update time O_eps(log n) and
   approximation quality. *)

let e1 () =
  header "E1 / Theorem 1.1 — dynamic MaxRS (d-ball, d=2)";
  row "paper: amortized update O(eps^-2d-2 log n); ratio >= 1/2 - eps whp\n";
  row "%8s %12s %14s %10s\n" "n" "us/update" "per-log-n" "epochs";
  List.iter
    (fun n ->
      let rng = Rng.create (1000 + n) in
      let d = Dynamic.create ~cfg:(bench_cfg ~seed:n ()) ~dim:2 () in
      let pts =
        Workload.gaussian_clusters rng ~dim:2 ~n ~k:8 ~extent:20. ~spread:1.5
      in
      let handles = Array.map (fun p -> Dynamic.insert d p) pts in
      let updates = 2000 in
      let (), dt =
        time (fun () ->
            for _ = 0 to (updates / 2) - 1 do
              let i = Rng.int rng n in
              Dynamic.delete d handles.(i);
              handles.(i) <-
                Dynamic.insert d
                  [| Rng.uniform rng 0. 20.; Rng.uniform rng 0. 20. |]
            done)
      in
      let us = dt *. 1e6 /. float_of_int updates in
      row "%8d %12.2f %14.3f %10d\n" n us
        (us /. log (float_of_int n))
        (Dynamic.epochs d))
    [ 1000; 2000; 4000; 8000 ];
  row "\n%8s %8s %10s %8s\n" "n" "opt" "found" "ratio";
  List.iter
    (fun (n, opt) ->
      let rng = Rng.create (7 * n) in
      let pts, _, optv = Workload.planted rng ~dim:2 ~n ~opt in
      let d = Dynamic.create ~cfg:(bench_cfg ~seed:n ()) ~dim:2 () in
      Array.iter (fun (p, w) -> ignore (Dynamic.insert d ~weight:w p)) pts;
      let found = match Dynamic.best d with Some (_, v) -> v | None -> 0. in
      row "%8d %8d %10.1f %8.3f\n" n opt found (found /. optv))
    [ (500, 50); (2000, 100); (8000, 200) ]

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 1.2: static MaxRS for d-balls, runtime n log n without a
   log^d blowup, across dimensions. *)

let e2 () =
  header "E2 / Theorem 1.2 — static MaxRS (d-ball), d in {2,3,4}";
  row "paper: O(eps^-2d-2 n log n); the d-dependence sits in constants,\n";
  row "not in the log power -> time/(n ln n) flat in n for each fixed d\n";
  row "%4s %8s %12s %16s\n" "d" "n" "time(s)" "t/(n ln n) us";
  List.iter
    (fun (d, eps, ns) ->
      List.iter
        (fun n ->
          let rng = Rng.create ((d * 100000) + n) in
          let pts =
            Array.map
              (fun p -> (p, 1.))
              (Workload.gaussian_clusters rng ~dim:d ~n ~k:6 ~extent:15.
                 ~spread:1.)
          in
          let cfg = bench_cfg ~epsilon:eps ~shifts:4 ~seed:n () in
          let _, dt = time (fun () -> Static.solve_or_point ~cfg ~dim:d pts) in
          row "%4d %8d %12.3f %16.3f\n" d n dt
            (dt *. 1e6 /. (float_of_int n *. log (float_of_int n))))
        ns)
    [
      (2, 0.3, [ 2000; 4000; 8000; 16000 ]);
      (3, 0.4, [ 1000; 2000; 4000 ]);
      (4, 0.45, [ 500; 1000; 2000 ]);
    ];
  row "\n%8s %10s %10s %8s %14s\n" "n" "exact" "approx" "ratio"
    "grid(1+eps)r";
  List.iter
    (fun n ->
      let rng = Rng.create (31 * n) in
      let pts =
        Array.map
          (fun p -> (p, 1.))
          (Workload.gaussian_clusters rng ~dim:2 ~n ~k:4 ~extent:8. ~spread:0.8)
      in
      let exact =
        Disk2d.max_weight ~radius:1.
          (Array.map (fun (p, w) -> (p.(0), p.(1), w)) pts)
      in
      let cfg = Config.make ~epsilon:0.25 ~seed:n () in
      let r = Static.solve_or_point ~cfg ~dim:2 pts in
      let gb = Grid_baseline.solve ~epsilon:0.25 ~dim:2 pts in
      row "%8d %10.1f %10.1f %8.3f %14.1f\n" n exact.Disk2d.value
        r.Static.value
        (r.Static.value /. exact.Disk2d.value)
        gb.Grid_baseline.value)
    [ 200; 500; 1000 ]

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 1.3: batched MaxRS in R^1. *)

let e3 () =
  header "E3 / Theorem 1.3 — batched MaxRS in R^1";
  row "upper bound O(n log n + mn); conditional lower bound Omega(mn)\n";
  row "%8s %8s %12s %14s\n" "n" "m" "time(s)" "ns/(m*n)";
  List.iter
    (fun (n, m) ->
      let rng = Rng.create (n + m) in
      let pts =
        Array.init n (fun _ ->
            (Rng.uniform rng 0. 1000., Rng.uniform rng 0. 5.))
      in
      let lens = Array.init m (fun _ -> Rng.uniform rng 1. 100.) in
      let _, dt =
        wtime (fun () -> Interval1d.batched ?domains:!domains_opt ~lens pts)
      in
      row "%8d %8d %12.3f %14.2f\n" n m dt
        (dt *. 1e9 /. (float_of_int m *. float_of_int n)))
    [ (20000, 50); (20000, 100); (20000, 200); (40000, 100); (80000, 100) ];
  row "\n(min,+)-convolution through the batched-MaxRS oracle (Section 5):\n";
  row "%8s %14s %14s %10s\n" "n" "via MaxRS (s)" "naive (s)" "agree";
  List.iter
    (fun n ->
      let rng = Rng.create (3 * n) in
      let a = Array.init n (fun _ -> Rng.int rng 1000 - 500) in
      let b = Array.init n (fun _ -> Rng.int rng 1000 - 500) in
      let via, t1 =
        time (fun () ->
            Reductions.min_plus_via_batched_maxrs
              ~oracle:Reductions.default_batched_maxrs_oracle a b)
      in
      let naive, t2 = time (fun () -> Convolution.min_plus a b) in
      row "%8d %14.3f %14.3f %10b\n" n t1 t2 (via = naive))
    [ 128; 256; 512; 1024 ]

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 1.4: batched smallest k-enclosing interval. *)

let e4 () =
  header "E4 / Theorem 1.4 — batched smallest k-enclosing interval";
  row "upper bound O(n^2); conditional lower bound Omega(n^2)\n";
  row "%8s %12s %14s\n" "n" "time(s)" "ns/n^2";
  List.iter
    (fun n ->
      let rng = Rng.create n in
      let pts = Array.init n (fun _ -> Rng.uniform rng 0. 1e6) in
      let _, dt =
        wtime (fun () -> Bsei.batched ?domains:!domains_opt pts)
      in
      row "%8d %12.3f %14.2f\n" n dt
        (dt *. 1e9 /. (float_of_int n *. float_of_int n)))
    [ 2000; 4000; 8000; 16000 ];
  row "\n(min,+)-convolution through the BSEI oracle (Section 6):\n";
  row "%8s %14s %14s %10s\n" "n" "via BSEI (s)" "naive (s)" "agree";
  List.iter
    (fun n ->
      let rng = Rng.create (5 * n) in
      let a = Array.init n (fun _ -> Rng.int rng 200 - 100) in
      let b = Array.init n (fun _ -> Rng.int rng 200 - 100) in
      let via, t1 =
        time (fun () -> Bsei.min_plus_via_bsei ?domains:!domains_opt a b)
      in
      let naive, t2 = time (fun () -> Convolution.min_plus a b) in
      row "%8d %14.3f %14.3f %10b\n" n t1 t2 (via = naive))
    [ 256; 512; 1024; 2048 ]

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 1.5: colored MaxRS for d-balls. *)

let e5 () =
  header "E5 / Theorem 1.5 — colored MaxRS (d-ball)";
  row "paper: (1/2 - eps)-approx in O(eps^-2d-2 n log n)\n";
  row "%8s %12s %16s\n" "n" "time(s)" "t/(n ln n) us";
  List.iter
    (fun n ->
      let rng = Rng.create (11 * n) in
      let pts, colors =
        Workload.trajectories rng ~m:(n / 50) ~steps:50 ~extent:25. ~step:0.6
      in
      let points = Array.map (fun (x, y) -> [| x; y |]) pts in
      let cfg = bench_cfg ~seed:n () in
      let _, dt =
        time (fun () -> Colored.solve_or_point ~cfg ~dim:2 points ~colors)
      in
      row "%8d %12.3f %16.3f\n" n dt
        (dt *. 1e6 /. (float_of_int n *. log (float_of_int n))))
    [ 2000; 4000; 8000; 16000 ];
  row "\nquality vs exact colored sweep:\n";
  row "%8s %8s %10s %8s\n" "n" "exact" "approx" "ratio";
  List.iter
    (fun n ->
      let rng = Rng.create (13 * n) in
      let pts, colors =
        Workload.trajectories rng ~m:(Int.max 2 (n / 40)) ~steps:40 ~extent:8.
          ~step:0.5
      in
      let exact = Colored_disk2d.max_colored ~radius:1. pts ~colors in
      let points = Array.map (fun (x, y) -> [| x; y |]) pts in
      let cfg = Config.make ~epsilon:0.25 ~seed:n () in
      let r = Colored.solve_or_point ~cfg ~dim:2 points ~colors in
      row "%8d %8d %10d %8.3f\n" n exact.Colored_disk2d.value r.Colored.value
        (float_of_int r.Colored.value
        /. float_of_int exact.Colored_disk2d.value))
    [ 200; 400; 800 ]

(* ------------------------------------------------------------------ *)
(* E6 — Theorem 4.6: output sensitivity. *)

let e6 () =
  header "E6 / Theorem 4.6 — output-sensitive exact colored disk MaxRS";
  row "paper: O(n log n + n * opt) expected\n";
  row "(a) fixed n = 3000, density dials opt: time/events track opt, not n^2\n";
  row "%8s %6s %12s %14s %16s\n" "extent" "opt" "time(s)" "events"
    "events/(n*opt)";
  let n = 3000 in
  List.iter
    (fun extent ->
      let rng = Rng.create (int_of_float extent) in
      let m = 150 in
      let pts =
        Array.init n (fun _ ->
            (Rng.uniform rng 0. extent, Rng.uniform rng 0. extent))
      in
      let colors = Array.init n (fun i -> i mod m) in
      let r, dt =
        wtime (fun () ->
            Output_sensitive.solve ~max_shifts:6 ?domains:!domains_opt pts
              ~colors)
      in
      let ev = r.Output_sensitive.stats.Output_sensitive.sweep_events in
      row "%8.0f %6d %12.3f %14d %16.4f\n" extent r.Output_sensitive.depth dt
        ev
        (float_of_int ev
        /. (float_of_int n *. float_of_int r.Output_sensitive.depth)))
    [ 80.; 40.; 20.; 14. ];
  row "\n(b) fixed density, growing n: output-sensitive ~n log n vs naive\n";
  row "    ~n^2 log n exact sweep — the crossover favors output-sensitivity\n";
  row "%8s %6s %14s %12s %8s\n" "n" "opt" "outp-sens(s)" "naive(s)" "agree";
  List.iter
    (fun n ->
      let rng = Rng.create (23 * n) in
      let extent = 1.5 *. sqrt (float_of_int n) in
      let pts =
        Array.init n (fun _ ->
            (Rng.uniform rng 0. extent, Rng.uniform rng 0. extent))
      in
      let colors = Array.init n (fun i -> i mod 500) in
      let ros, tos =
        wtime (fun () ->
            Output_sensitive.solve ~max_shifts:6 ?domains:!domains_opt pts
              ~colors)
      in
      let rn, tn =
        wtime (fun () ->
            Colored_disk2d.max_colored ?domains:!domains_opt ~radius:1. pts
              ~colors)
      in
      row "%8d %6d %14.3f %12.3f %8b\n" n ros.Output_sensitive.depth tos tn
        (ros.Output_sensitive.depth = rn.Colored_disk2d.value))
    [ 4000; 8000; 16000; 32000 ]

(* ------------------------------------------------------------------ *)
(* E7 — Theorem 1.6: (1-eps) colored disk MaxRS, crossover vs exact. *)

let e7 () =
  header "E7 / Theorem 1.6 — (1-eps)-approx colored disk MaxRS (eps=0.25)";
  row
    "paper: expected O(eps^-2 n log n) vs exact O(n^2 log n): approx wins at scale\n";
  row "(large-opt instances: opt ~ n/8 distinct colors in one hotspot,\n";
  row " uniform distinctly-colored background)\n";
  row "%8s %12s %12s %8s %8s %8s %10s\n" "n" "approx(s)" "exact(s)" "appx"
    "exct" "ratio" "sampled";
  List.iter
    (fun n ->
      let rng = Rng.create (17 * n) in
      let opt = n / 8 in
      let extent = 30. in
      let pts =
        Array.init n (fun i ->
            if i < opt then
              (* hotspot: distinct colors packed in a 0.2-ball *)
              ( (extent /. 2.) +. Rng.uniform rng (-0.2) 0.2,
                (extent /. 2.) +. Rng.uniform rng (-0.2) 0.2 )
            else (Rng.uniform rng 0. extent, Rng.uniform rng 0. extent))
      in
      let colors = Array.init n Fun.id in
      let ra, ta =
        wtime (fun () ->
            Approx_colored.solve ~max_shifts:6 ?domains:!domains_opt pts
              ~colors)
      in
      let re, te =
        wtime (fun () ->
            Colored_disk2d.max_colored ?domains:!domains_opt ~radius:1. pts
              ~colors)
      in
      let sampled =
        match ra.Approx_colored.strategy with
        | Approx_colored.Sampled { disks_sampled; _ } -> disks_sampled
        | Approx_colored.Exact_small -> n
      in
      row "%8d %12.3f %12.3f %8d %8d %8.3f %10d\n" n ta te
        ra.Approx_colored.depth re.Colored_disk2d.value
        (float_of_int ra.Approx_colored.depth
        /. float_of_int re.Colored_disk2d.value)
        sampled)
    [ 2000; 4000; 8000; 16000 ]

(* ------------------------------------------------------------------ *)
(* E8 — baselines: the exact algorithms' scaling shapes. *)

let e8 () =
  header "E8 — exact baselines ([IA83,NB95] sweep, [CL86]-style disk sweep)";
  row "%16s %8s %12s %14s\n" "algorithm" "n" "time(s)" "normalized";
  List.iter
    (fun n ->
      let rng = Rng.create n in
      let pts =
        Array.init n (fun _ ->
            (Rng.uniform rng 0. 1000., Rng.uniform rng 0. 5.))
      in
      let _, dt = time (fun () -> Interval1d.max_sum ~len:10. pts) in
      row "%16s %8d %12.4f %14.2f (ns / n ln n)\n" "interval-1d" n dt
        (dt *. 1e9 /. (float_of_int n *. log (float_of_int n))))
    [ 50000; 100000; 200000 ];
  List.iter
    (fun n ->
      let rng = Rng.create (2 * n) in
      let pts =
        Array.init n (fun _ ->
            ( Rng.uniform rng 0. 100.,
              Rng.uniform rng 0. 100.,
              Rng.uniform rng 0. 5. ))
      in
      let _, dt = time (fun () -> Rect2d.max_sum ~width:5. ~height:5. pts) in
      row "%16s %8d %12.4f %14.2f (ns / n ln n)\n" "rect-2d" n dt
        (dt *. 1e9 /. (float_of_int n *. log (float_of_int n))))
    [ 50000; 100000; 200000 ];
  List.iter
    (fun n ->
      let rng = Rng.create (3 * n) in
      let pts =
        Array.init n (fun _ ->
            (Rng.uniform rng 0. 20., Rng.uniform rng 0. 20., 1.))
      in
      let _, dt =
        wtime (fun () ->
            Disk2d.max_weight ?domains:!domains_opt ~radius:1. pts)
      in
      row "%16s %8d %12.4f %14.2f (ns / n^2)\n" "disk-2d" n dt
        (dt *. 1e9 /. (float_of_int n *. float_of_int n)))
    [ 500; 1000; 2000 ]

(* ------------------------------------------------------------------ *)
(* E9 — extensions: exact d-box MaxRS, colored rectangle MaxRS and the
   open-problem color-sampling pipeline for rectangles, batched 2-D
   upper bounds (Section 7). *)

let e9 () =
  header "E9 — extensions (Section 7 upper bounds and open problem #1)";
  row "exact d-box MaxRS (O(n^d log n) candidate recursion):\n";
  row "%4s %8s %12s\n" "d" "n" "time(s)";
  List.iter
    (fun (d, ns) ->
      List.iter
        (fun n ->
          let rng = Rng.create ((d * 77) + n) in
          let pts =
            Array.map
              (fun p -> (p, 1.))
              (Workload.gaussian_clusters rng ~dim:d ~n ~k:5 ~extent:10.
                 ~spread:1.)
          in
          let widths = Array.make d 1.5 in
          let _, dt = time (fun () -> Boxd.max_sum ~widths pts) in
          row "%4d %8d %12.3f\n" d n dt)
        ns)
    [ (2, [ 1000; 2000; 4000 ]); (3, [ 200; 400; 800 ]) ];
  row "\nbatched rectangles, O(mn log n) (Theorem 1.3 says o(mn) unlikely):\n";
  row "%8s %6s %12s %14s\n" "n" "m" "time(s)" "ns/(m n ln n)";
  List.iter
    (fun (n, m) ->
      let rng = Rng.create (n * m) in
      let pts =
        Array.init n (fun _ ->
            ( Rng.uniform rng 0. 50.,
              Rng.uniform rng 0. 50.,
              Rng.uniform rng 0. 3. ))
      in
      let sizes =
        Array.init m (fun _ ->
            (Rng.uniform rng 0.5 5., Rng.uniform rng 0.5 5.))
      in
      let _, dt =
        time (fun () ->
            Array.map
              (fun (width, height) -> Rect2d.max_sum ~width ~height pts)
              sizes)
      in
      row "%8d %6d %12.3f %14.2f\n" n m dt
        (dt *. 1e9
        /. (float_of_int m *. float_of_int n *. log (float_of_int n))))
    [ (20000, 8); (20000, 16); (40000, 8) ];
  row "\ncolored rectangle MaxRS: exact O(n^2 log n) vs color sampling\n";
  row "(open problem #1 pipeline), hotspot instances with opt = n/8:\n";
  row "%8s %12s %12s %8s %8s %8s\n" "n" "approx(s)" "exact(s)" "appx" "exct"
    "ratio";
  List.iter
    (fun n ->
      let rng = Rng.create (13 * n) in
      let opt = n / 8 in
      let extent = 30. in
      let pts =
        Array.init n (fun i ->
            if i < opt then
              ( (extent /. 2.) +. Rng.uniform rng (-0.2) 0.2,
                (extent /. 2.) +. Rng.uniform rng (-0.2) 0.2 )
            else (Rng.uniform rng 0. extent, Rng.uniform rng 0. extent))
      in
      let colors = Array.init n Fun.id in
      let ra, ta =
        time (fun () -> Approx_colored_rect.solve ~epsilon:0.25 pts ~colors)
      in
      let re, te =
        time (fun () ->
            Colored_rect2d.max_colored ~width:1. ~height:1. pts ~colors)
      in
      row "%8d %12.3f %12.3f %8d %8d %8.3f\n" n ta te
        ra.Approx_colored_rect.depth re.Colored_rect2d.value
        (float_of_int ra.Approx_colored_rect.depth
        /. float_of_int re.Colored_rect2d.value))
    [ 2000; 4000; 8000 ]

(* ------------------------------------------------------------------ *)
(* Ablations — the design choices DESIGN.md calls out: how much quality
   do the practical-mode caps actually cost? *)

let ablation () =
  header "Ablation A1 — grid-shift cap vs quality (static, d=2, eps=0.25)";
  row "the faithful Lemma 2.1 collection has 64 shifts at eps = 0.25\n";
  row "%10s %12s %10s\n" "shifts" "ratio" "time(s)";
  let rng = Rng.create 4242 in
  let n = 600 in
  let pts =
    Array.map
      (fun p -> (p, 1.))
      (Workload.gaussian_clusters rng ~dim:2 ~n ~k:4 ~extent:8. ~spread:0.8)
  in
  let exact =
    Disk2d.max_weight ~radius:1.
      (Array.map (fun (p, w) -> (p.(0), p.(1), w)) pts)
  in
  List.iter
    (fun shifts ->
      let cfg =
        match shifts with
        | None -> Config.make ~epsilon:0.25 ~seed:1 ()
        | Some c ->
            Config.make ~epsilon:0.25 ~max_grid_shifts:(Some c) ~seed:1 ()
      in
      let r, dt = time (fun () -> Static.solve_or_point ~cfg ~dim:2 pts) in
      row "%10s %12.3f %10.3f\n"
        (match shifts with None -> "faithful" | Some c -> string_of_int c)
        (r.Static.value /. exact.Disk2d.value)
        dt)
    [ Some 1; Some 2; Some 4; Some 8; Some 16; None ];
  header "Ablation A2 — per-cell sample count vs quality (static, d=2)";
  row "t = max(min_samples, c * eps^-2 ln n); varying c at eps = 0.25\n";
  row "%10s %12s %10s\n" "c" "ratio" "time(s)";
  List.iter
    (fun c ->
      let cfg =
        Config.make ~epsilon:0.25 ~sample_constant:c ~min_samples:1
          ~max_grid_shifts:(Some 8) ~seed:2 ()
      in
      let r, dt = time (fun () -> Static.solve_or_point ~cfg ~dim:2 pts) in
      row "%10.3f %12.3f %10.3f\n" c
        (r.Static.value /. exact.Disk2d.value)
        dt)
    [ 0.02; 0.05; 0.1; 0.25; 0.5; 1. ];
  header "Ablation A3 — epsilon vs quality/time (static, d=2, 8 shifts)";
  row "%10s %12s %10s\n" "epsilon" "ratio" "time(s)";
  List.iter
    (fun eps ->
      let cfg =
        Config.make ~epsilon:eps ~max_grid_shifts:(Some 8) ~seed:3 ()
      in
      let r, dt = time (fun () -> Static.solve_or_point ~cfg ~dim:2 pts) in
      row "%10.2f %12.3f %10.3f\n" eps
        (r.Static.value /. exact.Disk2d.value)
        dt)
    [ 0.45; 0.4; 0.3; 0.2; 0.1 ]

(* ------------------------------------------------------------------ *)
(* E10 — multicore scaling: the domain-pool execution layer on the E2
   static solver, the E3 batched 1-D oracle and the E6 output-sensitive
   solver, at 1/2/4/8 domains. Results must be bit-identical across
   domain counts (the determinism contract of Parallel); wall-clock
   speedups are recorded in BENCH_parallel.json together with the
   detected core count, since on a single-core machine the curve is
   necessarily flat. *)

let e10 () =
  header "E10 — multicore scaling (domain pool), domains in {1,2,4,8}";
  let counts = [ 1; 2; 4; 8 ] in
  let cores = Domain.recommended_domain_count () in
  row "detected cores (Domain.recommended_domain_count): %d\n" cores;
  row "%28s %8s %12s %9s %10s\n" "workload" "domains" "time(s)" "speedup"
    "identical";
  (* Each workload is generated once; the solvers never mutate their
     input, so every domain count sees the same arrays. [solve] returns
     the solver result so cross-domain equality can be checked. *)
  let run_workload ~name ~solve =
    let results = List.map (fun d -> let r, dt = solve d in (d, r, dt)) counts in
    let _, r1, t1 =
      match results with x :: _ -> x | [] -> assert false
    in
    let identical = List.for_all (fun (_, r, _) -> r = r1) results in
    List.iter
      (fun (d, _, dt) ->
        row "%28s %8d %12.3f %9.2f %10b\n" name d dt (t1 /. dt) identical)
      results;
    (name, List.map (fun (d, _, dt) -> (d, dt)) results, identical)
  in
  let e2_entry =
    let rng = Rng.create 100016 in
    let pts =
      Array.map
        (fun p -> (p, 1.))
        (Workload.gaussian_clusters rng ~dim:2 ~n:16000 ~k:6 ~extent:15.
           ~spread:1.)
    in
    run_workload ~name:"e2-static n=16000 d=2" ~solve:(fun d ->
        let cfg =
          Config.make ~epsilon:0.3 ~sample_constant:0.25
            ~max_grid_shifts:(Some 4) ~seed:16000 ~domains:(Some d) ()
        in
        wtime (fun () -> Static.solve_or_point ~cfg ~dim:2 pts))
  in
  let e3_entry =
    let rng = Rng.create 20200 in
    let pts =
      Array.init 20000 (fun _ ->
          (Rng.uniform rng 0. 1000., Rng.uniform rng 0. 5.))
    in
    let lens = Array.init 200 (fun _ -> Rng.uniform rng 1. 100.) in
    run_workload ~name:"e3-batched n=20000 m=200" ~solve:(fun d ->
        wtime (fun () -> Interval1d.batched ~domains:d ~lens pts))
  in
  let e6_entry =
    let n = 8000 in
    let rng = Rng.create (23 * n) in
    let extent = 1.5 *. sqrt (float_of_int n) in
    let pts =
      Array.init n (fun _ ->
          (Rng.uniform rng 0. extent, Rng.uniform rng 0. extent))
    in
    let colors = Array.init n (fun i -> i mod 500) in
    run_workload ~name:"e6-output-sensitive n=8000" ~solve:(fun d ->
        wtime (fun () ->
            Output_sensitive.solve ~max_shifts:6 ~domains:d pts ~colors))
  in
  let entries = [ e2_entry; e3_entry; e6_entry ] in
  (* The recommendation is what the run actually measured: the domain
     count minimizing total wall time across the three workloads —
     never a silent echo of the core count. On a machine with fewer
     cores than the largest tested count the oversubscribed points say
     nothing about real multicore behaviour, so the JSON carries an
     explicit caveat; with a single core the whole curve is
     flat-or-worse by construction and the recommendation is withheld
     ([null]) rather than reported as 1. *)
  let total_at d =
    List.fold_left
      (fun acc (_, runs, _) -> acc +. List.assoc d runs)
      0. entries
  in
  (* Oversubscribed points (d > cores) can win the argmin by scheduler
     accident without saying anything about real scaling, so only
     counts the machine can actually run in parallel are eligible for
     the recommendation. The full curve is still reported. *)
  let eligible =
    match List.filter (fun d -> d <= cores) counts with
    | [] -> counts
    | l -> l
  in
  let best_domains =
    List.fold_left
      (fun best d -> if total_at d < total_at best then d else best)
      (List.hd eligible) eligible
  in
  let caveat =
    if cores = 1 then
      Some
        "only 1 core available: every domain count above 1 is \
         oversubscribed and the scaling curve is not meaningful on this \
         machine; recommendation withheld"
    else if cores < List.fold_left Int.max 1 counts then
      Some
        (Printf.sprintf
           "%d cores available: domain counts above %d are oversubscribed \
            and understate real multicore scaling"
           cores cores)
    else None
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiment\": \"E10\",\n";
  Printf.bprintf buf "  \"cores_available\": %d,\n" cores;
  (if cores = 1 then Buffer.add_string buf "  \"recommended_domains\": null,\n"
   else Printf.bprintf buf "  \"recommended_domains\": %d,\n" best_domains);
  (match caveat with
  | Some c -> Printf.bprintf buf "  \"measurement_caveat\": %S,\n" c
  | None -> ());
  Buffer.add_string buf "  \"workloads\": [\n";
  List.iteri
    (fun i (name, runs, identical) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "    { \"name\": %S,\n      \"identical\": %b,\n      \"runs\": ["
        name identical;
      let t1 = match runs with (_, t) :: _ -> t | [] -> assert false in
      List.iteri
        (fun j (d, dt) ->
          if j > 0 then Buffer.add_string buf ", ";
          Printf.bprintf buf
            "{ \"domains\": %d, \"seconds\": %.6f, \"speedup\": %.3f }" d dt
            (t1 /. dt))
        runs;
      Buffer.add_string buf "] }")
    entries;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  row "\nwrote BENCH_parallel.json\n"

(* ------------------------------------------------------------------ *)
(* E11 — resilience: (a) guard overhead — the validated entry points
   against their validation-free fast paths on the E2 and E6 workloads
   (target: < 3%); (b) deadline degradation — a tight wall-clock budget
   on the E6 exact solve forcing the Theorem-1.6 approximation
   fallback, with the depth ratio recorded. Results are written to
   BENCH_robustness.json. *)

let e11 () =
  header "E11 — resilience: guard overhead and deadline degradation";
  let reps = 5 in
  row "%34s %12s %12s %12s %10s\n" "entry point" "unchecked(s)" "checked(s)"
    "validate(s)" "overhead";
  (* End-to-end checked vs unchecked runs are interleaved (so GC /
     allocator drift cancels), but at the seconds scale machine noise
     still swamps a sub-millisecond input scan — so the reported
     overhead is the isolated validation pass over the same input,
     relative to the unchecked solve time. *)
  let overhead ~name ~validate ~unchecked ~checked =
    ignore (wtime unchecked);
    ignore (wtime checked);
    let tu = ref Float.infinity and tc = ref Float.infinity in
    for _ = 1 to reps do
      tu := Float.min !tu (snd (wtime unchecked));
      tc := Float.min !tc (snd (wtime checked))
    done;
    let tu = !tu and tc = !tc in
    let vreps = 200 in
    let tv =
      let t0 = mono_s () in
      for _ = 1 to vreps do
        validate ()
      done;
      (mono_s () -. t0) /. float_of_int vreps
    in
    let pct = tv /. tu *. 100. in
    row "%34s %12.4f %12.4f %12.6f %9.3f%%\n" name tu tc tv pct;
    (name, tu, tc, tv, pct)
  in
  let e2_entry =
    let rng = Rng.create 110016 in
    let pts =
      Array.map
        (fun p -> (p, 1.))
        (Workload.gaussian_clusters rng ~dim:2 ~n:12000 ~k:6 ~extent:15.
           ~spread:1.)
    in
    let cfg =
      Config.make ~epsilon:0.3 ~sample_constant:0.25 ~max_grid_shifts:(Some 4)
        ~seed:12000 ~domains:!domains_opt ()
    in
    overhead ~name:"e2-static n=12000"
      ~validate:(fun () ->
        match
          Maxrs_resilience.Guard.weighted_points ~dim:2 ~field:"points" pts
        with
        | Ok () -> ()
        | Error _ -> assert false)
      ~unchecked:(fun () -> ignore (Static.solve_unchecked ~cfg ~dim:2 pts))
      ~checked:(fun () -> ignore (Static.solve_checked ~cfg ~dim:2 pts))
  in
  let e6_n = 6000 in
  let e6_pts, e6_colors =
    let rng = Rng.create (29 * e6_n) in
    let extent = 1.5 *. sqrt (float_of_int e6_n) in
    ( Array.init e6_n (fun _ ->
          (Rng.uniform rng 0. extent, Rng.uniform rng 0. extent)),
      Array.init e6_n (fun i -> i mod 400) )
  in
  let e6_entry =
    overhead
      ~name:(Printf.sprintf "e6-output-sensitive n=%d" e6_n)
      ~validate:(fun () ->
        let open Maxrs_resilience.Guard in
        match
          Result.bind (planar_points ~field:"centers" e6_pts) (fun () ->
              length_matches ~field:"colors" ~expected:e6_n e6_colors)
        with
        | Ok () -> ()
        | Error _ -> assert false)
      ~unchecked:(fun () ->
        ignore
          (Output_sensitive.solve_unchecked ~max_shifts:6
             ?domains:!domains_opt e6_pts ~colors:e6_colors))
      ~checked:(fun () ->
        ignore
          (Output_sensitive.solve_checked ~max_shifts:6 ?domains:!domains_opt
             e6_pts ~colors:e6_colors))
  in
  (* Deadline degradation: time the exact solve, then grant ~5% of that
     and let the resilient front door fall back to Theorem 1.6. *)
  let exact, exact_t =
    wtime (fun () ->
        Output_sensitive.solve ~max_shifts:6 ?domains:!domains_opt e6_pts
          ~colors:e6_colors)
  in
  let deadline = Float.max (exact_t /. 20.) 1e-4 in
  let outcome =
    match
      Resilient.exact_colored ~max_shifts:6 ?domains:!domains_opt ~deadline
        e6_pts ~colors:e6_colors
    with
    | Ok o -> o
    | Error _ -> assert false
  in
  let r = Outcome.value outcome in
  let source =
    match r.Resilient.source with
    | Resilient.Exact -> "exact"
    | Resilient.Approx_fallback -> "approx-fallback"
    | Resilient.Best_so_far -> "best-so-far"
  in
  let ratio =
    float_of_int r.Resilient.depth
    /. float_of_int exact.Output_sensitive.depth
  in
  row "\ndeadline degradation (E6 exact, budget = %.4fs of %.4fs):\n" deadline
    exact_t;
  row "  outcome=%s source=%s depth=%d/%d ratio=%.3f verified=%b\n"
    (Outcome.label outcome) source r.Resilient.depth
    exact.Output_sensitive.depth ratio r.Resilient.verified;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiment\": \"E11\",\n";
  Buffer.add_string buf "  \"guard_overhead\": [\n";
  List.iteri
    (fun i (name, tu, tc, tv, pct) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "    { \"name\": %S, \"unchecked_seconds\": %.6f, \
         \"checked_seconds\": %.6f, \"validate_seconds\": %.6f, \
         \"overhead_pct\": %.3f }"
        name tu tc tv pct)
    [ e2_entry; e6_entry ];
  Buffer.add_string buf "\n  ],\n";
  Printf.bprintf buf
    "  \"deadline_degradation\": { \"n\": %d, \"exact_seconds\": %.6f, \
     \"deadline_seconds\": %.6f, \"outcome\": %S, \"source\": %S, \
     \"exact_depth\": %d, \"degraded_depth\": %d, \"ratio\": %.4f, \
     \"verified\": %b }\n"
    e6_n exact_t deadline (Outcome.label outcome) source
    exact.Output_sensitive.depth r.Resilient.depth ratio
    r.Resilient.verified;
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_robustness.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  row "\nwrote BENCH_robustness.json\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment id. *)

let micro () =
  header "Bechamel micro-benchmarks (one kernel per experiment)";
  let open Bechamel in
  let rng = Rng.create 99 in
  let dyn = Dynamic.create ~cfg:(bench_cfg ~seed:1 ()) ~dim:2 () in
  let handles =
    Array.init 2000 (fun _ ->
        Dynamic.insert dyn [| Rng.uniform rng 0. 20.; Rng.uniform rng 0. 20. |])
  in
  let hi = ref 0 in
  let e1_kernel () =
    let i = !hi in
    hi := (i + 1) mod 2000;
    Dynamic.delete dyn handles.(i);
    handles.(i) <-
      Dynamic.insert dyn [| Rng.uniform rng 0. 20.; Rng.uniform rng 0. 20. |]
  in
  let static_pts =
    Array.init 500 (fun _ ->
        ([| Rng.uniform rng 0. 10.; Rng.uniform rng 0. 10. |], 1.))
  in
  let e2_kernel () =
    ignore (Static.solve_or_point ~cfg:(bench_cfg ~seed:2 ()) ~dim:2 static_pts)
  in
  let pts1d =
    Array.init 5000 (fun _ -> (Rng.uniform rng 0. 1000., Rng.uniform rng 0. 5.))
  in
  let lens = Array.init 16 (fun i -> 1. +. float_of_int i) in
  let e3_kernel () = ignore (Interval1d.batched ~lens pts1d) in
  let pts_bsei = Array.init 2000 (fun _ -> Rng.uniform rng 0. 1e6) in
  let e4_kernel () = ignore (Bsei.batched pts_bsei) in
  let tr_pts, tr_colors =
    Workload.trajectories rng ~m:10 ~steps:50 ~extent:10. ~step:0.5
  in
  let tr_points = Array.map (fun (x, y) -> [| x; y |]) tr_pts in
  let e5_kernel () =
    ignore
      (Colored.solve_or_point ~cfg:(bench_cfg ~seed:5 ()) ~dim:2 tr_points
         ~colors:tr_colors)
  in
  let e6_kernel () =
    ignore (Output_sensitive.solve ~max_shifts:4 tr_pts ~colors:tr_colors)
  in
  let e7_kernel () =
    ignore (Approx_colored.solve ~max_shifts:4 tr_pts ~colors:tr_colors)
  in
  let disk_pts =
    Array.init 300 (fun _ ->
        (Rng.uniform rng 0. 15., Rng.uniform rng 0. 15., 1.))
  in
  let e8_kernel () = ignore (Disk2d.max_weight ~radius:1. disk_pts) in
  let tests =
    [
      Test.make ~name:"e1-dynamic-update" (Staged.stage e1_kernel);
      Test.make ~name:"e2-static-500" (Staged.stage e2_kernel);
      Test.make ~name:"e3-batched-1d" (Staged.stage e3_kernel);
      Test.make ~name:"e4-batched-bsei" (Staged.stage e4_kernel);
      Test.make ~name:"e5-colored-500" (Staged.stage e5_kernel);
      Test.make ~name:"e6-output-sensitive" (Staged.stage e6_kernel);
      Test.make ~name:"e7-approx-colored" (Staged.stage e7_kernel);
      Test.make ~name:"e8-disk-sweep-300" (Staged.stage e8_kernel);
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) ()
  in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"experiments" tests)
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, est) -> row "%-40s %14.1f ns/run\n" name est)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* E12 — counter-verified complexity: rerun the theorem workloads with
   operation counters on and fit the counter growth, not the wall clock,
   against the predicted shapes. Theorems 1.2/1.5/1.6 predict
   near-linear work, so events / (n ln n) should be flat across the n
   ladder; Theorem 4.6 predicts O(n log n + n * opt), so sweep events
   per (n * opt) should stay bounded on fixed-density planted inputs.
   Results go to BENCH_observability.json. MAXRS_E12_MAX_N caps the
   ladder (CI smoke). *)

module Obs = Maxrs_obs.Obs

let e12 () =
  header "E12 — counter-verified complexity (operation counters)";
  let max_n =
    match Sys.getenv_opt "MAXRS_E12_MAX_N" with
    | Some s -> ( match int_of_string_opt (String.trim s) with
                  | Some v when v >= 1000 -> v
                  | _ -> max_int)
    | None -> max_int
  in
  let prev = Obs.enabled () in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled prev) @@ fun () ->
  (* Counter delta around one solve; snapshots make resets unnecessary. *)
  let measure f =
    let base = Obs.Snapshot.capture () in
    let r = f () in
    (r, Obs.Snapshot.diff (Obs.Snapshot.capture ()) ~base)
  in
  let nlogn n = float_of_int n *. log (float_of_int n) in
  let spread = function
    | [] -> Float.nan
    | r :: rs ->
        let lo = List.fold_left Float.min r rs in
        let hi = List.fold_left Float.max r rs in
        hi /. lo
  in
  (* Near-linear solvers: events / (n ln n) flat across the ladder. *)
  let ladder = List.filter (fun n -> n <= max_n) [ 1000; 4000; 16000; 64000; 100000 ] in
  (* [extra = (key, counter)] reports a counter beside the events of
     each point, and in its JSON under [key], without summing it into
     them. *)
  let linear_series ?extra ~theorem ~solver ~counters ~run () =
    row "\n[%s] Theorem %s — %s / (n ln n):\n" solver theorem
      (String.concat "+" counters);
    row "%8s %14s %12s%s\n" "n" "events" "ratio"
      (match extra with
      | Some (key, _) -> Printf.sprintf " %14s" key
      | None -> "");
    let points =
      List.map
        (fun n ->
          let _, d = run n in
          let events =
            List.fold_left
              (fun acc c -> acc + Obs.Snapshot.counter d c)
              0 counters
          in
          let ratio = float_of_int events /. nlogn n in
          let extra =
            Option.map (fun (key, c) -> (key, Obs.Snapshot.counter d c)) extra
          in
          row "%8d %14d %12.2f%s\n" n events ratio
            (match extra with
            | Some (_, v) -> Printf.sprintf " %14d" v
            | None -> "");
          (n, events, ratio, extra))
        ladder
    in
    let sp = spread (List.map (fun (_, _, r, _) -> r) points) in
    row "ratio spread (max/min): %.2f  (flat shape => < 3)\n" sp;
    (theorem, solver, String.concat "+" counters, "n_log_n", points, sp)
  in
  let s12 =
    linear_series ~extra:("drawn", "samples.drawn") ~theorem:"1.2"
      ~solver:"static" ~counters:[ "samples.visited" ]
      ~run:(fun n ->
        let rng = Rng.create (41000 + n) in
        let pts =
          Array.map
            (fun p -> (p, 1.))
            (Workload.gaussian_clusters rng ~dim:2 ~n ~k:8 ~extent:20.
               ~spread:1.5)
        in
        measure (fun () ->
            Static.solve_or_point ~cfg:(bench_cfg ~shifts:4 ~seed:n ()) ~dim:2
              pts))
      ()
  in
  let s15 =
    linear_series ~theorem:"1.5" ~solver:"colored"
      ~counters:[ "samples.visited" ]
      ~run:(fun n ->
        let rng = Rng.create (42000 + n) in
        let m = 40 in
        let pts, colors =
          Workload.trajectories rng ~m ~steps:(n / m) ~extent:20. ~step:0.7
        in
        let points = Array.map (fun (x, y) -> [| x; y |]) pts in
        measure (fun () ->
            Colored.solve_or_point
              ~cfg:(bench_cfg ~shifts:4 ~seed:n ())
              ~dim:2 points ~colors))
      ()
  in
  let s16 =
    (* The Theorem-1.6 pipeline = a Theorem-1.5 estimate plus an exact
       run on the lambda-thinned subset: its total work is the sample
       visits plus the output-sensitive sweep events. *)
    linear_series ~theorem:"1.6" ~solver:"approx_colored"
      ~counters:[ "samples.visited"; "os.sweep_events" ]
      ~run:(fun n ->
        let rng = Rng.create (43000 + n) in
        let extent = 1.5 *. sqrt (float_of_int n) in
        let pts =
          Array.init n (fun _ ->
              (Rng.uniform rng 0. extent, Rng.uniform rng 0. extent))
        in
        let colors = Array.init n (fun i -> i mod 500) in
        measure (fun () ->
            Approx_colored.solve ~max_shifts:4 ~seed:n
              ?domains:!domains_opt pts ~colors))
      ()
  in
  (* Theorem 4.6: events / (n * opt) bounded at fixed density, where the
     planted extent keeps the expected depth (and thus opt) constant. *)
  let os_ladder = List.filter (fun n -> n <= max_n) [ 2000; 4000; 8000; 16000 ] in
  row "\n[output_sensitive] Theorem 4.6 — os.sweep_events / (n * opt):\n";
  row "%8s %8s %14s %12s\n" "n" "opt" "events" "ratio";
  let os_points =
    List.map
      (fun n ->
        let rng = Rng.create (23 * n) in
        let extent = 1.5 *. sqrt (float_of_int n) in
        let pts =
          Array.init n (fun _ ->
              (Rng.uniform rng 0. extent, Rng.uniform rng 0. extent))
        in
        let colors = Array.init n (fun i -> i mod 500) in
        let r, d =
          measure (fun () ->
              Output_sensitive.solve ~max_shifts:6 ?domains:!domains_opt pts
                ~colors)
        in
        let opt = Int.max 1 r.Output_sensitive.depth in
        let events = Obs.Snapshot.counter d "os.sweep_events" in
        let ratio = float_of_int events /. (float_of_int n *. float_of_int opt) in
        row "%8d %8d %14d %12.2f\n" n opt events ratio;
        (n, opt, events, ratio))
      os_ladder
  in
  let os_max =
    List.fold_left (fun a (_, _, _, r) -> Float.max a r) 0. os_points
  in
  let os_spread = spread (List.map (fun (_, _, _, r) -> r) os_points) in
  row "max ratio: %.2f, spread: %.2f  (bounded => output-sensitive)\n" os_max
    os_spread;
  (* JSON *)
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"experiment\": \"E12\",\n  \"series\": [\n";
  List.iteri
    (fun i (theorem, solver, counter, norm, points, sp) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "    { \"theorem\": %S, \"solver\": %S, \"counter\": %S,\n      \
         \"normalizer\": %S, \"ratio_spread\": %.4f,\n      \"points\": ["
        theorem solver counter norm sp;
      List.iteri
        (fun j (n, events, ratio, extra) ->
          if j > 0 then Buffer.add_string buf ", ";
          Printf.bprintf buf "{ \"n\": %d, \"events\": %d, \"ratio\": %.4f" n
            events ratio;
          Option.iter
            (fun (key, v) -> Printf.bprintf buf ", %S: %d" key v)
            extra;
          Buffer.add_string buf " }")
        points;
      Buffer.add_string buf "] }")
    [ s12; s15; s16 ];
  Buffer.add_string buf ",\n";
  Printf.bprintf buf
    "    { \"theorem\": \"4.6\", \"solver\": \"output_sensitive\", \
     \"counter\": \"os.sweep_events\",\n      \"normalizer\": \"n_opt\", \
     \"max_ratio\": %.4f, \"ratio_spread\": %.4f,\n      \"points\": ["
    os_max os_spread;
  List.iteri
    (fun j (n, opt, events, ratio) ->
      if j > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf
        "{ \"n\": %d, \"opt\": %d, \"events\": %d, \"ratio\": %.4f }" n opt
        events ratio)
    os_points;
  Buffer.add_string buf "] }\n  ]\n}\n";
  let oc = open_out "BENCH_observability.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  row "\nwrote BENCH_observability.json\n"

(* ------------------------------------------------------------------ *)
(* E13 — durability: per-update WAL overhead under the three fsync
   cadences, recovery time as a function of log length with and
   without snapshots, and one snapshot at each ladder size taken apart
   into its phases. Results go to BENCH_durability.json.
   MAXRS_E13_OPS / MAXRS_E13_MAX_N shrink the run (CI smoke). *)

module Session = Maxrs_durable.Session
module Wal = Maxrs_durable.Wal

type snapshot_phases = {
  sp_bytes : int;
  sp_samples : int;
  sp_bytes_per_sample : float;  (** encoded bytes per captured sample *)
  sp_words_per_sample : float;
      (** words the capture allocates per captured sample *)
  sp_restore_words_per_sample : float;
      (** words [Sharded.restore] allocates per restored sample *)
  sp_capture : float;
  sp_encode : float;
  sp_crc : float;
  sp_write : float;  (** write + fsync + rename + directory fsync *)
  sp_decode : float;
  sp_restore : float;
}

(* Words allocated so far, read with an empty minor heap: OCaml 5.1's
   [Gc.counters], which [Gc.allocated_bytes] reads, counts the words
   pending in the minor heap at an eighth of their number. *)
let allocated_words () =
  Gc.minor ();
  Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* The snapshot path of a live session, one phase at a time: capture,
   encode, CRC, atomic write, decode, restore. The words allocated by
   the capture and by the restore are deterministic counts for a given
   binary and input, each taken from a collected heap. *)
let snapshot_phases ~scratch sess =
  Gc.compact ();
  let w0 = allocated_words () in
  let st, capture = wtime (fun () -> Session.state sess) in
  let words = allocated_words () -. w0 in
  let samples =
    Array.fold_left
      (fun acc g -> acc + Float.Array.length g.Maxrs.Sample_space.State.depth)
      0 st.Dynamic.State.space.Maxrs.Sample_space.State.grids
  in
  let data, encode =
    wtime (fun () -> Maxrs_durable.Codec.encode_state_bytes st)
  in
  let _, crc = wtime (fun () -> Maxrs_durable.Crc32.of_bytes data) in
  let (), write =
    wtime (fun () -> Maxrs_durable.Atomic_file.write scratch data)
  in
  Sys.remove scratch;
  (* Each phase's input is dead once the next phase has its output:
     collect it, so at most two copies of the state sit beside the
     session. *)
  Gc.full_major ();
  let decoded, decode =
    wtime (fun () ->
        Maxrs_durable.Codec.decode_state (Bytes.unsafe_to_string data))
  in
  Gc.full_major ();
  let r0 = allocated_words () in
  let store, restore =
    wtime (fun () -> Maxrs.Sharded.restore ~shards:1 decoded)
  in
  let restore_words = allocated_words () -. r0 in
  Maxrs.Sharded.close store;
  {
    sp_bytes = Bytes.length data;
    sp_samples = samples;
    sp_bytes_per_sample =
      float_of_int (Bytes.length data) /. float_of_int (Int.max 1 samples);
    sp_words_per_sample = words /. float_of_int (Int.max 1 samples);
    sp_restore_words_per_sample =
      restore_words /. float_of_int (Int.max 1 samples);
    sp_capture = capture;
    sp_encode = encode;
    sp_crc = crc;
    sp_write = write;
    sp_decode = decode;
    sp_restore = restore;
  }

let e13 () =
  header "E13 — durability (WAL overhead, recovery time)";
  let env_cap name default =
    match Sys.getenv_opt name with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some v when v >= 100 -> v
        | _ -> default)
    | None -> default
  in
  let fresh_wal () =
    let p = Filename.temp_file "maxrs_bench" ".wal" in
    Sys.remove p;
    p
  in
  let cleanup_wal wal =
    let dir = Filename.dirname wal and base = Filename.basename wal in
    Array.iter
      (fun name ->
        if
          String.length name >= String.length base
          && String.sub name 0 (String.length base) = base
        then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (Sys.readdir dir)
  in
  (* One op script shared by every run: mixed inserts and deletes with
     identical swap-remove bookkeeping on each side, so the bare
     structure and every session see the same sequence. *)
  let gen_bops ~n ~seed ~extent =
    let rng = Rng.create seed in
    let nlive = ref 0 in
    Array.init n (fun _ ->
        if !nlive > 1 && Rng.uniform rng 0. 1. < 0.25 then begin
          let k = int_of_float (Rng.uniform rng 0. (float_of_int !nlive)) in
          decr nlive;
          `Del (Int.min k (!nlive - 1))
        end
        else begin
          incr nlive;
          `Ins
            ( [| Rng.uniform rng 0. extent; Rng.uniform rng 0. extent |],
              1. +. Rng.uniform rng 0. 1. )
        end)
  in
  let run_bops ops ~ins ~del =
    let dummy = Dynamic.handle_of_id 0 in
    let live = Array.make (Array.length ops + 1) dummy in
    let nlive = ref 0 in
    Array.iter
      (fun op ->
        match op with
        | `Ins (p, w) ->
            live.(!nlive) <- ins p w;
            incr nlive
        | `Del k ->
            del live.(k);
            decr nlive;
            live.(k) <- live.(!nlive))
      ops
  in
  let n_ops = env_cap "MAXRS_E13_OPS" 20_000 in
  let extent = 1.5 *. sqrt (float_of_int n_ops) in
  let cfg = bench_cfg ~shifts:4 ~seed:1300 () in
  let ops = gen_bops ~n:n_ops ~seed:1301 ~extent in
  let reps = 3 in
  (* Part A: per-update overhead of journaling, vs the bare structure.
     The journaling cost is tens of us against ~1 ms of solver work per
     op, so heap-growth and GC phase effects between process phases
     would swamp it: run one untimed warm-up, interleave the reps
     across configurations, and compact before every timed run. *)
  let run_bare () =
    let dyn = Dynamic.create ~cfg ~dim:2 () in
    run_bops ops
      ~ins:(fun p w -> Dynamic.insert dyn ~weight:w p)
      ~del:(fun h -> Dynamic.delete dyn h)
  in
  let run_session policy () =
    let wal = fresh_wal () in
    Fun.protect
      ~finally:(fun () -> cleanup_wal wal)
      (fun () ->
        match Session.open_ ~wal ~snapshot_every:0 ~fsync:policy ~cfg () with
        | Error msg -> failwith msg
        | Ok sess ->
            run_bops ops
              ~ins:(fun p w -> Session.insert sess ~weight:w p)
              ~del:(fun h -> Session.delete sess h);
            Session.flush sess;
            Session.close sess)
  in
  let configs =
    [
      ("bare", run_bare);
      ("never", run_session Wal.Never);
      ("interval", run_session (Wal.Interval 64));
      ("always", run_session Wal.Always);
    ]
  in
  row "\n[overhead] %d mixed updates, best of %d interleaved runs:\n" n_ops
    reps;
  run_bare ();
  let mins = Array.make (List.length configs) infinity in
  for _ = 1 to reps do
    List.iteri
      (fun i (_, f) ->
        Gc.compact ();
        let _, dt = wtime f in
        mins.(i) <- Float.min mins.(i) dt)
      configs
  done;
  let bare_s = mins.(0) in
  row "%-16s %10.3f ms  %8.2f us/op\n" "bare dynamic" (1e3 *. bare_s)
    (1e6 *. bare_s /. float_of_int n_ops);
  let overhead =
    List.filteri (fun i _ -> i > 0) (List.map fst configs)
    |> List.mapi (fun i name ->
           let t = mins.(i + 1) in
           let pct = 100. *. (t -. bare_s) /. bare_s in
           row "%-16s %10.3f ms  %8.2f us/op  %+7.2f%%\n" ("fsync " ^ name)
             (1e3 *. t)
             (1e6 *. t /. float_of_int n_ops)
             pct;
           (name, t, pct))
  in
  (* Part B: recovery time vs log length, wal-only replay vs snapshot
     plus short suffix. *)
  let max_n = env_cap "MAXRS_E13_MAX_N" 32_000 in
  let ladder = List.filter (fun n -> n <= max_n) [ 2_000; 8_000; 32_000 ] in
  row "\n[recovery] time to reopen a closed session:\n";
  row "%8s %16s %10s %12s\n" "log ops" "snapshots" "replayed" "recover ms";
  let recovery =
    List.concat_map
      (fun n ->
        let ops = gen_bops ~n ~seed:(1302 + n) ~extent in
        List.map
          (fun snapshot_every ->
            let wal = fresh_wal () in
            Fun.protect
              ~finally:(fun () -> cleanup_wal wal)
              (fun () ->
                let phases =
                  match
                    Session.open_ ~wal ~snapshot_every
                      ~fsync:(Wal.Interval 64) ~cfg ()
                  with
                  | Error msg -> failwith msg
                  | Ok sess ->
                      run_bops ops
                        ~ins:(fun p w -> Session.insert sess ~weight:w p)
                        ~del:(fun h -> Session.delete sess h);
                      let phases =
                        if snapshot_every = 0 then None
                        else
                          Some
                            (snapshot_phases ~scratch:(wal ^ ".phases") sess)
                      in
                      Session.close sess;
                      phases
                in
                let recovered = ref None in
                let _, dt =
                  wtime (fun () ->
                      match Session.open_ ~wal ~snapshot_every ~cfg () with
                      | Error msg -> failwith msg
                      | Ok sess -> recovered := Some sess)
                in
                let sess = Option.get !recovered in
                let replayed =
                  match Session.recovery sess with
                  | Some r -> r.Session.replayed
                  | None -> 0
                in
                Session.close sess;
                row "%8d %16s %10d %12.2f\n" n
                  (if snapshot_every = 0 then "none"
                   else Printf.sprintf "every %d" snapshot_every)
                  replayed (1e3 *. dt);
                (n, snapshot_every, replayed, dt, phases)))
          [ 0; Int.max 1 (n / 4) ])
      ladder
  in
  row "\n[snapshot phases] one snapshot of the session at each size, ms:\n";
  row "%8s %10s %9s %9s %8s %8s %8s %8s %8s %8s %11s %11s\n" "log ops" "MB"
    "samples" "bytes/smp" "capture" "encode" "crc" "write" "decode" "restore"
    "words/smp" "rwords/smp";
  List.iter
    (fun (n, _, _, _, phases) ->
      Option.iter
        (fun p ->
          row
            "%8d %10.1f %9d %9.2f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %11.3f \
             %11.3f\n"
            n
            (float_of_int p.sp_bytes /. 1048576.)
            p.sp_samples p.sp_bytes_per_sample (1e3 *. p.sp_capture)
            (1e3 *. p.sp_encode) (1e3 *. p.sp_crc) (1e3 *. p.sp_write)
            (1e3 *. p.sp_decode) (1e3 *. p.sp_restore) p.sp_words_per_sample
            p.sp_restore_words_per_sample)
        phases)
    recovery;
  (* Snapshot recovery against full replay at each size (the target is
     10x at the largest). Same-process wall ratio: reported, not gated. *)
  let speedups =
    List.filter_map
      (fun n ->
        let at every =
          List.find_map
            (fun (n', e, _, dt, _) ->
              if n' = n && (e = 0) = every then Some dt else None)
            recovery
        in
        match (at true, at false) with
        | Some replay, Some snap when snap > 0. -> Some (n, replay /. snap)
        | _ -> None)
      ladder
  in
  List.iter
    (fun (n, x) ->
      row "recovery at %d ops: snapshot %.1fx faster than full replay\n" n x)
    speedups;
  (* JSON *)
  let buf = Buffer.create 2048 in
  Printf.bprintf buf
    "{\n  \"experiment\": \"E13\",\n  \"overhead\": {\n    \"n_ops\": %d, \
     \"bare_s\": %.6f,\n    \"policies\": [" n_ops bare_s;
  List.iteri
    (fun i (name, t, pct) ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf
        "{ \"fsync\": %S, \"s\": %.6f, \"overhead_pct\": %.2f }" name t pct)
    overhead;
  Buffer.add_string buf "]\n  },\n  \"recovery\": [\n";
  List.iteri
    (fun i (n, snapshot_every, replayed, dt, _) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "    { \"log_ops\": %d, \"snapshot_every\": %d, \"replayed\": %d, \
         \"recover_s\": %.6f }" n snapshot_every replayed dt)
    recovery;
  Buffer.add_string buf "\n  ],\n  \"snapshot_speedup\": [";
  List.iteri
    (fun i (n, x) ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf "{ \"log_ops\": %d, \"replay_over_snapshot\": %.2f }"
        n x)
    speedups;
  Buffer.add_string buf "],\n  \"snapshot_phases\": [\n";
  List.iteri
    (fun i (n, _, p) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "    { \"log_ops\": %d, \"bytes\": %d, \"samples\": %d, \
         \"bytes_per_sample\": %.4f, \"words_per_sample\": %.4f, \
         \"restore_words_per_sample\": %.4f, \"capture_s\": %.6f, \"encode_s\": %.6f, \"crc_s\": %.6f, \
         \"write_s\": %.6f, \"decode_s\": %.6f, \"restore_s\": %.6f }"
        n p.sp_bytes p.sp_samples p.sp_bytes_per_sample p.sp_words_per_sample
        p.sp_restore_words_per_sample p.sp_capture p.sp_encode p.sp_crc p.sp_write p.sp_decode p.sp_restore)
    (List.filter_map
       (fun (n, e, _, _, ph) -> Option.map (fun p -> (n, e, p)) ph)
       recovery);
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_durability.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  row "\nwrote BENCH_durability.json\n"

(* ------------------------------------------------------------------ *)
(* E14 — the flat-memory kernels on the Theorem 1.2 static solver, the
   Theorem 1.3 batched and single 1-D queries, the exact disk sweep and
   Theorem 4.6's exact colored solver, at domains = 1 (--domains does
   not apply). Each row reports the best-of-3 wall clock and the smallest
   minor-words delta after a full major collection. Minor words repeat
   exactly for a given binary and input, so CI gates them at 1.15x the
   checked-in row with the same (workload, n, m); wall clock is
   reported, never gated. Every answer
   is rescored in O(n) against its own input; exact agreement with
   reference solvers is the test suite's job. Results go to
   BENCH_kernels.json. MAXRS_E14_MAX_N caps the ladders (CI). *)

(* The seed-era code paths' figures at each ladder's largest n, as last
   measured in-process beside the kernels (workload, n, m, wall s, minor
   words). History only: those copies called live library code, so the
   column drifted, and nothing gates on it. *)
let e14_seed_reference =
  [
    ("static2d_e1", 8000, 0, 1.251825, 96020014);
    ("static2d_e2", 16000, 0, 1.819770, 196829744);
    ("static3d_e2", 4000, 0, 1.937392, 164670828);
    ("interval1d_e3", 80000, 100, 1.070784, 126713301);
    ("disk2d_e2", 2000, 0, 1.054207, 73980345);
  ]

let e14 () =
  header "E14 — flat-memory kernels (wall, minor words)";
  let max_n =
    match Sys.getenv_opt "MAXRS_E14_MAX_N" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some v when v >= 100 -> v
        | _ -> max_int)
    | None -> max_int
  in
  let reps = 3 in
  (* Best-of-[reps] wall clock; minimum minor-words delta (allocation is
     deterministic, the minimum shrugs off stray GC motion). A major
     collection up front keeps the previous row's garbage off this
     row's clock. *)
  let measure f =
    let best_t = ref infinity and best_a = ref infinity in
    let last = ref None in
    for _ = 1 to reps do
      Gc.full_major ();
      let a0 = Gc.minor_words () in
      let t0 = mono_s () in
      let r = f () in
      let dt = mono_s () -. t0 in
      let da = Gc.minor_words () -. a0 in
      last := Some r;
      if dt < !best_t then best_t := dt;
      if da < !best_a then best_a := da
    done;
    (Option.get !last, !best_t, !best_a)
  in
  (* E2's bench config pinned to one domain. *)
  let cfg1 ~epsilon ~seed =
    Config.make ~epsilon ~sample_constant:0.25 ~max_grid_shifts:(Some 4) ~seed
      ~domains:(Some 1) ()
  in
  let rows_acc = ref [] in
  row "%-17s %8s %6s %11s %13s\n" "workload" "n" "m" "current(s)"
    "minor words";
  let record ~workload ~n ~m ~ok (t, a) =
    if not ok then begin
      Printf.eprintf "E14: %s n=%d m=%d: answer fails its rescoring\n"
        workload n m;
      exit 1
    end;
    row "%-17s %8d %6d %11.4f %13.0f\n" workload n m t a;
    rows_acc := (workload, n, m, t, a) :: !rows_acc
  in
  let static_rows ~workload ~dim ~epsilon ~gen ns =
    List.iter
      (fun n ->
        if n <= max_n then begin
          let pts = gen n in
          let cfg = cfg1 ~epsilon ~seed:n in
          let r, t, a =
            measure (fun () -> Static.solve_unchecked ~cfg ~dim pts)
          in
          let ok =
            match r with
            | Some r -> Verify.check_achieved pts r.Static.center r.Static.value
            | None -> false
          in
          record ~workload ~n ~m:0 ~ok (t, a)
        end)
      ns
  in
  static_rows ~workload:"static2d_e1" ~dim:2 ~epsilon:0.3
    ~gen:(fun n ->
      let rng = Rng.create (1000 + n) in
      Array.map
        (fun p -> (p, 1.))
        (Workload.gaussian_clusters rng ~dim:2 ~n ~k:8 ~extent:20. ~spread:1.5))
    [ 1000; 2000; 4000; 8000 ];
  static_rows ~workload:"static2d_e2" ~dim:2 ~epsilon:0.3
    ~gen:(fun n ->
      let rng = Rng.create ((2 * 100000) + n) in
      Array.map
        (fun p -> (p, 1.))
        (Workload.gaussian_clusters rng ~dim:2 ~n ~k:6 ~extent:15. ~spread:1.))
    [ 2000; 4000; 8000; 16000 ];
  static_rows ~workload:"static3d_e2" ~dim:3 ~epsilon:0.4
    ~gen:(fun n ->
      let rng = Rng.create ((3 * 100000) + n) in
      Array.map
        (fun p -> (p, 1.))
        (Workload.gaussian_clusters rng ~dim:3 ~n ~k:6 ~extent:15. ~spread:1.))
    [ 1000; 2000; 4000 ];
  (* Theorem 1.3 (batched 1-D) at the E3 ladder. A reported interval
     [lo, lo + len] must hold the reported weight; membership is the
     sweep's own closed test (x - len <= lo <= x), so a point on the
     right end is not lost to the rounding of lo + len. The sums agree
     up to summation order. *)
  List.iter
    (fun (n, m) ->
      if n <= max_n then begin
        let rng = Rng.create (n + m) in
        let pts =
          Array.init n (fun _ ->
              (Rng.uniform rng 0. 1000., Rng.uniform rng 0. 5.))
        in
        let lens = Array.init m (fun _ -> Rng.uniform rng 1. 100.) in
        let r, t, a =
          measure (fun () -> Interval1d.batched ~domains:1 ~lens pts)
        in
        let ok =
          Array.for_all2
            (fun len { Interval1d.lo; value } ->
              let sum =
                Array.fold_left
                  (fun acc (x, w) ->
                    if x -. len <= lo && lo <= x then acc +. w else acc)
                  0. pts
              in
              Float.abs (sum -. value) <= 1e-9 *. Float.max 1. value)
            lens r
        in
        record ~workload:"interval1d_e3" ~n ~m ~ok (t, a)
      end)
    [ (20000, 100); (40000, 100); (80000, 100) ];
  (* Theorem 1.3's single query, as the daemon serves [Solve_interval]:
     the checked entry on one length, with negative weights. The answer
     is rescored as above; on grown scratch a query allocates only its
     answer, so its minor words gate the daemon's 1-D path. *)
  List.iter
    (fun n ->
      if n <= max_n then begin
        let rng = Rng.create (7 * n) in
        let pts =
          Array.init n (fun _ ->
              (Rng.uniform rng 0. 1000., Rng.uniform rng (-1.) 3.))
        in
        let len = 25. in
        let r, t, a =
          measure (fun () -> Interval1d.max_sum_checked ~len pts)
        in
        let ok =
          match r with
          | Error _ -> false
          | Ok { Interval1d.lo; value } ->
              let sum =
                Array.fold_left
                  (fun acc (x, w) ->
                    if x -. len <= lo && lo <= x then acc +. w else acc)
                  0. pts
              in
              Float.abs (sum -. value) <= 1e-9 *. Float.max 1. value
        in
        record ~workload:"interval1d_single" ~n ~m:1 ~ok (t, a)
      end)
    [ 12000; 20000; 80000 ];
  (* Exact disk sweep at E2's exact-comparison sizes. *)
  List.iter
    (fun n ->
      if n <= max_n then begin
        let rng = Rng.create (31 * n) in
        let tri =
          Array.map
            (fun p -> (p.(0), p.(1), 1.))
            (Workload.gaussian_clusters rng ~dim:2 ~n ~k:4 ~extent:8.
               ~spread:0.8)
        in
        let r, t, a =
          measure (fun () -> Disk2d.max_weight ~domains:1 ~radius:1. tri)
        in
        let ok =
          Verify.check_achieved
            (Array.map (fun (x, y, w) -> ([| x; y |], w)) tri)
            [| r.Disk2d.x; r.Disk2d.y |]
            r.Disk2d.value
        in
        record ~workload:"disk2d_e2" ~n ~m:0 ~ok (t, a)
      end)
    [ 500; 1000; 2000 ];
  (* Theorem 4.6's exact colored solver on E6(b)'s fixed-density input:
     6 of the 36 shifts, so the per-cell kernel dominates. *)
  List.iter
    (fun n ->
      if n <= max_n then begin
        let rng = Rng.create (23 * n) in
        let extent = 1.5 *. sqrt (float_of_int n) in
        let pts =
          Array.init n (fun _ ->
              (Rng.uniform rng 0. extent, Rng.uniform rng 0. extent))
        in
        let colors = Array.init n (fun i -> i mod 500) in
        let r, t, a =
          measure (fun () ->
              Outcome.value
                (Output_sensitive.solve_unchecked ~domains:1 ~max_shifts:6 pts
                   ~colors))
        in
        let ok =
          Verify.check_colored_achieved
            (Array.map (fun (x, y) -> [| x; y |]) pts)
            ~colors
            [| r.Output_sensitive.x; r.Output_sensitive.y |]
            r.Output_sensitive.depth
        in
        record ~workload:"os_colored_e6" ~n ~m:0 ~ok (t, a)
      end)
    [ 1000; 2000; 4000 ];
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"experiment\": \"E14\",\n  \"rows\": [\n";
  List.iteri
    (fun i (w, n, m, t, a) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "    { \"workload\": %S, \"n\": %d, \"m\": %d, \"current_s\": %.6f, \
         \"minor_words\": %.0f }"
        w n m t a)
    (List.rev !rows_acc);
  Buffer.add_string buf
    "\n  ],\n  \"seed_reference\": {\n    \"note\": \"historical, never \
     gated: the seed-era code paths, last measured in-process beside the \
     kernels before their copies were deleted\",\n    \"rows\": [\n";
  List.iteri
    (fun i (w, n, m, t, a) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "      { \"workload\": %S, \"n\": %d, \"m\": %d, \"legacy_s\": %.6f, \
         \"legacy_minor_words\": %d }"
        w n m t a)
    e14_seed_reference;
  Buffer.add_string buf "\n    ]\n  }\n}\n";
  let oc = open_out "BENCH_kernels.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  row "\nwrote BENCH_kernels.json\n"

(* ------------------------------------------------------------------ *)
(* E15 — serving: open-loop load against the daemon at sub-capacity,
   near-capacity, and well past capacity. The overload point must show
   explicit load-shedding (Overloaded rejections with Retry-After)
   while the accepted requests keep a bounded p99 — the signature of
   admission control, as opposed to a collapsing unbounded queue.
   Results go to BENCH_serving.json. MAXRS_E15_MAX_N caps the solve
   payload and MAXRS_E15_DURATION the seconds per load point (CI
   smoke). *)

module Snet = Maxrs_server.Netio
module Scli = Maxrs_server.Client
module Sload = Maxrs_server.Loadgen

let e15 () =
  header "E15 — serving (admission control under open-loop load)";
  let solve_n =
    match Sys.getenv_opt "MAXRS_E15_MAX_N" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some v when v >= 20 -> Int.min v 400
        | _ -> 400)
    | None -> 400
  in
  let duration =
    match Sys.getenv_opt "MAXRS_E15_DURATION" with
    | Some s -> (
        match float_of_string_opt (String.trim s) with
        | Some v when v >= 0.5 -> Float.min v 30.
        | _ -> 3.)
    | None -> 3.
  in
  let serverd =
    match Sys.getenv_opt "MAXRS_SERVERD" with
    | Some p -> p
    | None ->
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../bin/maxrs_serverd.exe"
  in
  if not (Sys.file_exists serverd) then begin
    Printf.eprintf
      "E15: daemon binary not found at %s (dune build bin/maxrs_serverd.exe)\n"
      serverd;
    exit 1
  end;
  let workers = 2 in
  let read_all path =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error _ -> ""
  in
  let contains ~needle hay =
    let n = String.length needle and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (* Each measurement gets a fresh daemon and a fresh WAL: the dynamic
     structure's amortized rebuilds grow with session size, so load
     points sharing one session would not see comparable service-time
     distributions. Returns (result, drained cleanly). *)
  let with_daemon f =
    let sock = Filename.temp_file "maxrs_e15" ".sock" in
    Sys.remove sock;
    let wal = Filename.temp_file "maxrs_e15" ".wal" in
    Sys.remove wal;
    let log = Filename.temp_file "maxrs_e15" ".log" in
    let fd = Unix.openfile log [ Unix.O_WRONLY; O_TRUNC ] 0o644 in
    let pid =
      Unix.create_process serverd
        [|
          serverd; "serve"; "--addr"; "unix:" ^ sock; "--wal"; wal; "--fsync";
          "interval"; "--fsync-interval"; "64"; "--workers";
          string_of_int workers; "--queue-cap"; "256";
        |]
        Unix.stdin fd fd
    in
    Unix.close fd;
    let deadline = mono_s () +. 10. in
    let rec wait_up () =
      if mono_s () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        Printf.eprintf "E15: daemon never came up:\n%s\n" (read_all log);
        exit 1
      end
      else if not (contains ~needle:"listening on" (read_all log)) then begin
        Unix.sleepf 0.05;
        wait_up ()
      end
    in
    wait_up ();
    let v = f (Snet.Unix_sock sock) in
    Unix.kill pid Sys.sigterm;
    let clean =
      match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false
    in
    (try Sys.remove sock with Sys_error _ -> ());
    (try Sys.remove log with Sys_error _ -> ());
    Array.iter
      (fun name ->
        let dir = Filename.dirname wal and base = Filename.basename wal in
        if
          String.length name >= String.length base
          && String.sub name 0 (String.length base) = base
        then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (Sys.readdir (Filename.dirname wal));
    (v, clean)
  in
  let mix = { Sload.default_mix with Sload.solve_n } in
  (* Capacity estimate: measure each request kind's service time over
     a warm connection, combine by the mix weights. *)
  let calibrate addr =
    let c = Scli.create addr in
    let rng = Rng.create 31 in
    let pts =
      Array.init solve_n (fun _ ->
          (Rng.uniform rng (-4.) 4., Rng.uniform rng (-4.) 4., Rng.float rng 1.))
    in
    let timed reps f =
      (* one warmup, then the mean *)
      f ();
      let t0 = mono_s () in
      for _ = 1 to reps do
        f ()
      done;
      (mono_s () -. t0) /. float_of_int reps
    in
    let t_solve =
      timed 10 (fun () -> ignore (Scli.solve_weighted c ~radius:1. pts))
    in
    let t_query = timed 50 (fun () -> ignore (Scli.query c)) in
    let t_insert =
      timed 50 (fun () -> ignore (Scli.insert c ~x:0.1 ~y:0.2 ~weight:1.))
    in
    Scli.close c;
    let total = mix.Sload.query +. mix.Sload.insert +. mix.Sload.solve in
    let mean_service =
      ((mix.Sload.query *. t_query)
      +. (mix.Sload.insert *. t_insert)
      +. (mix.Sload.solve *. t_solve))
      /. total
    in
    (* worker threads overlap WAL I/O but share one runtime lock, so
       CPU-bound capacity is a single service stream regardless of the
       worker count *)
    1. /. mean_service
  in
  (* The analytic estimate times an idle server; under sustained
     pipelined load, thread scheduling, GC, and the structure's
     rebuild spikes lower the knee. Probe at the estimate and keep the
     achieved rate when it falls short. *)
  let capacity, cal_clean =
    with_daemon (fun addr ->
        let analytic = calibrate addr in
        let probe =
          Sload.run ~senders:4 ~seed:7 ~mix ~addr ~rate:analytic ~duration:2.
            ()
        in
        Float.min analytic (probe.Sload.achieved_rps *. 1.05))
  in
  row "capacity estimate: %.0f req/s (%d workers, solve_n=%d, probed)\n\n"
    capacity workers solve_n;
  row "%12s %12s %8s %8s %8s %8s %9s %9s\n" "offered" "achieved" "ok"
    "rejected" "neterr" "degraded" "p50ms" "p99ms";
  let runs =
    List.map
      (fun factor ->
        let rate = Float.max 5. (capacity *. factor) in
        let r, clean =
          with_daemon (fun addr ->
              Sload.run ~senders:4 ~seed:42 ~mix ~addr ~rate ~duration ())
        in
        row "%12.0f %12.0f %8d %8d %8d %8d %9.2f %9.2f\n" r.Sload.offered_rps
          r.Sload.achieved_rps r.Sload.ok r.Sload.rejected r.Sload.net_errors
          r.Sload.degraded r.Sload.p50_ms r.Sload.p99_ms;
        (factor, r, clean))
      [ 0.5; 0.8; 3.0 ]
  in
  let clean_drain =
    cal_clean && List.for_all (fun (_, _, c) -> c) runs
  in
  row "clean drain: %b\n" clean_drain;
  let overload_ok =
    List.exists (fun (f, r, _) -> f > 1.0 && r.Sload.rejected > 0) runs
  in
  if not overload_ok then
    Printf.eprintf "E15: WARNING overload point shed no load\n";
  let buf = Buffer.create 2048 in
  Printf.bprintf buf
    "{\n\
    \  \"experiment\": \"E15\",\n\
    \  \"workers\": %d, \"queue_cap\": 256, \"solve_n\": %d,\n\
    \  \"capacity_est_rps\": %.1f,\n\
    \  \"clean_drain\": %b,\n\
    \  \"runs\": [\n"
    workers solve_n capacity clean_drain;
  List.iteri
    (fun i (factor, r, _) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf "    { \"load_factor\": %.2f, \"report\": %s }" factor
        (Sload.report_to_json r))
    runs;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_serving.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  row "\nwrote BENCH_serving.json\n"

(* ------------------------------------------------------------------ *)
(* E16 — sharded dynamic session: a kill -9 recovery row plus a
   scaling curve with shards = domains in {1,2,4,8}. The hard claims
   are bit-identity claims — every shard count produces the same state
   encoding as a solo replay, parallel recovery equals sequential
   recovery byte for byte, and a SIGKILL mid-traffic loses at most the
   unacked suffix — so they are asserted (exit 1) rather than
   reported. Wall-clock rows are advisory: on a machine with fewer
   cores than shards they measure scheduling, not scaling. Results
   extend BENCH_parallel.json under an "e16" key. Dials:
   MAXRS_E16_OPS (op-script length, default 1500). *)

module Dsession = Maxrs_durable.Session
module Dcodec = Maxrs_durable.Codec
module Dwal = Maxrs_durable.Wal

type e16_op = E16_ins of float array * float | E16_del of int

(* Handles are dense and assigned in insert order, so the script can
   predict them without running anything (same scheme as the durable
   test suite's differential scripts). *)
let e16_ops ~n ~seed =
  let rng = Rng.create seed in
  let live = ref [] and nlive = ref 0 and inserts = ref 0 in
  List.init n (fun _ ->
      if !nlive > 1 && Rng.bernoulli rng 0.25 then begin
        let k = Rng.int rng !nlive in
        let h = List.nth !live k in
        live := List.filteri (fun i _ -> i <> k) !live;
        decr nlive;
        E16_del h
      end
      else begin
        let p = [| Rng.float rng 30.; Rng.float rng 30. |] in
        let w = 1. +. Rng.float rng 2. in
        live := !inserts :: !live;
        incr inserts;
        incr nlive;
        E16_ins (p, w)
      end)

let e16_apply s = function
  | E16_ins (p, w) -> ignore (Dsession.insert s ~weight:w p : Dynamic.handle)
  | E16_del h -> Dsession.delete s (Dynamic.handle_of_id h)

(* Bit-identical oracle: the state an unsharded, undurable Dynamic
   reaches by replaying the first [prefix] ops from scratch. *)
let e16_reference ops ~prefix =
  let dyn = Dynamic.create ~cfg:Config.default ~radius:1. ~dim:2 () in
  List.iteri
    (fun i op ->
      if i < prefix then
        match op with
        | E16_ins (p, w) ->
            ignore (Dynamic.insert dyn ~weight:w p : Dynamic.handle)
        | E16_del h -> Dynamic.delete dyn (Dynamic.handle_of_id h))
    ops;
  (Dcodec.encode_state (Dynamic.state dyn), Dynamic.best dyn)

let e16_session_fp s =
  (Dcodec.encode_state (Dsession.state s), Dsession.best s)

let e16_fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "E16: FAIL %s\n" msg;
      exit 1)
    fmt

let e16_fresh_wal tag =
  let p = Filename.temp_file ("maxrs_e16_" ^ tag) ".wal" in
  Sys.remove p;
  p

let e16_prefixed wal =
  let dir = Filename.dirname wal and base = Filename.basename wal in
  Array.to_list (Sys.readdir dir)
  |> List.filter_map (fun name ->
         if
           String.length name >= String.length base
           && String.sub name 0 (String.length base) = base
         then
           Some
             ( Filename.concat dir name,
               String.sub name (String.length base)
                 (String.length name - String.length base) )
         else None)

let e16_cleanup_wal wal =
  List.iter
    (fun (path, _) -> try Sys.remove path with Sys_error _ -> ())
    (e16_prefixed wal)

(* Duplicate every file of a (possibly sharded) WAL layout —
   manifest, shard logs, snapshots — under a second base path, so two
   recoveries can start from the same crashed bytes. *)
let e16_copy_layout ~from_wal ~to_wal =
  List.iter
    (fun (path, suffix) ->
      let data = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin (to_wal ^ suffix) (fun oc ->
          Out_channel.output_string oc data))
    (e16_prefixed from_wal)

(* The crash victim runs as a re-exec of this binary ([--e16-child],
   intercepted in the main entry point below): [Unix.fork] is
   forbidden once any domain has ever been created in the process, and
   earlier experiments (or the scaling rows) spin pools up. The child
   regenerates the op script from [seed], opens sharded, applies
   traffic under fsync=Always, and never closes — if the script
   finishes before the SIGKILL lands it parks, so the kill always hits
   an open session. *)
let e16_child_main wal shards n seed =
  (match
     Dsession.open_ ~wal ~shards ~snapshot_every:64 ~fsync:Dwal.Always ()
   with
  | Error e ->
      Printf.eprintf "E16 child: %s\n%!" e;
      exit 1
  | Ok s ->
      let ready = wal ^ ".e16ready" in
      List.iteri
        (fun i op ->
          e16_apply s op;
          if i = 40 then
            Out_channel.with_open_bin ready (fun oc ->
                Out_channel.output_string oc "r"))
        (e16_ops ~n ~seed);
      while true do
        Unix.sleepf 3600.
      done);
  exit 0

let e16_recovery_row ~ops ~seed ~shards =
  let total = List.length ops in
  let wal = e16_fresh_wal "kill" in
  let ready = wal ^ ".e16ready" in
  (* The sentinel is written after op index 40 has been applied under
     fsync=Always, so at least 41 acked ops are durable before the
     parent is allowed to shoot the child. *)
  flush stdout;
  flush stderr;
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [|
        exe; "--e16-child"; wal; string_of_int shards; string_of_int total;
        string_of_int seed;
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let deadline = mono_s () +. 30. in
      while
        (not (Sys.file_exists ready)) && mono_s () < deadline
      do
        Unix.sleepf 0.01
      done;
      if not (Sys.file_exists ready) then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        e16_fail "child made no progress before the deadline"
      end;
      (* let some more traffic land mid-flight, then kill -9 *)
      Unix.sleepf 0.25;
      Unix.kill pid Sys.sigkill;
      (match Unix.waitpid [] pid with
      | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
      | _ -> e16_fail "child did not die from SIGKILL");
      (try Sys.remove ready with Sys_error _ -> ());
      let wal2 = e16_fresh_wal "kill2" in
      e16_copy_layout ~from_wal:wal ~to_wal:wal2;
      let rec_ms = Obs.counter "shard.recovery_ms" in
      let ms_before = Obs.value rec_ms in
      let t0 = mono_s () in
      let s =
        Obs.with_enabled true (fun () ->
            match Dsession.open_ ~wal () with
            | Ok s -> s
            | Error e -> e16_fail "parallel recovery failed: %s" e)
      in
      let t_par = mono_s () -. t0 in
      let counter_ms = Obs.value rec_ms - ms_before in
      if Dsession.shards s <> shards then
        e16_fail "recovered %d shards, expected %d" (Dsession.shards s) shards;
      let seq = Dsession.seq s in
      if seq < 41 || seq > total then
        e16_fail "recovered seq %d outside acked window [41, %d]" seq total;
      let fp_par = e16_session_fp s in
      Dsession.close s;
      let t1 = mono_s () in
      let s2 =
        match Dsession.open_ ~wal:wal2 ~domains:1 () with
        | Ok s -> s
        | Error e -> e16_fail "sequential recovery failed: %s" e
      in
      let t_seq = mono_s () -. t1 in
      if Dsession.seq s2 <> seq then
        e16_fail "sequential recovery reached seq %d, parallel reached %d"
          (Dsession.seq s2) seq;
      let fp_seq = e16_session_fp s2 in
      Dsession.close s2;
      if fp_par <> fp_seq then
        e16_fail "parallel and sequential recovery disagree at seq %d" seq;
      let fp_ref = e16_reference ops ~prefix:seq in
      if fp_par <> fp_ref then
        e16_fail "recovered state diverges from solo replay of %d acked ops"
          seq;
      e16_cleanup_wal wal;
      e16_cleanup_wal wal2;
      row
        "kill -9: shards=%d, recovered seq %d of %d scripted ops \
         (parallel %.3fs, sequential %.3fs, bit-identical)\n"
        shards seq total t_par t_seq;
      (seq, total, t_par, t_seq, counter_ms)

let e16_scale_row ~ops k =
  let total = List.length ops in
  let wal = e16_fresh_wal "scale" in
  let s =
    match
      Dsession.open_ ~wal ~shards:k ~domains:k ~snapshot_every:500
        ~fsync:(Dwal.Interval 64) ()
    with
    | Ok s -> s
    | Error e -> e16_fail "open shards=%d: %s" k e
  in
  let t0 = mono_s () in
  List.iter (e16_apply s) ops;
  let t_apply = mono_s () -. t0 in
  let fp_live = e16_session_fp s in
  Dsession.close s;
  let t1 = mono_s () in
  let s2 =
    match Dsession.open_ ~wal:wal ~domains:k () with
    | Ok s -> s
    | Error e -> e16_fail "reopen shards=%d: %s" k e
  in
  let t_rec = mono_s () -. t1 in
  if Dsession.shards s2 <> k then
    e16_fail "reopen shards=%d came back with %d shards" k
      (Dsession.shards s2);
  if Dsession.seq s2 <> total then
    e16_fail "reopen shards=%d lost ops: seq %d of %d" k (Dsession.seq s2)
      total;
  let fp_rec = e16_session_fp s2 in
  Dsession.close s2;
  if fp_rec <> fp_live then
    e16_fail "shards=%d: recovered state differs from pre-close state" k;
  e16_cleanup_wal wal;
  row "%8d %10d %12.3f %12.3f\n" k total t_apply t_rec;
  (k, t_apply, t_rec, fp_rec)

(* Splice an "e16" object into BENCH_parallel.json without disturbing
   the E10 content (replacing any previous e16 section). *)
let e16_extend_bench_parallel obj =
  let path = "BENCH_parallel.json" in
  let base =
    if Sys.file_exists path then
      In_channel.with_open_bin path In_channel.input_all
    else "{\n  \"experiment\": \"E16\"\n}\n"
  in
  let marker = ",\n  \"e16\":" in
  let find_sub hay needle =
    let n = String.length needle and m = String.length hay in
    let rec go i =
      if i + n > m then None
      else if String.sub hay i n = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  let prefix =
    match find_sub base marker with
    | Some i -> String.sub base 0 i
    | None ->
        let n = ref (String.length base) in
        let ws c = c = '\n' || c = '\r' || c = ' ' || c = '\t' in
        while !n > 0 && ws base.[!n - 1] do
          decr n
        done;
        if !n > 0 && base.[!n - 1] = '}' then decr n;
        while !n > 0 && ws base.[!n - 1] do
          decr n
        done;
        String.sub base 0 !n
  in
  let oc = open_out path in
  output_string oc (prefix ^ marker ^ " " ^ obj ^ "\n}\n");
  close_out oc

let e16 () =
  header "E16 — sharded session: kill -9 recovery and shard scaling";
  let total_ops =
    match Sys.getenv_opt "MAXRS_E16_OPS" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some v when v >= 200 -> Int.min v 200_000
        | _ -> 1500)
    | None -> 1500
  in
  let cores = Domain.recommended_domain_count () in
  let shard_counts = [ 1; 2; 4; 8 ] in
  row "cores: %d  ops: %d\n" cores total_ops;
  let ops = e16_ops ~n:total_ops ~seed:160016 in
  let kseq, ktotal, kt_par, kt_seq, kms =
    e16_recovery_row ~ops ~seed:160016 ~shards:4
  in
  row "%8s %10s %12s %12s\n" "shards" "ops" "apply(s)" "recover(s)";
  let scale = List.map (e16_scale_row ~ops) shard_counts in
  (* determinism across shard counts, against the solo oracle *)
  let fp_ref = e16_reference ops ~prefix:total_ops in
  List.iter
    (fun (k, _, _, fp) ->
      if fp <> fp_ref then
        e16_fail "shards=%d state diverges from the solo oracle" k)
    scale;
  row "determinism: all shard counts bit-identical to solo oracle: true\n";
  let caveat =
    if cores < List.fold_left Int.max 1 shard_counts then
      Printf.sprintf
        "%d cores available: wall rows for shard counts above %d are \
         oversubscribed and advisory; only bit-identity and recovery \
         success are gated"
        cores cores
    else ""
  in
  if caveat <> "" then row "caveat: %s\n" caveat;
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "{\n\
    \    \"total_ops\": %d,\n\
    \    \"cores_available\": %d,\n"
    total_ops cores;
  if caveat <> "" then
    Printf.bprintf buf "    \"measurement_caveat\": %S,\n" caveat;
  Printf.bprintf buf
    "    \"recovery\": { \"shards\": 4, \"recovered_seq\": %d, \
     \"script_ops\": %d, \"parallel_seconds\": %.6f, \
     \"sequential_seconds\": %.6f, \"recovery_ms_counter\": %d, \
     \"bit_identical\": true, \"parallel_matches_sequential\": true },\n"
    kseq ktotal kt_par kt_seq kms;
  Buffer.add_string buf "    \"scaling\": [\n";
  List.iteri
    (fun i (k, t_apply, t_rec, _) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "      { \"shards\": %d, \"domains\": %d, \"apply_seconds\": %.6f, \
         \"recovery_seconds\": %.6f, \"bit_identical\": true }"
        k k t_apply t_rec)
    scale;
  Buffer.add_string buf "\n    ]\n  }";
  e16_extend_bench_parallel (Buffer.contents buf);
  row "\nextended BENCH_parallel.json (e16 section)\n"

(* ------------------------------------------------------------------ *)
(* E17 — succinct RMSQ read tier: O(log n) indexed range-sum queries
   against the O(n) reference sweep over the same prefix column. Three
   question families: coordinate ranges (the serving path), element-
   index ranges, and the compiled fixed-length Interval1d question.
   Every answer is asserted bit-identical between index and sweep
   before any throughput is reported — the index stores prefix-sum
   indices, not accumulated sums, so equality is exact by construction
   and a mismatch means a broken tree, not float noise. Results (build
   time, bits-per-point, per-family qps and speedup) go to
   BENCH_query.json.

   MAXRS_E17_MAX_N caps n (CI smoke). MAXRS_E17_GATE=<file> hard-gates:
   every family's speedup must clear the 50x tentpole target, and must
   not regress more than 35% against the checked-in baseline rows
   (matched on question + n; both sides of each ratio run in the same
   process, so the ratio cancels machine speed — the coarse bound only
   catches complexity-class regressions, not scheduler jitter). The
   baseline is read before the fresh file overwrites it. *)

module Qrmsq = Maxrs_query.Rmsq

let e17 () =
  header "E17 — RMSQ read tier: indexed queries vs reference sweep";
  let n =
    match Sys.getenv_opt "MAXRS_E17_MAX_N" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some v when v >= 100 -> Int.min v 100_000
        | _ -> 100_000)
    | None -> 100_000
  in
  let parse_row line =
    match
      Scanf.sscanf (String.trim line)
        "{ \"question\": %S, \"n\": %d, \"queries\": %d, \"indexed_qps\": \
         %f, \"sweep_qps\": %f, \"speedup\": %f"
        (fun q n _ _ _ sp -> (q, n, sp))
    with
    | r -> Some r
    | exception _ -> None
  in
  let gate =
    match Sys.getenv_opt "MAXRS_E17_GATE" with
    | None -> None
    | Some path ->
        let ic = open_in path in
        let acc = ref [] in
        (try
           while true do
             match parse_row (input_line ic) with
             | Some r -> acc := r :: !acc
             | None -> ()
           done
         with End_of_file -> close_in ic);
        Some (path, !acc)
  in
  let rng = Rng.create (17 * n) in
  (* Mixed-sign weights: all-positive weights would make every best
     segment the full range and let a degenerate index look correct. *)
  let pts =
    Array.init n (fun _ ->
        (Rng.uniform rng 0. 1000., Rng.uniform rng (-2.) 5.))
  in
  let lens = [| 5.; 25.; 100. |] in
  let t0 = mono_s () in
  let idx = Qrmsq.build ~lens pts in
  let build_ms = 1e3 *. (mono_s () -. t0) in
  let b = Interval1d.preprocess pts in
  let bpp = Qrmsq.bits_per_point idx in
  row "n=%d  build=%.1fms  index=%d bytes  %.1f bits/point\n" n build_ms
    (Qrmsq.size_bytes idx) bpp;
  let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let seg_eq a b =
    match (a, b) with
    | None, None -> true
    | Some s, Some r ->
        s.Qrmsq.s_lo = r.Qrmsq.s_lo
        && s.Qrmsq.s_hi = r.Qrmsq.s_hi
        && feq s.Qrmsq.s_sum r.Qrmsq.s_sum
    | _ -> false
  in
  let e17_fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "E17: %s\n" m;
        exit 1)
      fmt
  in
  (* Throughput of [f] over [q] queries: repeat whole passes until the
     clock has accumulated enough to trust, then divide. [sink] defeats
     any heroic dead-code elimination of the query results. *)
  let sink = ref 0 in
  let absorb = function
    | None -> incr sink
    | Some s -> sink := !sink + s.Qrmsq.s_lo - s.Qrmsq.s_hi
  in
  let qps ~min_s q f =
    let passes = ref 0 and t0 = mono_s () in
    let elapsed = ref 0. in
    while !elapsed < min_s || !passes < 2 do
      for i = 0 to q - 1 do
        f i
      done;
      incr passes;
      elapsed := mono_s () -. t0
    done;
    Float.of_int (!passes * q) /. !elapsed
  in
  let rows_acc = ref [] in
  row "%-14s %8s %12s %12s %10s\n" "question" "queries" "indexed/s"
    "sweep/s" "speedup";
  let record ~question ~queries ~indexed_qps ~sweep_qps =
    let speedup = indexed_qps /. sweep_qps in
    row "%-14s %8d %12.0f %12.1f %9.1fx\n" question queries indexed_qps
      sweep_qps speedup;
    rows_acc := (question, n, queries, indexed_qps, sweep_qps, speedup)
                :: !rows_acc
  in
  (* Family 1: coordinate ranges, the serving path — two binary
     searches plus one tree walk vs scan_coords' single O(n) pass. *)
  let nq = 512 in
  let coord_qs =
    Array.init nq (fun _ ->
        let a = Rng.uniform rng 0. 1000. and b = Rng.uniform rng 0. 1000. in
        (Float.min a b, Float.max a b))
  in
  Array.iter
    (fun (lo, hi) ->
      let i = Qrmsq.max_sum_in_coords idx ~lo ~hi in
      let s = Qrmsq.scan_coords b ~lo ~hi in
      if not (seg_eq i s) then
        e17_fail "coords [%g, %g]: index and sweep answers differ" lo hi)
    coord_qs;
  let iq =
    qps ~min_s:0.3 nq (fun i ->
        let lo, hi = coord_qs.(i) in
        absorb (Qrmsq.max_sum_in_coords idx ~lo ~hi))
  and sq =
    qps ~min_s:0.3 nq (fun i ->
        let lo, hi = coord_qs.(i) in
        absorb (Qrmsq.scan_coords b ~lo ~hi))
  in
  record ~question:"range_coords" ~queries:nq ~indexed_qps:iq ~sweep_qps:sq;
  (* Family 2: element-index ranges — pure tree walk vs range_ref's
     O(hi - lo) prefix scan, no binary searches on either side. *)
  let idx_qs =
    Array.init nq (fun _ ->
        let a = Rng.int rng n and b = Rng.int rng n in
        (Int.min a b, Int.max a b))
  in
  Array.iter
    (fun (lo, hi) ->
      let i = Qrmsq.max_sum_in_range idx ~lo ~hi in
      let s = Qrmsq.range_ref idx ~lo ~hi in
      if not (seg_eq i s) then
        e17_fail "range [%d, %d]: index and sweep answers differ" lo hi)
    idx_qs;
  let iq =
    qps ~min_s:0.3 nq (fun i ->
        let lo, hi = idx_qs.(i) in
        absorb (Qrmsq.max_sum_in_range idx ~lo ~hi))
  and sq =
    qps ~min_s:0.3 nq (fun i ->
        let lo, hi = idx_qs.(i) in
        absorb (Qrmsq.range_ref idx ~lo ~hi))
  in
  record ~question:"range_index" ~queries:nq ~indexed_qps:iq ~sweep_qps:sq;
  (* Family 3: the compiled fixed-length Interval1d question — O(lens)
     table lookup of the answer materialised at build time vs the O(n)
     Interval1d sweep it materialised. *)
  let nl = Array.length lens in
  Array.iter
    (fun len ->
      match Qrmsq.interval idx ~len with
      | None -> e17_fail "len %g was compiled but interval returned None" len
      | Some p ->
          let s = Interval1d.query b ~len in
          if
            not
              (feq p.Interval1d.lo s.Interval1d.lo
              && feq p.Interval1d.value s.Interval1d.value)
          then e17_fail "len %g: compiled and sweep placements differ" len)
    lens;
  let absorb_p = function
    | None -> incr sink
    | Some p -> sink := !sink + int_of_float p.Interval1d.lo
  in
  let iq =
    qps ~min_s:0.3 nl (fun i -> absorb_p (Qrmsq.interval idx ~len:lens.(i)))
  and sq =
    qps ~min_s:0.3 nl (fun i ->
        absorb_p (Some (Interval1d.query b ~len:lens.(i))))
  in
  record ~question:"interval_len" ~queries:nl ~indexed_qps:iq ~sweep_qps:sq;
  if !sink = min_int then row "%d\n" !sink;
  row "bit-identity: all %d queries identical between index and sweep\n"
    ((2 * nq) + nl);
  let rows = List.rev !rows_acc in
  (* JSON: one row object per line — the gate above and the CI job
     re-parse rows line by line; keep the key order in sync with
     [parse_row]. *)
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "{\n\
    \  \"experiment\": \"E17\",\n\
    \  \"n\": %d,\n\
    \  \"build_ms\": %.3f,\n\
    \  \"index_bytes\": %d,\n\
    \  \"bits_per_point\": %.2f,\n\
    \  \"rows\": [\n"
    n build_ms (Qrmsq.size_bytes idx) bpp;
  List.iteri
    (fun i (q, n, c, iq, sq, sp) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "    { \"question\": %S, \"n\": %d, \"queries\": %d, \
         \"indexed_qps\": %.1f, \"sweep_qps\": %.1f, \"speedup\": %.4f, \
         \"bit_identical\": true }"
        q n c iq sq sp)
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_query.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  row "\nwrote BENCH_query.json\n";
  match gate with
  | None -> ()
  | Some (path, baseline) ->
      let matched = ref 0 and failures = ref [] in
      (* The 50x tentpole target is stated at n = 100k; an O(n)/O(log n)
         ratio shrinks roughly linearly with n, so a capped smoke run is
         held to the proportionally scaled target instead (floored so a
         tiny n still has to show a real separation). *)
      let target_for n = Float.max 5. (50. *. Float.of_int n /. 1e5) in
      List.iter
        (fun (q, n, _, _, _, sp) ->
          if sp < target_for n then
            failures :=
              Printf.sprintf "%s n=%d: speedup %.1fx below the %.0fx target"
                q n sp (target_for n)
              :: !failures;
          match
            List.find_opt (fun (bq, bn, _) -> bq = q && bn = n) baseline
          with
          | None -> ()
          | Some (_, _, bsp) ->
              incr matched;
              if sp < bsp /. 1.35 then
                failures :=
                  Printf.sprintf
                    "%s n=%d: speedup %.1fx regressed vs baseline %.1fx" q n
                    sp bsp
                  :: !failures)
        rows;
      if !failures = [] then
        row "gate vs %s: OK (%d rows matched, all above 50x)\n" path !matched
      else begin
        List.iter
          (fun f -> Printf.eprintf "E17 gate FAIL: %s\n" f)
          (List.rev !failures);
        exit 1
      end

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
    ("e12", e12);
    ("e13", e13);
    ("e14", e14);
    ("e15", e15);
    ("e16", e16);
    ("e17", e17);
    ("ablation", ablation);
    ("micro", micro);
  ]

let () =
  (* hidden mode: crash victim for the E16 kill -9 row (see
     [e16_child_main]) — handled before normal experiment dispatch *)
  if Array.length Sys.argv = 6 && Sys.argv.(1) = "--e16-child" then begin
    match
      ( int_of_string_opt Sys.argv.(3),
        int_of_string_opt Sys.argv.(4),
        int_of_string_opt Sys.argv.(5) )
    with
    | Some shards, Some n, Some seed ->
        e16_child_main Sys.argv.(2) shards n seed
    | _ ->
        prerr_endline "--e16-child expects <wal> <shards> <ops> <seed>";
        exit 1
  end;
  let rec strip_flags acc = function
    | [] -> List.rev acc
    | "--domains" :: v :: rest -> (
        match int_of_string_opt v with
        | Some d when d >= 1 ->
            domains_opt := Some d;
            strip_flags acc rest
        | _ ->
            Printf.eprintf "--domains expects a positive integer, got %S\n" v;
            exit 1)
    | [ "--domains" ] ->
        Printf.eprintf "--domains expects an argument\n";
        exit 1
    | a :: rest -> strip_flags (a :: acc) rest
  in
  let args = strip_flags [] (List.tl (Array.to_list Sys.argv)) in
  let selected =
    match args with
    | [] -> experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %S\n" n;
                exit 1)
          names
  in
  List.iter (fun (_, f) -> f ()) selected;
  print_newline ()
