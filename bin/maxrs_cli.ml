(* maxrs — command-line interface to the MaxRS library.

   Point files are plain CSV, one point per line:
     weighted points:  x,y[,z...],weight   (use `--unweighted` for weight 1)
     colored points:   x,y,color           (color is a non-negative int)
     1-D points:       x,weight

   Try:
     maxrs generate --kind clusters --n 1000 --out pts.csv
     maxrs static --input pts.csv --radius 2
     maxrs exact-disk --input pts.csv --radius 2 *)

open Cmdliner

module Point = Maxrs_geom.Point
module Rng = Maxrs_geom.Rng
module Config = Maxrs.Config
module Static = Maxrs.Static
module Colored = Maxrs.Colored
module Dynamic = Maxrs.Dynamic
module Output_sensitive = Maxrs.Output_sensitive
module Approx_colored = Maxrs.Approx_colored
module Workload = Maxrs.Workload
module Interval1d = Maxrs_sweep.Interval1d
module Disk2d = Maxrs_sweep.Disk2d
module Colored_disk2d = Maxrs_sweep.Colored_disk2d
module Bsei = Maxrs_conv.Bsei
module Convolution = Maxrs_conv.Convolution
module Reductions = Maxrs_conv.Reductions

module Points_io = Maxrs.Points_io
module Trace = Maxrs.Trace
module Verify = Maxrs.Verify
module Resilient = Maxrs.Resilient
module Guard = Maxrs_resilience.Guard
module Budget = Maxrs_resilience.Budget
module Outcome = Maxrs_resilience.Outcome
module Boxd = Maxrs_sweep.Boxd
module Rect2d = Maxrs_sweep.Rect2d
module Colored_rect2d = Maxrs_sweep.Colored_rect2d
module Approx_colored_rect = Maxrs.Approx_colored_rect
module Obs = Maxrs_obs.Obs
module Session = Maxrs_durable.Session
module Wal = Maxrs_durable.Wal
module Rmsq = Maxrs_query.Rmsq
module Index_builder = Maxrs_query.Index_builder
module Qepoch = Maxrs_query.Epoch
module Netio = Maxrs_server.Netio
module Sproto = Maxrs_server.Proto
module Sclient = Maxrs_server.Client

(* ------------------------------------------------------------------ *)
(* Failure model: distinct exit codes with one-line diagnostics *)

let exit_parse_error = 2
let exit_invalid_input = 3
let exit_deadline = 4
let exit_interrupted = 5

let resilience_exits =
  Cmd.Exit.info exit_parse_error ~doc:"on malformed input files (parse error)."
  :: Cmd.Exit.info exit_invalid_input
       ~doc:
         "on invalid input data: non-finite coordinates or weights, \
          negative weights/colors, dimension mismatches, empty inputs."
  :: Cmd.Exit.info exit_deadline
       ~doc:
         "when $(b,--strict) is set and the $(b,--deadline) expired before \
          the exact answer was found."
  :: Cmd.Exit.info exit_interrupted
       ~doc:
         "when SIGINT/SIGTERM interrupted a $(b,session) run; the WAL and \
          any $(b,--stats) snapshot are flushed before exiting."
  :: Cmd.Exit.defaults

let guarded f =
  try f () with
  | Points_io.Parse_error msg | Trace.Parse_error msg ->
      Printf.eprintf "maxrs: parse error: %s\n" msg;
      exit_parse_error
  | Guard.Error e ->
      Printf.eprintf "maxrs: %s\n" (Guard.to_string e);
      exit_invalid_input

let invalid e =
  Printf.eprintf "maxrs: %s\n" (Guard.to_string e);
  exit_invalid_input

let source_label = function
  | Resilient.Exact -> "exact solver"
  | Resilient.Approx_fallback -> "approximation fallback"
  | Resilient.Best_so_far -> "best-so-far scan"

(* Shared by the deadline-aware commands: report how the answer was
   obtained and map expiry to the --strict | --lenient policy. *)
let finish_outcome ~strict ~source outcome =
  if Outcome.is_complete outcome then 0
  else begin
    Printf.eprintf "maxrs: deadline expired; %s answer from the %s\n"
      (Outcome.label outcome) (source_label source);
    if strict then exit_deadline else 0
  end

(* ------------------------------------------------------------------ *)
(* IO helpers *)

let load_weighted path ~unweighted = Points_io.load_weighted ~unweighted path
let load_1d = Points_io.load_1d

let with_out path f =
  match path with
  | None -> f stdout
  | Some p ->
      let oc = open_out p in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* ------------------------------------------------------------------ *)
(* Observability: --stats[=FILE] *)

(* Pre-register the cross-layer counters so a [--stats] snapshot always
   carries the full key set: OCaml only runs the initializers of linked
   compilation units, so a run that never touches, say, the kd-tree
   would otherwise omit its counters entirely instead of reporting 0. *)
let () =
  List.iter
    (fun name -> ignore (Obs.counter name : Obs.counter))
    [
      "kd.visits";
      "kd.points";
      "sweep.events";
      "sweep.circles";
      "sweep.interval1d.queries";
      "sweep.interval1d.events";
      "segment_tree.updates";
      "segment_tree.nodes";
      "grid.cells";
      "samples.drawn";
      "samples.visited";
      "os.cells";
      "os.disks";
      "os.sweep_events";
      "approx.colors_sampled";
      "approx.disks_sampled";
      "pool.jobs";
      "pool.chunks";
      "pool.waits";
      "pool.retries";
      "pool.recovered";
      "resilient.degraded";
      "resilient.partial";
      "rmsq.builds";
      "rmsq.queries";
      "rmsq.hits";
      "rmsq.fallbacks";
      "wal.records";
      "wal.bytes";
      "wal.fsyncs";
      "snapshot.writes";
      "snapshot.bytes";
      "recovery.runs";
      "recovery.replayed";
      "recovery.truncated_bytes";
    ]

(* Allocation pressure of the timed region, sampled from the GC rather
   than accumulated by the code under test: [with_stats] records the
   [Gc.quick_stat] word-count deltas across the solve so a snapshot
   shows how much minor-heap traffic (and promotion out of it) the run
   caused. Word counts are exact for the minor heap, so a regression in
   an allocation-free kernel shows up as a jump in these two keys. *)
let c_gc_minor = Obs.counter "gc.minor_words"
let c_gc_promoted = Obs.counter "gc.promoted_words"

let stats_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:
          "Record operation counters during the run and print a one-line \
           JSON snapshot to $(docv) when done ($(docv) defaults to \
           stdout). Recording alone can also be enabled with \
           MAXRS_STATS=1.")

let with_stats stats f =
  match stats with
  | None -> f ()
  | Some dest ->
      Obs.set_enabled true;
      let g0 = Gc.quick_stat () in
      let code = f () in
      let g1 = Gc.quick_stat () in
      Obs.add c_gc_minor
        (int_of_float (g1.Gc.minor_words -. g0.Gc.minor_words));
      Obs.add c_gc_promoted
        (int_of_float (g1.Gc.promoted_words -. g0.Gc.promoted_words));
      let json = Obs.Snapshot.to_json (Obs.Snapshot.capture ()) in
      (if dest = "-" then print_endline json
       else
         with_out (Some dest) (fun oc ->
             output_string oc json;
             output_char oc '\n'));
      code

(* ------------------------------------------------------------------ *)
(* Common options *)

let input_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Input CSV file.")

let radius_arg =
  Arg.(value & opt float 1. & info [ "r"; "radius" ] ~docv:"R" ~doc:"Query ball radius.")

let epsilon_arg =
  Arg.(
    value & opt float 0.25
    & info [ "e"; "epsilon" ] ~docv:"EPS" ~doc:"Approximation parameter.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let shifts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shifts" ]
        ~docv:"K"
        ~doc:
          "Cap the Lemma 2.1 grid-shift collection at $(docv) random \
           shifts (practical mode); default is the faithful collection.")

let unweighted_arg =
  Arg.(
    value & flag
    & info [ "unweighted" ] ~doc:"Treat every input row as weight 1.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget in seconds for the exact solve. On expiry the \
           solver degrades gracefully to the near-linear approximation \
           pipeline and the reported answer is re-verified against the full \
           input; see $(b,--strict) to fail instead.")

let strict_arg =
  Arg.(
    value
    & vflag false
        [
          ( true,
            info [ "strict" ]
              ~doc:
                "With $(b,--deadline): exit with code 4 when the deadline \
                 expires instead of reporting the degraded answer." );
          ( false,
            info [ "lenient" ]
              ~doc:
                "With $(b,--deadline): report the verified degraded answer \
                 on expiry and exit 0 (default)." );
        ])

(* ------------------------------------------------------------------ *)
(* generate *)

let generate kind n dim extent colors_count opt seed out =
  let rng = Rng.create seed in
  with_out out (fun oc ->
      let emit_weighted pts =
        Array.iter
          (fun (p, w) ->
            Array.iter (fun c -> Printf.fprintf oc "%g," c) p;
            Printf.fprintf oc "%g\n" w)
          pts
      in
      match kind with
      | "uniform" ->
          emit_weighted
            (Workload.uniform_weighted rng ~dim ~n ~extent ~max_weight:1.)
      | "clusters" ->
          emit_weighted
            (Array.map
               (fun p -> (p, 1.))
               (Workload.gaussian_clusters rng ~dim ~n ~k:8 ~extent
                  ~spread:(extent /. 20.)))
      | "planted" ->
          let pts, center, optv = Workload.planted rng ~dim ~n ~opt in
          Printf.fprintf oc "# planted optimum %g at %s\n" optv
            (Point.to_string center);
          emit_weighted pts
      | "trajectories" ->
          let pts, cols =
            Workload.trajectories rng ~m:colors_count
              ~steps:(Int.max 1 (n / Int.max 1 colors_count))
              ~extent ~step:(extent /. 30.)
          in
          Array.iteri
            (fun i (x, y) -> Printf.fprintf oc "%g,%g,%d\n" x y cols.(i))
            pts
      | k -> failwith (Printf.sprintf "unknown kind %S" k));
  0

let generate_cmd =
  let kind =
    Arg.(
      value & opt string "uniform"
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"uniform | clusters | planted | trajectories.")
  in
  let n = Arg.(value & opt int 1000 & info [ "n" ] ~docv:"N" ~doc:"Point count.") in
  let dim = Arg.(value & opt int 2 & info [ "dim" ] ~docv:"D" ~doc:"Dimension.") in
  let extent =
    Arg.(value & opt float 20. & info [ "extent" ] ~docv:"E" ~doc:"Box side.")
  in
  let colors =
    Arg.(
      value & opt int 20
      & info [ "colors" ] ~docv:"M" ~doc:"Trajectory / color count.")
  in
  let opt =
    Arg.(
      value & opt int 50
      & info [ "opt" ] ~docv:"OPT" ~doc:"Planted optimum size.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate workload point sets.")
    Term.(const generate $ kind $ n $ dim $ extent $ colors $ opt $ seed_arg $ out)

(* ------------------------------------------------------------------ *)
(* static *)

let static input radius epsilon shifts seed unweighted stats =
  with_stats stats @@ fun () ->
  guarded (fun () ->
      let pts = load_weighted input ~unweighted in
      if Array.length pts = 0 then begin
        prerr_endline "empty input";
        1
      end
      else begin
        let dim = Point.dim (fst pts.(0)) in
        let cfg = Config.make ~epsilon ~max_grid_shifts:shifts ~seed () in
        let r = Static.solve_or_point ~cfg ~radius ~dim pts in
        Printf.printf "center: %s\nweight: %g\n"
          (Point.to_string r.Static.center)
          r.Static.value;
        0
      end)

let static_cmd =
  Cmd.v
    (Cmd.info "static"
       ~doc:"(1/2-eps)-approximate MaxRS for a d-ball (Theorem 1.2).")
    Term.(
      const static $ input_arg $ radius_arg $ epsilon_arg $ shifts_arg
      $ seed_arg $ unweighted_arg $ stats_arg)

(* ------------------------------------------------------------------ *)
(* colored *)

let colored input radius epsilon shifts seed stats =
  with_stats stats @@ fun () ->
  guarded (fun () ->
      let pts, colors = Points_io.load_colored input in
      let points = Array.map (fun (x, y) -> [| x; y |]) pts in
      let cfg = Config.make ~epsilon ~max_grid_shifts:shifts ~seed () in
      let r = Colored.solve_or_point ~cfg ~radius ~dim:2 points ~colors in
      Printf.printf "center: %s\ndistinct colors: %d\n"
        (Point.to_string r.Colored.center)
        r.Colored.value;
      0)

let colored_cmd =
  Cmd.v
    (Cmd.info "colored"
       ~doc:"(1/2-eps)-approximate colored MaxRS (Theorem 1.5).")
    Term.(
      const colored $ input_arg $ radius_arg $ epsilon_arg $ shifts_arg
      $ seed_arg $ stats_arg)

(* ------------------------------------------------------------------ *)
(* exact-disk *)

let exact_disk input radius unweighted deadline strict stats =
  with_stats stats @@ fun () ->
  guarded (fun () ->
      let pts = load_weighted input ~unweighted in
      let pts3 = Array.map (fun (p, w) -> (p.(0), p.(1), w)) pts in
      match Resilient.exact_weighted ?deadline ~radius pts3 with
      | Error e -> invalid e
      | Ok outcome ->
          let r = Outcome.value outcome in
          Printf.printf "center: (%g, %g)\nweight: %g\n" r.Resilient.wx
            r.Resilient.wy r.Resilient.value;
          finish_outcome ~strict ~source:r.Resilient.wsource outcome)

let exact_disk_cmd =
  Cmd.v
    (Cmd.info "exact-disk" ~exits:resilience_exits
       ~doc:"Exact disk MaxRS by angular sweep ([CL86]-style, O(n^2 log n)).")
    Term.(
      const exact_disk $ input_arg $ radius_arg $ unweighted_arg $ deadline_arg
      $ strict_arg $ stats_arg)

(* ------------------------------------------------------------------ *)
(* exact-colored / output-sensitive / approx-colored *)

let output_sensitive input radius shifts seed deadline strict stats =
  with_stats stats @@ fun () ->
  guarded (fun () ->
      let pts, colors = Points_io.load_colored input in
      match deadline with
      | None ->
          let r =
            Output_sensitive.solve ~radius ?max_shifts:shifts ~seed pts ~colors
          in
          Printf.printf "center: (%g, %g)\ndistinct colors: %d\n"
            r.Output_sensitive.x r.Output_sensitive.y r.Output_sensitive.depth;
          Printf.printf "stats: %d shifts, %d cells, %d sweep events\n"
            r.Output_sensitive.stats.Output_sensitive.shifts
            r.Output_sensitive.stats.Output_sensitive.cells_processed
            r.Output_sensitive.stats.Output_sensitive.sweep_events;
          0
      | Some _ -> (
          match
            Resilient.exact_colored ~radius ?max_shifts:shifts ~seed ?deadline
              pts ~colors
          with
          | Error e -> invalid e
          | Ok outcome ->
              let r = Outcome.value outcome in
              Printf.printf
                "center: (%g, %g)\ndistinct colors: %d (verified: %b)\n"
                r.Resilient.x r.Resilient.y r.Resilient.depth
                r.Resilient.verified;
              finish_outcome ~strict ~source:r.Resilient.source outcome))

let output_sensitive_cmd =
  Cmd.v
    (Cmd.info "output-sensitive" ~exits:resilience_exits
       ~doc:"Exact colored disk MaxRS, output-sensitive (Theorem 4.6).")
    Term.(
      const output_sensitive $ input_arg $ radius_arg $ shifts_arg $ seed_arg
      $ deadline_arg $ strict_arg $ stats_arg)

let approx_colored input radius epsilon shifts seed deadline strict stats =
  with_stats stats @@ fun () ->
  guarded (fun () ->
      let pts, colors = Points_io.load_colored input in
      let budget =
        match deadline with
        | None -> Budget.unlimited
        | Some s -> Budget.of_seconds s
      in
      match
        Approx_colored.solve_checked ~radius ~epsilon ?max_shifts:shifts ~seed
          ~budget pts ~colors
      with
      | Error e -> invalid e
      | Ok outcome ->
          let r = Outcome.value outcome in
          Printf.printf
            "center: (%g, %g)\ndistinct colors: %d (estimate was %d)\n"
            r.Approx_colored.x r.Approx_colored.y r.Approx_colored.depth
            r.Approx_colored.estimate;
          (match r.Approx_colored.strategy with
          | Approx_colored.Exact_small ->
              print_endline "strategy: exact (small opt)"
          | Approx_colored.Sampled { lambda; colors_sampled; disks_sampled } ->
              Printf.printf
                "strategy: sampled colors (lambda=%.3f, %d colors, %d disks)\n"
                lambda colors_sampled disks_sampled);
          finish_outcome ~strict ~source:Resilient.Best_so_far outcome)

let approx_colored_cmd =
  Cmd.v
    (Cmd.info "approx-colored" ~exits:resilience_exits
       ~doc:"(1-eps)-approximate colored disk MaxRS (Theorem 1.6).")
    Term.(
      const approx_colored $ input_arg $ radius_arg $ epsilon_arg $ shifts_arg
      $ seed_arg $ deadline_arg $ strict_arg $ stats_arg)

(* ------------------------------------------------------------------ *)
(* solve: unified resilient front door *)

(* Same front door, served remotely: the input is parsed locally (parse
   failures keep exit code 2 without a network round-trip), the solve
   runs on a maxrs_serverd daemon, and output and exit codes match the
   local path byte for byte — answers travel as IEEE-754 bit patterns,
   so the printed floats are the solver's exact bits. *)

let source_of_proto = function
  | Sproto.Exact -> Resilient.Exact
  | Sproto.Approx_fallback -> Resilient.Approx_fallback
  | Sproto.Best_so_far -> Resilient.Best_so_far

let remote_solve addr input radius shifts seed colored_in unweighted deadline
    strict =
  guarded (fun () ->
      let client = Sclient.create addr in
      let fail_remote e =
        match e with
        | Sclient.Server { code = Sproto.Invalid; msg; _ } ->
            (* The server ran the same Guard checks the local path
               would have: same message, same exit code. *)
            Printf.eprintf "maxrs: %s\n" msg;
            exit_invalid_input
        | e ->
            Printf.eprintf "maxrs: remote solve failed: %s\n"
              (Sclient.error_to_string e);
            1
      in
      if colored_in then begin
        let pts, colors = Points_io.load_colored input in
        match
          Sclient.solve_colored ?deadline ?max_shifts:shifts ~seed client
            ~radius pts ~colors
        with
        | Error e -> fail_remote e
        | Ok outcome ->
            let a = Outcome.value outcome in
            Printf.printf
              "center: (%g, %g)\ndistinct colors: %d (verified: %b)\n"
              a.Sproto.x a.Sproto.y
              (Float.to_int a.Sproto.value)
              a.Sproto.verified;
            finish_outcome ~strict
              ~source:(source_of_proto a.Sproto.source)
              outcome
      end
      else begin
        let pts = load_weighted input ~unweighted in
        let pts3 = Array.map (fun (p, w) -> (p.(0), p.(1), w)) pts in
        match Sclient.solve_weighted ?deadline client ~radius pts3 with
        | Error e -> fail_remote e
        | Ok outcome ->
            let a = Outcome.value outcome in
            Printf.printf "center: (%g, %g)\nweight: %g\n" a.Sproto.x
              a.Sproto.y a.Sproto.value;
            finish_outcome ~strict
              ~source:(source_of_proto a.Sproto.source)
              outcome
      end)

let solve input radius shifts seed colored_in unweighted deadline strict stats
    remote =
  match remote with
  | Some addr ->
      with_stats stats @@ fun () ->
      remote_solve addr input radius shifts seed colored_in unweighted deadline
        strict
  | None ->
  with_stats stats @@ fun () ->
  guarded (fun () ->
      if colored_in then begin
        let pts, colors = Points_io.load_colored input in
        match
          Resilient.exact_colored ~radius ?max_shifts:shifts ~seed ?deadline
            pts ~colors
        with
        | Error e -> invalid e
        | Ok outcome ->
            let r = Outcome.value outcome in
            Printf.printf
              "center: (%g, %g)\ndistinct colors: %d (verified: %b)\n"
              r.Resilient.x r.Resilient.y r.Resilient.depth
              r.Resilient.verified;
            finish_outcome ~strict ~source:r.Resilient.source outcome
      end
      else begin
        let pts = load_weighted input ~unweighted in
        let pts3 = Array.map (fun (p, w) -> (p.(0), p.(1), w)) pts in
        match Resilient.exact_weighted ?deadline ~radius pts3 with
        | Error e -> invalid e
        | Ok outcome ->
            let r = Outcome.value outcome in
            Printf.printf "center: (%g, %g)\nweight: %g\n" r.Resilient.wx
              r.Resilient.wy r.Resilient.value;
            finish_outcome ~strict ~source:r.Resilient.wsource outcome
      end)

let solve_cmd =
  let colored_in =
    Arg.(
      value & flag
      & info [ "colored" ]
          ~doc:
            "Input rows are x,y,color; solve the colored problem (exact \
             output-sensitive solver, Theorem 4.6) instead of the weighted \
             one.")
  in
  let remote =
    let addr_conv =
      Arg.conv
        ( (fun s ->
            match Netio.addr_of_string s with
            | Ok a -> Ok a
            | Error m -> Error (`Msg m)),
          fun ppf a -> Format.pp_print_string ppf (Netio.addr_to_string a) )
    in
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "remote" ] ~docv:"ADDR"
          ~doc:
            "Solve on a running $(b,maxrs_serverd) at $(docv) \
             ($(b,unix:/path) or $(b,host:port)) instead of in-process. \
             Output and exit codes match the local path.")
  in
  Cmd.v
    (Cmd.info "solve" ~exits:resilience_exits
       ~doc:
         "Unified front door: the exact solver under an optional deadline, \
          degrading to the matching near-linear approximation on expiry \
          (weighted: Theorem 1.2 fallback; colored: Theorem 1.6 fallback).")
    Term.(
      const solve $ input_arg $ radius_arg $ shifts_arg $ seed_arg $ colored_in
      $ unweighted_arg $ deadline_arg $ strict_arg $ stats_arg $ remote)

(* ------------------------------------------------------------------ *)
(* batched (1-D) and bsei *)

let batched input lens =
  guarded (fun () ->
      let pts = load_1d input in
      let lens = Array.of_list lens in
      match Interval1d.batched_checked ~lens pts with
      | Error e -> invalid e
      | Ok results ->
          Array.iteri
            (fun i p ->
              Printf.printf "L=%g: weight %g at [%g, %g]\n" lens.(i)
                p.Interval1d.value p.Interval1d.lo
                (p.Interval1d.lo +. lens.(i)))
            results;
          0)

let batched_cmd =
  let lens =
    Arg.(
      non_empty
      & opt (list float) []
      & info [ "lens" ] ~docv:"L1,L2,..." ~doc:"Interval lengths.")
  in
  Cmd.v
    (Cmd.info "batched"
       ~doc:"Batched 1-D MaxRS (the O(n log n + mn) upper bound of Thm 1.3).")
    Term.(const batched $ input_arg $ lens)

let bsei input ks =
  guarded (fun () ->
      let pts = Array.map fst (load_1d input) in
      (match ks with
      | [] ->
          let g = Guard.ok_exn (Bsei.batched_checked pts) in
          Array.iteri
            (fun i len -> Printf.printf "k=%d: length %g\n" (i + 1) len)
            g
      | ks ->
          List.iter
            (fun k ->
              let iv = Guard.ok_exn (Bsei.smallest_checked pts ~k) in
              Printf.printf "k=%d: [%g, %g] length %g\n" k iv.Bsei.lo
                iv.Bsei.hi (Bsei.length iv))
            ks);
      0)

let bsei_cmd =
  let ks =
    Arg.(
      value
      & opt (list int) []
      & info [ "k" ] ~docv:"K1,K2,..."
          ~doc:"Specific k values (default: all, the batched problem).")
  in
  Cmd.v
    (Cmd.info "bsei" ~doc:"Smallest k-enclosing interval (Theorem 1.4 setting).")
    Term.(const bsei $ input_arg $ ks)

(* ------------------------------------------------------------------ *)
(* rect / box / colored-rect / batched-disks / dynamic *)

let rect input width height unweighted =
  guarded (fun () ->
      let pts = load_weighted input ~unweighted in
      let pts3 = Array.map (fun (p, w) -> (p.(0), p.(1), w)) pts in
      let r = Rect2d.max_sum ~width ~height pts3 in
      Printf.printf "center: (%g, %g)\nweight: %g\n" r.Rect2d.x r.Rect2d.y
        r.Rect2d.value;
      0)

let width_arg =
  Arg.(value & opt float 1. & info [ "width" ] ~docv:"W" ~doc:"Rectangle width.")

let height_arg =
  Arg.(
    value & opt float 1. & info [ "height" ] ~docv:"H" ~doc:"Rectangle height.")

let rect_cmd =
  Cmd.v
    (Cmd.info "rect"
       ~doc:"Exact rectangle MaxRS ([IA83, NB95] sweep, O(n log n)).")
    Term.(const rect $ input_arg $ width_arg $ height_arg $ unweighted_arg)

let box input widths unweighted =
  guarded (fun () ->
      let pts = load_weighted input ~unweighted in
      let widths = Array.of_list widths in
      let r = Boxd.max_sum ~widths pts in
      Printf.printf "center: %s\nweight: %g\n" (Point.to_string r.Boxd.point)
        r.Boxd.value;
      0)

let box_cmd =
  let widths =
    Arg.(
      non_empty
      & opt (list float) []
      & info [ "widths" ] ~docv:"W1,W2,..." ~doc:"Box side lengths (one per dimension).")
  in
  Cmd.v
    (Cmd.info "box" ~doc:"Exact d-box MaxRS (candidate recursion).")
    Term.(const box $ input_arg $ widths $ unweighted_arg)

let colored_rect input width height epsilon exact seed =
  guarded (fun () ->
  let pts, colors = Points_io.load_colored input in
  if exact then begin
    let r = Colored_rect2d.max_colored ~width ~height pts ~colors in
    Printf.printf "center: (%g, %g)\ndistinct colors: %d\n" r.Colored_rect2d.x
      r.Colored_rect2d.y r.Colored_rect2d.value
  end
  else begin
    let r =
      Approx_colored_rect.solve ~width ~height ~epsilon ~seed pts ~colors
    in
    Printf.printf "center: (%g, %g)\ndistinct colors: %d (estimate %d)\n"
      r.Approx_colored_rect.x r.Approx_colored_rect.y
      r.Approx_colored_rect.depth r.Approx_colored_rect.estimate;
    match r.Approx_colored_rect.strategy with
    | Approx_colored_rect.Exact_small ->
        print_endline "strategy: exact (small opt)"
    | Approx_colored_rect.Sampled { lambda; colors_sampled; disks_sampled } ->
        Printf.printf
          "strategy: sampled colors (lambda=%.3f, %d colors, %d points)\n"
          lambda colors_sampled disks_sampled
  end;
  0)

let colored_rect_cmd =
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ] ~doc:"Run the exact O(n^2 log n) solver instead of \
                               the color-sampling pipeline.")
  in
  Cmd.v
    (Cmd.info "colored-rect"
       ~doc:
         "Colored rectangle MaxRS ([ZGH+22] problem): exact solver or the \
          open-problem color-sampling pipeline.")
    Term.(
      const colored_rect $ input_arg $ width_arg $ height_arg $ epsilon_arg
      $ exact $ seed_arg)

let batched_disks input radii unweighted =
  guarded (fun () ->
      let pts = load_weighted input ~unweighted in
      let pts3 = Array.map (fun (p, w) -> (p.(0), p.(1), w)) pts in
      let radii = Array.of_list radii in
      let results =
        Array.map (fun radius -> Disk2d.max_weight ~radius pts3) radii
      in
      Array.iteri
        (fun i r ->
          Printf.printf "r=%g: weight %g at (%g, %g)\n" radii.(i)
            r.Disk2d.value r.Disk2d.x r.Disk2d.y)
        results;
      0)

let batched_disks_cmd =
  let radii =
    Arg.(
      non_empty
      & opt (list float) []
      & info [ "radii" ] ~docv:"R1,R2,..." ~doc:"Disk radii.")
  in
  Cmd.v
    (Cmd.info "batched-disks"
       ~doc:"Batched disk MaxRS, O(mn^2) (Section 7 upper bound).")
    Term.(const batched_disks $ input_arg $ radii $ unweighted_arg)

let dynamic input radius epsilon shifts seed dim verify =
  guarded (fun () ->
  let ops = Trace.load input in
  let cfg = Config.make ~epsilon ~max_grid_shifts:shifts ~seed () in
  if verify then begin
    let steps = Trace.replay_with_check ~cfg ~radius ~dim ops in
    List.iter
      (fun ((s : Trace.step), verified) ->
        match s.Trace.best with
        | Some (p, v) ->
            Printf.printf "op %d: live=%d best=%g at %s (verified depth %g)\n"
              s.Trace.op_index s.Trace.live v (Point.to_string p) verified
        | None ->
            Printf.printf "op %d: live=%d best=-\n" s.Trace.op_index
              s.Trace.live)
      steps
  end
  else begin
    let dyn = Dynamic.create ~cfg ~radius ~dim () in
    let steps = Trace.replay dyn ops in
    List.iter
      (fun (s : Trace.step) ->
        match s.Trace.best with
        | Some (p, v) ->
            Printf.printf "op %d: live=%d best=%g at %s\n" s.Trace.op_index
              s.Trace.live v (Point.to_string p)
        | None ->
            Printf.printf "op %d: live=%d best=-\n" s.Trace.op_index
              s.Trace.live)
      steps
  end;
  0)

let dynamic_cmd =
  let dim =
    Arg.(value & opt int 2 & info [ "dim" ] ~docv:"D" ~doc:"Dimension.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Recompute the true depth of every reported placement.")
  in
  Cmd.v
    (Cmd.info "dynamic"
       ~doc:
         "Replay a dynamic trace file (+/w/-/? lines) through the Theorem \
          1.1 structure.")
    Term.(
      const dynamic $ input_arg $ radius_arg $ epsilon_arg $ shifts_arg
      $ seed_arg $ dim $ verify)

(* ------------------------------------------------------------------ *)
(* session: crash-safe dynamic structure (WAL + snapshots + recovery) *)

let session wal input snapshot_every fsync_kind fsync_interval linger
    final_snapshot radius epsilon shifts seed dim shards domains stats =
  with_stats stats @@ fun () ->
  guarded (fun () ->
      let fsync =
        match fsync_kind with
        | `Always -> Wal.Always
        | `Never -> Wal.Never
        | `Interval -> Wal.Interval (Int.max 1 fsync_interval)
      in
      let cfg = Config.make ~epsilon ~max_grid_shifts:shifts ~seed () in
      match
        Session.open_ ~wal ?shards ?domains ~snapshot_every ~fsync ~dim ~radius
          ~cfg ()
      with
      | Error msg ->
          Printf.eprintf "maxrs: %s\n" msg;
          exit_invalid_input
      | Ok sess ->
          (* Handlers only set a flag; the op loop and the linger loop
             poll it, so the WAL is never torn by our own signal exit —
             we stop between ops, flush, and leave with code 5. *)
          let interrupted = ref false in
          let handler = Sys.Signal_handle (fun _ -> interrupted := true) in
          let prev_int = Sys.signal Sys.sigint handler in
          let prev_term = Sys.signal Sys.sigterm handler in
          Fun.protect
            ~finally:(fun () ->
              Session.flush sess;
              Sys.set_signal Sys.sigint prev_int;
              Sys.set_signal Sys.sigterm prev_term)
            (fun () ->
              (* Flushed eagerly so a supervisor watching the stream sees
                 the session come up before it starts lingering. *)
              (match Session.shards sess with
              | 1 -> ()
              | k -> Printf.printf "session: sharded over %d WALs\n" k);
              (match Session.recovery sess with
              | None -> Printf.printf "session: fresh log at %s\n%!" wal
              | Some r ->
                  Printf.printf
                    "session: recovered seq=%d (snapshot=%s, replayed=%d, \
                     truncated=%dB%s%s)\n"
                    r.Session.seq
                    (match r.Session.snapshot_seq with
                    | Some s -> string_of_int s
                    | None -> "none")
                    r.Session.replayed r.Session.truncated_bytes
                    (match r.Session.corruption with
                    | Some c -> ", " ^ c
                    | None -> "")
                    (if r.Session.wal_rewritten then ", log rewritten" else "");
                  flush stdout);
              let interrupted_exit () =
                Session.flush sess;
                Session.close sess;
                Printf.eprintf "maxrs: interrupted; WAL flushed at seq=%d\n"
                  (Session.seq sess);
                exit_interrupted
              in
              try
                (match input with
                | None -> ()
                | Some path ->
                    let ops = Trace.load path in
                    Array.iteri
                      (fun i op ->
                        if !interrupted then raise Stdlib.Exit;
                        match op with
                        | Trace.Insert (p, w) ->
                            ignore
                              (Session.insert sess ~weight:w p : Dynamic.handle)
                        | Trace.Delete h -> (
                            try Session.delete sess (Dynamic.handle_of_id h)
                            with Not_found ->
                              Guard.ok_exn
                                (Guard.invalid ~index:i ~field:"delete"
                                   (Printf.sprintf "handle %d is not live" h)))
                        | Trace.Query -> (
                            match Session.best sess with
                            | Some (p, v) ->
                                Printf.printf "op %d: live=%d best=%g at %s\n"
                                  i (Session.size sess) v (Point.to_string p)
                            | None ->
                                Printf.printf "op %d: live=%d best=-\n" i
                                  (Session.size sess)))
                      ops);
                let t0 = Unix.gettimeofday () in
                while (not !interrupted) && Unix.gettimeofday () -. t0 < linger
                do
                  Unix.sleepf 0.02
                done;
                if !interrupted then raise Stdlib.Exit;
                if final_snapshot then Session.snapshot_now sess;
                (match Session.best sess with
                | Some (p, v) ->
                    Printf.printf "final: seq=%d live=%d best=%g at %s\n"
                      (Session.seq sess) (Session.size sess) v
                      (Point.to_string p)
                | None ->
                    Printf.printf "final: seq=%d live=%d best=-\n"
                      (Session.seq sess) (Session.size sess));
                Session.close sess;
                0
              with Stdlib.Exit -> interrupted_exit ()))

let session_cmd =
  let wal =
    Arg.(
      required
      & opt (some string) None
      & info [ "wal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead log path. If the file exists the session recovers \
             from it (newest valid snapshot plus WAL replay) and continues; \
             its recorded dimension/radius/config win over the flags below.")
  in
  let input =
    Arg.(
      value
      & opt (some file) None
      & info [ "i"; "input" ] ~docv:"FILE"
          ~doc:
            "Trace file of +/w/-/? ops to feed the session. Unlike \
             $(b,dynamic), $(b,- i) deletes the point created by the i-th \
             insert (handle i), which stays meaningful across restarts.")
  in
  let snapshot_every =
    Arg.(
      value & opt int 1000
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:"Ops between automatic snapshots (0 disables them).")
  in
  let fsync_kind =
    Arg.(
      value
      & opt (enum [ ("always", `Always); ("interval", `Interval); ("never", `Never) ]) `Interval
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:
            "WAL durability: $(b,always) fsyncs every append, $(b,interval) \
             every $(b,--fsync-interval) appends, $(b,never) only on exit.")
  in
  let fsync_interval =
    Arg.(
      value & opt int 64
      & info [ "fsync-interval" ] ~docv:"K"
          ~doc:"Appends between fsyncs under $(b,--fsync interval).")
  in
  let linger =
    Arg.(
      value & opt float 0.
      & info [ "linger" ] ~docv:"SECS"
          ~doc:
            "Stay alive this long after processing the trace (for driving \
             the session with signals).")
  in
  let final_snapshot =
    Arg.(
      value & flag
      & info [ "final-snapshot" ]
          ~doc:"Write a full snapshot before exiting cleanly.")
  in
  let dim =
    Arg.(value & opt int 2 & info [ "dim" ] ~docv:"D" ~doc:"Dimension.")
  in
  let shards =
    Arg.(
      value & opt (some int) None
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Shard the session over $(docv) per-shard WALs (answers stay \
             bit-identical to a solo session; recovery scans the shard logs \
             in parallel). An existing layout at $(b,--wal) reopens with its \
             on-disk shard count regardless of this flag.")
  in
  let domains =
    Arg.(
      value & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker-pool bound for a sharded session (default: \
             $(b,MAXRS_DOMAINS) or the core count).")
  in
  Cmd.v
    (Cmd.info "session" ~exits:resilience_exits
       ~doc:
         "Crash-safe dynamic MaxRS session: every update is journaled to a \
          checksummed write-ahead log, snapshots are written atomically, and \
          restarting on the same $(b,--wal) recovers the structure \
          bit-identically to the surviving op prefix.")
    Term.(
      const session $ wal $ input $ snapshot_every $ fsync_kind
      $ fsync_interval $ linger $ final_snapshot $ radius_arg $ epsilon_arg
      $ shifts_arg $ seed_arg $ dim $ shards $ domains $ stats_arg)

(* ------------------------------------------------------------------ *)
(* depth-map: rasterize the (weighted or colored) depth function *)

let depth_map input radius cells colored out =
  let emit oc pts eval =
    let xs = Array.map fst pts and ys = Array.map snd pts in
    let min_a a = Array.fold_left Float.min a.(0) a in
    let max_a a = Array.fold_left Float.max a.(0) a in
    let x0 = min_a xs -. radius and x1 = max_a xs +. radius in
    let y0 = min_a ys -. radius and y1 = max_a ys +. radius in
    let fx = (x1 -. x0) /. float_of_int cells in
    let fy = (y1 -. y0) /. float_of_int cells in
    Printf.fprintf oc "# x,y,depth (grid %dx%d over [%g,%g]x[%g,%g])\n" cells
      cells x0 x1 y0 y1;
    for i = 0 to cells - 1 do
      for j = 0 to cells - 1 do
        let x = x0 +. ((float_of_int i +. 0.5) *. fx) in
        let y = y0 +. ((float_of_int j +. 0.5) *. fy) in
        Printf.fprintf oc "%g,%g,%g\n" x y (eval x y)
      done
    done
  in
  guarded (fun () ->
      with_out out (fun oc ->
          if colored then begin
            let pts, colors = Points_io.load_colored input in
            emit oc pts (fun x y ->
                float_of_int
                  (Colored_disk2d.colored_depth_at ~radius pts ~colors x y))
          end
          else begin
            let wpts = load_weighted input ~unweighted:false in
            let pts = Array.map (fun (p, _) -> (p.(0), p.(1))) wpts in
            let pts3 = Array.map (fun (p, w) -> (p.(0), p.(1), w)) wpts in
            emit oc pts (fun x y -> Disk2d.depth_at ~radius pts3 x y)
          end);
      0)

let depth_map_cmd =
  let cells =
    Arg.(
      value & opt int 64
      & info [ "cells" ] ~docv:"K" ~doc:"Raster resolution (K x K).")
  in
  let colored_flag =
    Arg.(
      value & flag
      & info [ "colored" ] ~doc:"Input is colored (x,y,color); plot \
                                 distinct-color depth.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output CSV (default stdout).")
  in
  Cmd.v
    (Cmd.info "depth-map"
       ~doc:
         "Rasterize the depth function of the dual disks over the data's \
          bounding box — a hotspot heat map as x,y,depth CSV.")
    Term.(
      const depth_map $ input_arg $ radius_arg $ cells $ colored_flag $ out)

(* ------------------------------------------------------------------ *)
(* convolution demo *)

let convolution n seed via =
  let rng = Rng.create seed in
  let a = Array.init n (fun _ -> Rng.int rng 200 - 100) in
  let b = Array.init n (fun _ -> Rng.int rng 200 - 100) in
  let reference = Convolution.min_plus a b in
  let result =
    match via with
    | "naive" -> reference
    | "maxrs" ->
        Reductions.min_plus_via_batched_maxrs
          ~oracle:Reductions.default_batched_maxrs_oracle a b
    | "bsei" -> Bsei.min_plus_via_bsei a b
    | v -> failwith (Printf.sprintf "unknown oracle %S (naive|maxrs|bsei)" v)
  in
  Printf.printf "n=%d via %s: %s\n" n via
    (if result = reference then "matches naive (min,+)-convolution"
     else "MISMATCH");
  if result = reference then 0 else 1

let convolution_cmd =
  let n = Arg.(value & opt int 256 & info [ "n" ] ~docv:"N" ~doc:"Length.") in
  let via =
    Arg.(
      value & opt string "maxrs"
      & info [ "via" ] ~docv:"ORACLE" ~doc:"naive | maxrs | bsei.")
  in
  Cmd.v
    (Cmd.info "convolution"
       ~doc:"Run (min,+)-convolution through a hardness-reduction chain.")
    Term.(const convolution $ n $ seed_arg $ via)

(* ------------------------------------------------------------------ *)
(* query: the RMSQ read tier over a durable session's WAL *)

let query wal from_snapshot range len top verify stats =
  with_stats stats @@ fun () ->
  guarded (fun () ->
      let lens = match len with Some l -> [| l |] | None -> [||] in
      let t0 = Unix.gettimeofday () in
      let compiled =
        if from_snapshot then
          (* strictly the newest decodable snapshot — no WAL replay *)
          match Index_builder.of_snapshot ~lens ~wal () with
          | Error msg ->
              Printf.eprintf "maxrs: %s\n" msg;
              None
          | Ok e -> Some (e.Qepoch.built_seq, e.Qepoch.index)
        else
          (* full crash recovery (snapshot + WAL replay), then compile *)
          match Session.open_ ~wal () with
          | Error msg ->
              Printf.eprintf "maxrs: cannot open session: %s\n" msg;
              None
          | Ok sess ->
              let seq = Session.seq sess in
              let st = Session.state sess in
              Session.close sess;
              Some (seq, Rmsq.of_state ~lens st)
      in
      match compiled with
      | None -> exit_invalid_input
      | Some (seq, t) ->
          let build_ms = (Unix.gettimeofday () -. t0) *. 1000. in
          Printf.printf "index: n=%d seq=%d build=%.1fms bits/point=%.1f\n"
            (Rmsq.n t) seq build_ms (Rmsq.bits_per_point t);
          let print_seg what = function
            | None -> Printf.printf "%s: empty\n" what
            | Some s ->
                Printf.printf "%s: elements [%d..%d] sum=%g (x in [%g, %g])\n"
                  what s.Rmsq.s_lo s.Rmsq.s_hi s.Rmsq.s_sum
                  (Rmsq.coord t s.Rmsq.s_lo)
                  (Rmsq.coord t s.Rmsq.s_hi)
          in
          if top || (range = None && len = None) then
            print_seg "top" (Rmsq.top_segment t);
          (match range with
          | None -> ()
          | Some (lo, hi) ->
              print_seg
                (Printf.sprintf "range [%g, %g]" lo hi)
                (Rmsq.max_sum_in_coords t ~lo ~hi));
          (match len with
          | None -> ()
          | Some l -> (
              match Rmsq.interval t ~len:l with
              | Some p ->
                  Printf.printf "interval len=%g: lo=%g value=%g (compiled)\n"
                    l p.Interval1d.lo p.Interval1d.value
              | None ->
                  let p = Rmsq.interval_sweep t ~len:l in
                  Printf.printf "interval len=%g: lo=%g value=%g (sweep)\n" l
                    p.Interval1d.lo p.Interval1d.value));
          if not verify then 0
          else begin
            (* Differential audit: indexed answers vs the index-free
               reference on a deterministic family of overlapping
               ranges (plus the compiled lengths vs the sweep), all
               required bit-identical. *)
            let n = Rmsq.n t in
            let bits = Int64.bits_of_float in
            let checked = ref 0 and failed = ref 0 in
            let check_range ~lo ~hi =
              incr checked;
              let got = Rmsq.max_sum_in_range t ~lo ~hi in
              let want = Rmsq.range_ref t ~lo ~hi in
              let same =
                match (got, want) with
                | None, None -> true
                | Some g, Some w ->
                    g.Rmsq.s_lo = w.Rmsq.s_lo
                    && g.Rmsq.s_hi = w.Rmsq.s_hi
                    && bits g.Rmsq.s_sum = bits w.Rmsq.s_sum
                | _ -> false
              in
              if not same then begin
                incr failed;
                Printf.eprintf "maxrs: verify FAILED on range [%d, %d]\n" lo hi
              end
            in
            let step = Int.max 1 (n / 16) in
            let i = ref 0 in
            while !i < n do
              let j = ref !i in
              while !j < n do
                check_range ~lo:!i ~hi:!j;
                j := !j + step
              done;
              check_range ~lo:!i ~hi:(n - 1);
              i := !i + step
            done;
            Array.iter
              (fun l ->
                incr checked;
                match Rmsq.interval t ~len:l with
                | None -> incr failed
                | Some p ->
                    let s = Rmsq.interval_sweep t ~len:l in
                    if
                      bits p.Interval1d.value <> bits s.Interval1d.value
                      || bits p.Interval1d.lo <> bits s.Interval1d.lo
                    then begin
                      incr failed;
                      Printf.eprintf "maxrs: verify FAILED on len=%g\n" l
                    end)
              (Rmsq.lens t);
            if !failed = 0 then begin
              Printf.printf "verify: OK (%d queries bit-identical)\n" !checked;
              0
            end
            else begin
              Printf.eprintf "maxrs: verify: %d/%d queries diverged\n" !failed
                !checked;
              1
            end
          end)

let query_cmd =
  let wal =
    Arg.(
      required
      & opt (some string) None
      & info [ "wal" ] ~docv:"FILE"
          ~doc:
            "WAL of the durable session to compile the index from (the \
             session is recovered exactly as $(b,session) would, then \
             compiled and closed).")
  in
  let from_snapshot =
    Arg.(
      value & flag
      & info [ "from-snapshot" ]
          ~doc:
            "Compile strictly from the newest decodable snapshot sidecar \
             (no WAL replay) — the builder's snapshot path.")
  in
  let range =
    Arg.(
      value
      & opt (some (pair ~sep:':' float float)) None
      & info [ "range" ] ~docv:"LO:HI"
          ~doc:
            "Answer the max-sum segment over points with coordinate in \
             [LO, HI] (closed).")
  in
  let len =
    Arg.(
      value
      & opt (some float) None
      & info [ "len" ] ~docv:"L"
          ~doc:
            "Also answer the fixed-length interval question for length \
             $(docv) (compiled into the index at build time).")
  in
  let top =
    Arg.(
      value & flag
      & info [ "top" ]
          ~doc:
            "Print the global top segment (default when no other question \
             is asked).")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Audit the index: answer a deterministic family of overlapping \
             ranges both through the index and through the index-free \
             reference scan and require bit-identical results; nonzero exit \
             on any divergence.")
  in
  Cmd.v
    (Cmd.info "query" ~exits:resilience_exits
       ~doc:
         "Compile the succinct RMSQ read-tier index from a durable \
          session's WAL/snapshots and answer arbitrary-range max-sum \
          queries in O(log n), bit-identical to the reference sweep.")
    Term.(
      const query $ wal $ from_snapshot $ range $ len $ top $ verify
      $ stats_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "maximum range sum algorithms (PODS 2025 reproduction)" in
  let info = Cmd.info "maxrs" ~version:"1.0.0" ~doc ~exits:resilience_exits in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            generate_cmd;
            solve_cmd;
            static_cmd;
            colored_cmd;
            exact_disk_cmd;
            output_sensitive_cmd;
            approx_colored_cmd;
            batched_cmd;
            bsei_cmd;
            convolution_cmd;
            rect_cmd;
            box_cmd;
            colored_rect_cmd;
            batched_disks_cmd;
            dynamic_cmd;
            session_cmd;
            query_cmd;
            depth_map_cmd;
          ]))
