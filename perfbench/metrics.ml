(* The metric sets, in the order they are printed. BENCHMARK.json
   declares exactly these names and units. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("peak_rss_mb", "MB");
    ("quality_ratio", "ratio");
  ]

(* Printed beside the end-to-end set but left out of the result: on
   serve_reads its run-to-run spread follows host scheduling noise
   (IQR/median 0.49 over five seeds on a shared 2-vCPU host), beyond
   any bound the result may carry. *)
let printed_only = [ "p99_ms" ]

let pct name u = [ (name ^ ".p50", u); (name ^ ".p99", u) ]

let gc_kinds =
  [ "insert"; "delete"; "best"; "range_sum"; "query"; "weighted"; "static"; "interval"; "colored" ]

let per_layer =
  List.concat
    [
      (* durable *)
      pct "session.insert_us" "us";
      pct "session.delete_us" "us";
      pct "session.journal_us" "us";
      [ ("wal.records_per_op", "count"); ("wal.bytes_per_op", "B"); ("wal.fsyncs", "count") ];
      pct "session.fsync_op_us" "us";
      [
        ("snapshot.writes", "count");
        ("snapshot.bytes", "B");
        ("snapshot.op_ms", "ms");
        ("snapshot.capture_ms", "ms");
        ("snapshot.encode_ms", "ms");
        ("snapshot.write_ms", "ms");
        ("session.open_ms", "ms");
        ("wal.scan_ms", "ms");
        ("snapshot.load_ms", "ms");
        ("snapshot.decoded", "count");
        ("snapshot.used_share", "ratio");
        ("dynamic.restore_ms", "ms");
        ("recovery.replayed", "count");
        ("recovery.replay_ms", "ms");
      ];
      (* core *)
      pct "dynamic.insert_us" "us";
      pct "dynamic.delete_us" "us";
      pct "dynamic.best_us" "us";
      [
        ("samples.visited_per_write", "count");
        ("grid.cells_per_write", "count");
        ("dynamic.epochs", "count");
      ];
      pct "static.solve_ms" "ms";
      [ ("samples.drawn_per_static", "count") ];
      (* core + union *)
      pct "colored.solve_ms" "ms";
      [ ("os.sweep_events_per_colored", "count"); ("os.cells_per_colored", "count") ];
      (* sweep *)
      pct "weighted.solve_ms" "ms";
      [
        ("sweep.events_per_weighted", "count");
        ("sweep.circles_per_weighted", "count");
        ("kd.visits_per_weighted", "count");
      ];
      pct "interval.solve_ms" "ms";
      [ ("sweep.interval1d.events_per_interval", "count") ];
      (* server *)
      pct "proto.decode_us" "us";
      pct "proto.encode_us" "us";
      pct "netio.frame_us" "us";
      [
        ("proto.request_bytes", "B");
        ("proto.reply_bytes", "B");
        ("server.handoff_us", "us");
        ("server.stats_p50_us", "us");
        ("server.stats_p99_us", "us");
        ("server.refused", "count");
      ];
      (* query *)
      pct "rmsq.query_us" "us";
      [
        ("index.capture_ms", "ms");
        ("rmsq.compile_ms", "ms");
        ("rmsq.bits_per_point", "bit");
        ("rmsq.builds", "count");
        ("index.cold_replies", "count");
      ];
      (* all layers *)
      List.concat_map
        (fun k ->
          [
            ("gc.minor_words_per_op." ^ k, "words");
            ("gc.promoted_words_per_op." ^ k, "words");
          ])
        gc_kinds;
      [ ("replay.top_heap_mb", "MB"); ("trace.overhead_pct", "%"); ("trace.reconcile_pct", "%") ];
    ]

(* A measured value with the sample count behind it, when it is an
   order statistic. *)
type v = { value : float; n : int option }

let one x = { value = x; n = None }

(* [name.p50] and [name.p99] of durations in seconds, scaled to the
   metric's unit. *)
let pcts name ~scale xs =
  let n = Some (Array.length xs) in
  [
    (name ^ ".p50", { value = Util.quantile xs 0.5 *. scale; n });
    (name ^ ".p99", { value = Util.quantile xs 0.99 *. scale; n });
  ]

let emit set values =
  List.map
    (fun (name, u) ->
      match List.assoc_opt name values with
      | Some { value; n } -> Util.metric ?samples:n name u value
      | None -> Util.metric ~samples:0 name u 0.)
    set
