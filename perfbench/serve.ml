(* Workloads [serve_reads] and [solve_mix]: the unmodified maxrs_serverd
   binary over one Unix-socket connection, driven as a closed loop.

   Set-up is timed from spawning the daemon until it is ready on its
   initial state; the timed phase sends one request at a time for the
   run's seconds. Replies are kept and checked after timing against
   answers computed locally before the daemon started. The traced
   variant adds an in-process replay of the same requests through what
   the daemon's request path calls. *)

module Proto = Maxrs_server.Proto
module Netio = Maxrs_server.Netio
module Session = Maxrs_durable.Session
module Interval1d = Maxrs_sweep.Interval1d
module Rmsq = Maxrs_query.Rmsq
module Epoch = Maxrs_query.Epoch
module Obs = Maxrs_obs.Obs

let sock = "d.sock"

(* Spawn the daemon (with the session configuration passed explicitly
   when it serves a WAL) and connect once it logs [listening on].
   Returns the pid, the connection, and the spawn time. *)
let start_daemon ~serverd ~size ~wal =
  let log = "d.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let session_args =
    match wal with
    | None -> []
    | Some w ->
        [
          "--wal"; w; "--fsync"; "interval"; "--fsync-interval"; string_of_int Gen.fsync_interval;
          "--snapshot-every"; string_of_int (Gen.snapshot_every size);
        ]
  in
  let t_spawn = Util.now () in
  let pid =
    Proc.spawn ~stdout:fd ~stderr:fd ~label:"maxrs_serverd" serverd
      ([ "serve"; "--addr"; "unix:" ^ sock ] @ session_args)
  in
  Unix.close fd;
  match Proc.wait_for_line ~pid ~log ~needle:"listening on" ~timeout:150. with
  | Error m -> failwith (Printf.sprintf "%s %s" serverd m)
  | Ok () -> (
      match Wire.connect sock with
      | Ok conn -> (pid, conn, t_spawn)
      | Error m -> failwith ("connect: " ^ m ^ "\n" ^ Proc.tail log ~lines:20))

let stop_daemon (pid, conn) =
  Wire.close conn;
  Proc.stop pid

(* The daemon's round trips, its [Stats], and set-up figures. *)
type 'a daemon_run = {
  setups : float array;
  waits : float array;  (** the harness's own waiting within each set-up *)
  cold : int;  (** warm-up [Range_sum] replies answered by the cold path, over all set-ups *)
  log : (Proto.request * 'a * (Proto.reply, string) result) array;
  lat : float array;
  wall : float;
  hwm : float;
  stats : Proto.server_stats option;
}

(* [reps] daemons set up from scratch (the set-up time is their
   median); the last one carries the timed phase. *)
let daemon_run ~serverd ~size ~wal ~reps ~warm ~next ~seconds =
  let setups = Array.make reps 0. and waits = Array.make reps 0. and cold = ref 0 in
  let rec go k =
    Option.iter (fun (src, dst) -> Proc.copy_dir src dst) wal;
    let pid, conn, t_spawn =
      start_daemon ~serverd ~size ~wal:(Option.map (fun (_, dst) -> Prep.wal_in dst) wal)
    in
    let c, wait = warm conn in
    setups.(k) <- Util.now () -. t_spawn;
    waits.(k) <- wait;
    cold := !cold + c;
    if k < reps - 1 then begin
      stop_daemon (pid, conn);
      Option.iter (fun (_, dst) -> Proc.rm_rf dst) wal;
      go (k + 1)
    end
    else (pid, conn)
  in
  let pid, conn = go 0 in
  let lat = Util.Fcol.create () and log = ref [] in
  let t0 = Util.now () in
  while Util.now () -. t0 < seconds do
    let req, tag = next () in
    let r, dt = Wire.timed_call conn req in
    Util.Fcol.push lat dt;
    log := (req, tag, r) :: !log
  done;
  let wall = Util.now () -. t0 in
  let hwm = Proc.vm_hwm_mb pid in
  let stats = match Wire.call conn Proto.Stats with Ok (Proto.Stats_reply s) -> Some s | _ -> None in
  stop_daemon (pid, conn);
  Option.iter (fun (_, dst) -> Proc.rm_rf dst) wal;
  { setups; waits; cold = !cold; log = Array.of_list (List.rev !log); lat = Util.Fcol.to_array lat; wall; hwm; stats }

let e2e (d : _ daemon_run) ~quality =
  let n = Array.length d.lat and reps = Array.length d.setups in
  Printf.printf "  set-up: median %.4f s, of which the harness waited %.4f s; %d cold replies in all\n"
    (Util.median d.setups) (Util.median d.waits) d.cold;
  [
    Util.metric ~samples:reps "setup_s" "s" (Util.median d.setups);
    Util.metric "ops_per_s" "1/s" (Float.of_int n /. d.wall);
    Util.metric ~samples:n "p50_ms" "ms" (Util.quantile d.lat 0.5 *. 1e3);
    Util.metric ~samples:n "p99_ms" "ms" (Util.quantile d.lat 0.99 *. 1e3);
    Util.metric "peak_rss_mb" "MB" d.hwm;
    Util.metric "quality_ratio" "ratio" quality;
  ]

(* {1 In-process replay} of what the daemon's request path calls for one
   request: decode, the handler, encode, frame. The load's own encoding
   is done before the replay and its decoding after, so a root span
   covers the daemon's path and nothing else. *)

type sp = { req : int; dec : int; enc : int; frame : int }

let span_names tr =
  {
    req = Spans.name tr Spans.root;
    dec = Spans.name tr "proto.decode_request";
    enc = Spans.name tr "proto.encode_reply";
    frame = Spans.name tr "netio.frame";
  }

let server_spans handlers = [ "proto.decode_request"; "proto.encode_reply"; "netio.frame" ] @ handlers

let replay_one tr sp ~req payload execute =
  Spans.span tr sp.req ~req (fun () ->
      let id, rq =
        match Spans.span tr sp.dec ~req (fun () -> Proto.decode_request payload) with
        | Ok r -> r
        | Error m -> failwith ("replayed request does not decode: " ^ m)
      in
      let reply = execute ~req rq in
      let rpayload = Spans.span tr sp.enc ~req (fun () -> Proto.encode_reply ~id reply) in
      ignore (Sys.opaque_identity (Spans.span tr sp.frame ~req (fun () -> Netio.frame_bytes rpayload)));
      rpayload)

(* Passes over the same requests, after a warm-up. Spans and [Obs] on
   (the breakdown) and off (the overhead baseline) alternate in chunks
   of [chunk] requests, so host drift falls on both; a last pass, with
   both off, takes per-request GC words. Returns the traced recorder and
   its wall, the plain wall, per-kind GC words, mean request/reply
   bytes, and the decoded replies of the traced pass. *)
let replay_passes reqs ~chunk ~kind_of ~execute =
  let n = Array.length reqs in
  let payloads = Array.mapi (fun i r -> Proto.encode_request ~id:(i + 1) r) reqs in
  let off = Spans.create ~on:false () in
  let sp_off = span_names off in
  let exec_off = execute off in
  let plain i = replay_one off sp_off ~req:i payloads.(i) exec_off in
  for i = 0 to Int.min 2000 n - 1 do
    ignore (Sys.opaque_identity (plain i))
  done;
  Gc.full_major ();
  (* At most six spans a request: root, decode, handler, one nested
     layer call, encode, frame. *)
  let tr = Spans.create ~capacity:(6 * n) ~on:true () in
  let sp = span_names tr in
  let exec_on = execute tr in
  let traced = Array.make n "" in
  let on_wall = ref 0. and off_wall = ref 0. in
  let run_chunk k ~on =
    Obs.set_enabled on;
    let (), d =
      Util.time (fun () ->
          for i = k to Int.min n (k + chunk) - 1 do
            if on then traced.(i) <- replay_one tr sp ~req:i payloads.(i) exec_on
            else ignore (Sys.opaque_identity (plain i))
          done)
    in
    if on then on_wall := !on_wall +. d else off_wall := !off_wall +. d
  in
  for c = 0 to (n - 1) / chunk do
    let on_first = c mod 2 = 0 in
    run_chunk (c * chunk) ~on:on_first;
    run_chunk (c * chunk) ~on:(not on_first)
  done;
  Obs.set_enabled false;
  let gc = Hashtbl.create 8 in
  Array.iteri
    (fun i r ->
      let _, m, p = Prep.gc_words (fun () -> plain i) in
      let k = kind_of r in
      let m0, p0, n0 = Option.value ~default:(0., 0., 0.) (Hashtbl.find_opt gc k) in
      Hashtbl.replace gc k (m0 +. m, p0 +. p, n0 +. 1.))
    reqs;
  let mean_len a = Util.mean (Array.map (fun s -> Float.of_int (String.length s)) a) in
  let replies = Array.map (fun p -> Result.map snd (Proto.decode_reply p)) traced in
  (tr, !on_wall, !off_wall, gc, mean_len payloads, mean_len traced, replies)

let common_layer_values ~tr ~traced_wall ~plain_wall ~gc ~req_bytes ~reply_bytes ~handlers
    ~(d : _ daemon_run) =
  let aggs = Spans.aggregate tr in
  let durs nm = (Spans.find aggs nm).Spans.durs in
  let service =
    Spans.per_request tr (server_spans handlers) |> Hashtbl.to_seq_values |> Array.of_seq
  in
  let one = Metrics.one in
  let stats f = match d.stats with Some s -> Float.of_int (f s) | None -> 0. in
  List.concat
    [
      Metrics.pcts "proto.decode_us" ~scale:1e6 (durs "proto.decode_request");
      Metrics.pcts "proto.encode_us" ~scale:1e6 (durs "proto.encode_reply");
      Metrics.pcts "netio.frame_us" ~scale:1e6 (durs "netio.frame");
      [
        ("proto.request_bytes", one req_bytes);
        ("proto.reply_bytes", one reply_bytes);
        ( "server.handoff_us",
          { Metrics.value = (Util.median d.lat -. Util.median service) *. 1e6; n = Some (Array.length d.lat) } );
        ("server.stats_p50_us", one (stats (fun s -> s.Proto.p50_us)));
        ("server.stats_p99_us", one (stats (fun s -> s.Proto.p99_us)));
        ("server.refused", one (stats (fun s -> s.Proto.rejected + s.Proto.timeouts + s.Proto.protocol_errors)));
      ];
      Hashtbl.fold
        (fun k (m, p, n) acc ->
          ("gc.minor_words_per_op." ^ k, one (m /. n)) :: ("gc.promoted_words_per_op." ^ k, one (p /. n)) :: acc)
        gc [];
      [
        ("replay.top_heap_mb", one (Prep.top_heap_mb ()));
        ("trace.overhead_pct", one ((traced_wall -. plain_wall) /. plain_wall *. 100.));
        ("trace.reconcile_pct", one (Spans.unattributed_pct [ tr ] ~wall:traced_wall));
      ];
    ]

(* {1 serve_reads} *)

type reads_ref = {
  b : Interval1d.batched;  (** the prepared live set, sorted on axis 0 *)
  best_ref : (float * float * float) option;
  quality : float;
}

let reads_reference ~size ~seed =
  Proc.copy_dir "prep" "ref";
  let sess = Prep.open_exn ~size (Prep.wal_in "ref") in
  let st = Session.state sess in
  let best_ref = Expect.best_of (Session.best sess) in
  Session.close sess;
  Proc.rm_rf "ref";
  let b = Interval1d.preprocess (Rmsq.project_state st) in
  let quality =
    match best_ref with
    | Some (_, _, v) -> v /. Prep.exact_opt (Gen.prepared ~size ~seed)
    | None -> 0.
  in
  { b; best_ref; quality }

let check_read t rf ~warm req r =
  Util.check t ~what:(Expect.show_request req)
    (match (r, req) with
    | Error m, _ -> Error m
    | Ok rep, Proto.Range_sum { lo; hi } -> Expect.range ~b:rf.b ~lo ~hi ~warm rep
    | Ok rep, _ -> Expect.best ~expected:rf.best_ref rep)

(* Warm-up. Before it logs [listening on], the daemon starts its index
   builder, which captures the whole state under the session lock, then
   compiles and publishes epoch 1. A [Range_sum] that arrives before the
   publish takes a second capture on the cold path. [Query] waits on the
   same lock, so poll it until it has answered within [prompt] for
   [quiet] seconds in a row: a capture in progress has then ended, and
   the compile after it (about 1 ms) has had time to publish. Only then
   probe [Range_sum]. The harness adds about [quiet] to the set-up
   whatever the capture costs, and no cold reply is taken; a capture
   short enough to pass for a prompt [Query] makes a cold reply as
   short. Returns the cold replies and the harness's own wait: from the
   last slow [Query] (or the first) to the warm reply. *)
let warm_reads t rf conn =
  let quiet = 0.03 and prompt = 0.005 in
  let rec wait_quiet since =
    let r, dt = Wire.timed_call conn Proto.Query in
    check_read t rf ~warm:false Proto.Query r;
    let now = Util.now () in
    let since = if dt >= prompt then now else since in
    if now -. since < quiet then begin
      Unix.sleepf 0.001;
      wait_quiet since
    end
    else since
  in
  let since = wait_quiet (Util.now ()) in
  let probe = Proto.Range_sum { lo = Float.neg_infinity; hi = Float.infinity } in
  let rec poll cold =
    let r = Wire.call conn probe in
    check_read t rf ~warm:false probe r;
    match r with
    | Ok (Proto.Range_best { epoch; _ }) when epoch >= 1 -> (cold, Util.now () -. since)
    | Ok (Proto.Range_best _) ->
        Unix.sleepf 0.005;
        poll (cold + 1)
    | Ok rep -> failwith ("warm-up: unexpected reply " ^ Expect.show_reply rep)
    | Error m -> failwith ("warm-up: " ^ m)
  in
  poll 0

let reads_daemon ~serverd ~size ~seed ~seconds ~reps t rf =
  let next_read = Gen.reads ~seed in
  let d =
    daemon_run ~serverd ~size ~wal:(Some ("prep", "d")) ~reps ~warm:(warm_reads t rf)
      ~next:(fun () -> (Gen.read_request (next_read ()), ()))
      ~seconds
  in
  Array.iter (fun (req, (), r) -> check_read t rf ~warm:true req r) d.log;
  d

let run_reads ~self ~serverd ~size ~seed ~seconds ~reps =
  let t = Util.tally () in
  Prep.prepare ~self ~size ~seed ~dir:"prep";
  let rf = reads_reference ~size ~seed in
  Gc.compact ();
  let d = reads_daemon ~serverd ~size ~seed ~seconds ~reps t rf in
  (t, e2e d ~quality:rf.quality)

let trace_reads ~self ~serverd ~size ~seed ~seconds =
  let t = Util.tally () in
  Prep.prepare ~self ~size ~seed ~dir:"prep";
  let rf = reads_reference ~size ~seed in
  Gc.compact ();
  let d = reads_daemon ~serverd ~size ~seed ~seconds ~reps:1 t rf in
  (* Recovery as for ingest, then the first index build. *)
  Proc.copy_dir "prep" "t";
  Obs.set_enabled true;
  let sess, recov = Prep.time_recovery ~size (Prep.wal_in "t") in
  let builds0 = Prep.obs_value "rmsq.builds" in
  let st, capture = Util.time (fun () -> Session.state sess) in
  let index, compile = Util.time (fun () -> Rmsq.of_state st) in
  let builds = Prep.obs_value "rmsq.builds" - builds0 in
  let cell = Epoch.create () in
  ignore (Epoch.publish cell index ~built_seq:(Session.seq sess) : Epoch.entry);
  let cap = match size with Gen.Full -> 200_000 | Gen.Smoke -> 5_000 in
  let reqs = Array.map (fun (r, (), _) -> r) (Array.sub d.log 0 (Int.min cap (Array.length d.log))) in
  (* The daemon's two read handlers: [Range_sum] loads the epoch, reads
     the seq, counts the hit, asks the index and takes the lag; [Query]
     reads the best placement. *)
  let execute tr =
    let sp_range = Spans.name tr "server.range_sum"
    and sp_rmsq = Spans.name tr "rmsq.max_sum_in_coords"
    and sp_best = Spans.name tr "session.best" in
    fun ~req -> function
      | Proto.Range_sum { lo; hi } ->
          Spans.span tr sp_range ~req (fun () ->
              match Epoch.current cell with
              | None -> failwith "replay index is cold"
              | Some e ->
                  let now_seq = Session.seq sess in
                  Epoch.hit ();
                  let seg =
                    Spans.span tr sp_rmsq ~req (fun () -> Rmsq.max_sum_in_coords e.Epoch.index ~lo ~hi)
                    |> Option.map (fun s -> (s.Rmsq.s_lo, s.Rmsq.s_hi, s.Rmsq.s_sum))
                  in
                  let lag = Epoch.lag cell ~now_seq in
                  Proto.Range_best { seg; epoch = e.Epoch.epoch; lag_ops = Option.value ~default:0 lag })
      | Proto.Query -> Proto.Best (Spans.span tr sp_best ~req (fun () -> Expect.best_of (Session.best sess)))
      | _ -> failwith "not a read"
  in
  let kind_of = function Proto.Range_sum _ -> "range_sum" | _ -> "query" in
  let tr, traced_wall, plain_wall, gc, req_bytes, reply_bytes, replies =
    replay_passes reqs ~chunk:1000 ~kind_of ~execute
  in
  Array.iteri (fun i r -> check_read t rf ~warm:true reqs.(i) r) replies;
  Session.close sess;
  Proc.rm_rf "t";
  Spans.save tr "serve_reads.replay";
  let aggs = Spans.aggregate tr in
  let one = Metrics.one in
  let values =
    List.concat
      [
        List.map (fun (k, v) -> (k, one v)) (Prep.recovery_metrics recov);
        Metrics.pcts "rmsq.query_us" ~scale:1e6 (Spans.find aggs "rmsq.max_sum_in_coords").Spans.durs;
        [
          ("index.capture_ms", one (capture *. 1e3));
          ("rmsq.compile_ms", one (compile *. 1e3));
          ("rmsq.bits_per_point", one (Rmsq.bits_per_point index));
          ("rmsq.builds", one (Float.of_int builds));
          ("index.cold_replies", one (Float.of_int d.cold));
        ];
        common_layer_values ~tr ~traced_wall ~plain_wall ~gc ~req_bytes ~reply_bytes ~d
          ~handlers:[ "server.range_sum"; "session.best" ];
      ]
  in
  (t, values)

(* {1 solve_mix} *)

let kind_index = function Gen.Weighted -> 0 | Gen.Static -> 1 | Gen.Interval -> 2 | Gen.Colored -> 3

(* Every pool input's reply, from the library in this process. *)
let mix_expected pools =
  Array.map
    (fun kind -> Array.init Gen.pool_size (fun i -> Expect.solve (Gen.solve_request pools kind i)))
    Gen.kinds

(* Mean Thm 1.2 value over the exact optimum, across the static pool. *)
let mix_quality expected =
  Util.mean
    (Array.init Gen.pool_size (fun i ->
         match
           ( Expect.solved_value expected.(kind_index Gen.Static).(i),
             Expect.solved_value expected.(kind_index Gen.Weighted).(i) )
         with
         | Some s, Some w when w > 0. -> s /. w
         | _ -> 0.))

let check_solve t expected (kind, i) req r =
  Util.check t
    ~what:(Printf.sprintf "%s #%d: %s" (Gen.kind_name kind) i (Expect.show_request req))
    (match r with Error m -> Error m | Ok rep -> Expect.reply ~expected:expected.(kind_index kind).(i) rep)

(* Ready on its initial state: one request of each kind answered
   correctly. The harness does not wait. *)
let warm_mix t pools expected conn =
  Array.iter
    (fun kind ->
      let req = Gen.solve_request pools kind 0 in
      check_solve t expected (kind, 0) req (Wire.call conn req))
    Gen.kinds;
  (0, 0.)

let mix_daemon ~serverd ~size ~seconds ~reps t pools expected =
  let k = ref 0 in
  let next () =
    let kind, i = Gen.mix_slot !k in
    incr k;
    (Gen.solve_request pools kind i, (kind, i))
  in
  let d =
    daemon_run ~serverd ~size ~wal:None ~reps ~warm:(warm_mix t pools expected) ~next ~seconds
  in
  Array.iter (fun (req, slot, r) -> check_solve t expected slot req r) d.log;
  d

let run_mix ~serverd ~size ~seed ~seconds ~reps =
  let t = Util.tally () in
  let pools = Gen.pools ~size ~seed in
  let expected = mix_expected pools in
  let d = mix_daemon ~serverd ~size ~seconds ~reps t pools expected in
  (t, e2e d ~quality:(mix_quality expected))

let counters_of = function
  | Gen.Weighted -> [ "sweep.events"; "sweep.circles"; "kd.visits" ]
  | Gen.Static -> [ "samples.drawn" ]
  | Gen.Interval -> [ "sweep.interval1d.events" ]
  | Gen.Colored -> [ "os.sweep_events"; "os.cells" ]

let trace_mix ~serverd ~size ~seed ~seconds =
  let t = Util.tally () in
  let pools = Gen.pools ~size ~seed in
  let expected = mix_expected pools in
  let d = mix_daemon ~serverd ~size ~seconds ~reps:1 t pools expected in
  Obs.set_enabled true;
  (* Sixteen rotations: every colored input once, every other input
     four times. *)
  let cap = Gen.pool_size * Array.length Gen.rotation in
  let slots = Array.init cap Gen.mix_slot in
  let reqs = Array.map (fun (kind, i) -> Gen.solve_request pools kind i) slots in
  let deltas = Hashtbl.create 8 in
  let execute tr =
    let sp = Array.map (fun k -> Spans.name tr ("solve." ^ Gen.kind_name k)) Gen.kinds in
    fun ~req rq ->
      let kind = fst slots.(req) in
      let names = counters_of kind in
      let before = List.map Prep.obs_value names in
      let reply = Spans.span tr sp.(kind_index kind) ~req (fun () -> Expect.solve rq) in
      if tr.Spans.on then
        List.iter2
          (fun nm b ->
            let s, n = Option.value ~default:(0, 0) (Hashtbl.find_opt deltas nm) in
            Hashtbl.replace deltas nm (s + Prep.obs_value nm - b, n + 1))
          names before;
      reply
  in
  let kind_of r = Gen.kind_name (match r with
    | Proto.Solve_weighted _ -> Gen.Weighted
    | Proto.Solve_static _ -> Gen.Static
    | Proto.Solve_interval _ -> Gen.Interval
    | _ -> Gen.Colored)
  in
  let tr, traced_wall, plain_wall, gc, req_bytes, reply_bytes, replies =
    replay_passes reqs ~chunk:(Array.length Gen.rotation) ~kind_of ~execute
  in
  Array.iteri (fun i r -> check_solve t expected slots.(i) reqs.(i) r) replies;
  Spans.save tr "solve_mix.replay";
  let aggs = Spans.aggregate tr in
  let per nm =
    match Hashtbl.find_opt deltas nm with
    | Some (s, n) when n > 0 -> Metrics.one (Float.of_int s /. Float.of_int n)
    | _ -> Metrics.one 0.
  in
  let solve k = Metrics.pcts (Gen.kind_name k ^ ".solve_ms") ~scale:1e3 (Spans.find aggs ("solve." ^ Gen.kind_name k)).Spans.durs in
  let values =
    List.concat
      [
        solve Gen.Weighted;
        solve Gen.Static;
        solve Gen.Interval;
        solve Gen.Colored;
        [
          ("samples.drawn_per_static", per "samples.drawn");
          ("os.sweep_events_per_colored", per "os.sweep_events");
          ("os.cells_per_colored", per "os.cells");
          ("sweep.events_per_weighted", per "sweep.events");
          ("sweep.circles_per_weighted", per "sweep.circles");
          ("kd.visits_per_weighted", per "kd.visits");
          ("sweep.interval1d.events_per_interval", per "sweep.interval1d.events");
        ];
        common_layer_values ~tr ~traced_wall ~plain_wall ~gc ~req_bytes ~reply_bytes ~d
          ~handlers:(List.map (fun k -> "solve." ^ Gen.kind_name k) (Array.to_list Gen.kinds));
      ]
  in
  (t, values)
