(* Workload [ingest]: Thm 1.1 updates on a durable session, in a process
   of its own.

   Each round copies the prepared layout, starts a child that opens it
   with [Session.open_] (set-up), runs the fixed script (timed), reports,
   and is killed with SIGKILL after its last op. Rounds repeat until the
   timed phases add up to the run's seconds. Outside timing, every
   [best] is compared bit for bit with a bare [Dynamic] restored from the
   same recovered state and fed the same ops, and reopening the killed
   layout must reproduce that oracle's state fingerprint. *)

module Session = Maxrs_durable.Session
module Codec = Maxrs_durable.Codec
module Snapshot = Maxrs_durable.Snapshot
module Wal = Maxrs_durable.Wal
module Dynamic = Maxrs.Dynamic
module Obs = Maxrs_obs.Obs

let apply_op sess ~expect_handle = function
  | Gen.Ins { x; y; w } ->
      let h = Session.insert sess ~weight:w [| x; y |] in
      if Dynamic.handle_id h <> expect_handle then
        failwith (Printf.sprintf "insert got handle %d, want %d" (Dynamic.handle_id h) expect_handle);
      None
  | Gen.Del h ->
      Session.delete sess (Dynamic.handle_of_id h);
      None
  | Gen.Best -> Some (Session.best sess)

let show_op i = function
  | Gen.Ins { x; y; w } -> Printf.sprintf "op %d insert (%h,%h) w=%h" i x y w
  | Gen.Del h -> Printf.sprintf "op %d delete handle %d" i h
  | Gen.Best -> Printf.sprintf "op %d best" i

(* {1 The process under test} *)

(* Wait to be killed; a vanished parent closes stdin. *)
let wait_for_kill () = ignore (In_channel.input_line stdin)

let child ~size ~seed ~wal ~out ~setup_only =
  let sess = Prep.open_exn ~size wal in
  print_string "ready\n";
  flush stdout;
  if setup_only then wait_for_kill ();
  let ops = Gen.ingest_script ~size ~seed in
  let n = Array.length ops in
  let lat = Array.make n 0. in
  let bests = ref [] and errors = ref [] in
  let next = ref (Gen.prep_n size) in
  let t0 = Util.now () in
  for i = 0 to n - 1 do
    let s = Util.now () in
    (match apply_op sess ~expect_handle:!next ops.(i) with
    | Some b -> bests := Expect.best_of b :: !bests
    | None -> ()
    | exception e -> errors := Printf.sprintf "%s: %s" (show_op i ops.(i)) (Printexc.to_string e) :: !errors);
    lat.(i) <- Util.now () -. s;
    match ops.(i) with Gen.Ins _ -> incr next | _ -> ()
  done;
  let wall = Util.now () -. t0 in
  Out_channel.with_open_text out (fun oc ->
      Printf.fprintf oc "wall %h\n%d\n" wall n;
      Array.iter (fun x -> Printf.fprintf oc "%h\n" x) lat;
      let bests = List.rev !bests in
      Printf.fprintf oc "%d\n" (List.length bests);
      List.iter
        (function
          | None -> output_string oc "none\n"
          | Some (x, y, v) -> Printf.fprintf oc "%h %h %h\n" x y v)
        bests;
      let errors = List.rev !errors in
      Printf.fprintf oc "%d\n" (List.length errors);
      List.iter (fun e -> Printf.fprintf oc "%s\n" (String.escaped e)) errors);
  print_string "done\n";
  flush stdout;
  wait_for_kill ()

type round = {
  setup : float;
  wall : float;
  lat : float array;
  bests : (float * float * float) option array;
  errors : string list;
  hwm : float;
}

let parse_out path =
  let lines = Array.of_list (String.split_on_char '\n' (Proc.read_file path)) in
  let pos = ref 0 in
  let next () =
    let l = lines.(!pos) in
    incr pos;
    l
  in
  let wall = Scanf.sscanf (next ()) "wall %h" Fun.id in
  let n = int_of_string (next ()) in
  let lat = Array.init n (fun _ -> float_of_string (next ())) in
  let nb = int_of_string (next ()) in
  let bests =
    Array.init nb (fun _ ->
        match next () with
        | "none" -> None
        | l -> Scanf.sscanf l "%h %h %h" (fun x y v -> Some (x, y, v)))
  in
  let ne = int_of_string (next ()) in
  let errors = List.init ne (fun _ -> Scanf.unescaped (next ())) in
  (wall, lat, bests, errors)

(* Start the process under test on a fresh copy of the prepared layout
   and wait until [Session.open_] has returned: the set-up time. *)
let start_child ~self ~size ~seed ~setup_only =
  let dir = "r" in
  Proc.copy_dir "prep" dir;
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let t_spawn = Util.now () in
  let pid =
    Proc.spawn ~stdin:in_r ~stdout:out_w ~label:"ingest" self
      ([
         "ingest-child"; "--wal"; Prep.wal_in dir; "--seed"; string_of_int seed; "--size";
         Gen.size_to_string size; "--out"; "r.out";
       ]
      @ if setup_only then [ "--setup-only"; "1" ] else [])
  in
  Unix.close in_r;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let expect_line what =
    match In_channel.input_line ic with
    | Some l when l = what -> ()
    | _ -> failwith (Printf.sprintf "ingest process exited before %S" what)
  in
  expect_line "ready";
  let setup = Util.now () -. t_spawn in
  let kill () =
    Proc.kill_reap pid;
    close_in ic;
    Unix.close in_w
  in
  (pid, expect_line, kill, setup)

let setup_only ~self ~size ~seed =
  let _, _, kill, setup = start_child ~self ~size ~seed ~setup_only:true in
  kill ();
  Proc.rm_rf "r";
  setup

let run_round ~self ~size ~seed =
  let pid, expect_line, kill, setup = start_child ~self ~size ~seed ~setup_only:false in
  expect_line "done";
  let hwm = Proc.vm_hwm_mb pid in
  (* SIGKILL after the last acknowledged op: reopening must recover all
     of them. *)
  kill ();
  let wall, lat, bests, errors = parse_out "r.out" in
  Sys.remove "r.out";
  { setup; wall; lat; bests; errors; hwm }

(* Fingerprint and seq of the layout at [dir] after a reopen. *)
let reopen_fingerprint ~size dir =
  match Prep.open_session ~size (Prep.wal_in dir) with
  | Error m -> Error m
  | Ok s ->
      let crc = Codec.state_crc (Session.state s) and seq = Session.seq s in
      Session.close s;
      Ok (crc, seq)

(* {1 The oracle} *)

type oracle = {
  o_bests : (float * float * float) option array;
  o_crc : int;
  o_seq : int;
}

let recovered_state ~size =
  Proc.copy_dir "prep" "oracle";
  let sess = Prep.open_exn ~size (Prep.wal_in "oracle") in
  let st = Session.state sess and seq = Session.seq sess in
  Session.close sess;
  Proc.rm_rf "oracle";
  (st, seq)

let dyn_op dyn = function
  | Gen.Ins { x; y; w } ->
      ignore (Dynamic.insert dyn ~weight:w [| x; y |] : Dynamic.handle);
      None
  | Gen.Del h ->
      Dynamic.delete dyn (Dynamic.handle_of_id h);
      None
  | Gen.Best -> Some (Dynamic.best dyn)

let oracle ~size ops =
  let st, seq0 = recovered_state ~size in
  let dyn = Dynamic.restore st in
  let bests = Array.to_list ops |> List.filter_map (dyn_op dyn) |> List.map Expect.best_of in
  let writes = Array.fold_left (fun n op -> if Gen.is_write op then n + 1 else n) 0 ops in
  { o_bests = Array.of_list bests; o_crc = Codec.state_crc (Dynamic.state dyn); o_seq = seq0 + writes }

(* Mean of best / exact optimum at the first, middle and last [best]. *)
let quality ~size ~seed ops (o : oracle) =
  let nb = Array.length o.o_bests in
  let at = List.sort_uniq Int.compare [ 0; nb / 2; nb - 1 ] in
  let ratios =
    Gen.live_at ~size ~seed ops ~at
    |> List.map (fun (k, pts) ->
           match o.o_bests.(k) with
           | Some (_, _, v) -> v /. Prep.exact_opt pts
           | None -> 0.)
  in
  Util.mean (Array.of_list ratios)

let check_round t ~size ops (o : oracle) r =
  List.iter (fun e -> Util.fail t "%s" e) r.errors;
  t.Util.attempted <- t.Util.attempted + Array.length ops;
  let bi = ref 0 in
  Array.iteri
    (fun i op ->
      if op = Gen.Best then begin
        let k = !bi in
        incr bi;
        if k >= Array.length r.bests then Util.fail t "%s: no answer" (show_op i op)
        else if not (Expect.best_equal r.bests.(k) o.o_bests.(k)) then
          Util.fail t "%s: got %s, oracle %s" (show_op i op)
            (Expect.show_reply (Maxrs_server.Proto.Best r.bests.(k)))
            (Expect.show_reply (Maxrs_server.Proto.Best o.o_bests.(k)))
      end)
    ops;
  Util.check t ~what:"reopen after SIGKILL"
    (match reopen_fingerprint ~size "r" with
    | Error m -> Error m
    | Ok (crc, seq) ->
        if crc = o.o_crc && seq = o.o_seq then Ok ()
        else
          Error
            (Printf.sprintf "state crc %08x seq %d, oracle crc %08x seq %d" crc seq o.o_crc o.o_seq))

let run ~self ~size ~seed ~seconds =
  let t = Util.tally () in
  Prep.prepare ~self ~size ~seed ~dir:"prep";
  let ops = Gen.ingest_script ~size ~seed in
  let o = oracle ~size ops in
  Gc.compact ();
  let q = quality ~size ~seed ops o in
  let rec rounds acc timed =
    let r = run_round ~self ~size ~seed in
    check_round t ~size ops o r;
    Proc.rm_rf "r";
    Gc.compact ();
    let acc = r :: acc and timed = timed +. r.wall in
    if timed >= seconds then List.rev acc else rounds acc timed
  in
  let rs = rounds [] 0. in
  let writes =
    List.concat_map
      (fun r ->
        List.filteri (fun i _ -> Gen.is_write ops.(i)) (Array.to_list r.lat))
      rs
    |> Array.of_list
  in
  let total_ops = List.fold_left (fun n r -> n + Array.length r.lat) 0 rs in
  let total_wall = List.fold_left (fun s r -> s +. r.wall) 0. rs in
  let arr f = Array.of_list (List.map f rs) in
  Util.log "ingest: %d rounds of %d ops (%d writes per round)" (List.length rs) (Array.length ops)
    (Array.length writes / List.length rs);
  (* At least five set-up samples: top up with processes that only
     open the layout. *)
  let setups =
    Array.append (arr (fun r -> r.setup))
      (Array.init (Int.max 0 (5 - List.length rs)) (fun _ -> setup_only ~self ~size ~seed))
  in
  let n_setup = Array.length setups and n_w = Array.length writes in
  ( t,
    [
      Util.metric ~samples:n_setup "setup_s" "s" (Util.median setups);
      Util.metric "ops_per_s" "1/s" (Float.of_int total_ops /. total_wall);
      Util.metric ~samples:n_w "p50_ms" "ms" (Util.quantile writes 0.5 *. 1e3);
      Util.metric ~samples:n_w "p99_ms" "ms" (Util.quantile writes 0.99 *. 1e3);
      Util.metric ~samples:(List.length rs) "peak_rss_mb" "MB" (Util.median (arr (fun r -> r.hwm)));
      Util.metric "quality_ratio" "ratio" q;
    ] )

(* {1 Traced replay} *)

let trace ~self ~size ~seed =
  let t = Util.tally () in
  Prep.prepare ~self ~size ~seed ~dir:"prep";
  let ops = Gen.ingest_script ~size ~seed in
  let n = Array.length ops in
  Proc.copy_dir "prep" "t";
  Obs.set_enabled true;
  let sess, recov = Prep.time_recovery ~size (Prep.wal_in "t") in
  (* The recovered state, kept encoded: the shadows restore from it. *)
  let st0 = Codec.encode_state (Session.state sess) in
  (* 1. The script through [Session], with spans and counter deltas.
     After each op the same op runs on a bare [Dynamic] restored from
     the same state — the oracle, and the compute share of the session
     op, measured in the same moment and on the same heap. Each write's
     journaling is timed on its own: the same record appended to a
     scratch log with the session's fsync policy, the call the session
     makes from its op hook. (The difference of the session op and the
     shadow op, two ~600 us figures on separately allocated structures,
     came out negative.) *)
  let tr = Spans.create ~capacity:(2 * n) ~on:true () in
  let trs = Spans.create ~capacity:(2 * n) ~on:true () in
  let trj = Spans.create ~capacity:(2 * n) ~on:true () in
  let sp_jreq = Spans.name trj Spans.root and sp_append = Spans.name trj "wal.append" in
  let sp_sreq = Spans.name trs Spans.root
  and sp_dins = Spans.name trs "dynamic.insert"
  and sp_ddel = Spans.name trs "dynamic.delete"
  and sp_dbest = Spans.name trs "dynamic.best" in
  let shadow = Dynamic.restore (Codec.decode_state st0) in
  let epochs0 = Dynamic.epochs shadow in
  let dyn_dur = Array.make n 0. in
  let shadow_wall = ref 0. and visited = ref 0 and cells = ref 0 in
  let sp_req = Spans.name tr Spans.root
  and sp_ins = Spans.name tr "session.insert"
  and sp_del = Spans.name tr "session.delete"
  and sp_best = Spans.name tr "session.best" in
  let ctr = Prep.obs_value in
  let d_records = ref 0 and d_bytes = ref 0 and d_fsyncs = ref 0 and d_snaps = ref 0
  and d_snap_bytes = ref 0 in
  let sess_dur = Array.make n 0. and fsync_op = Array.make n false and snap_op = Array.make n false in
  let gc_minor = Hashtbl.create 3 and gc_prom = Hashtbl.create 3 and gc_n = Hashtbl.create 3 in
  let add_gc kind m p =
    let get h = Option.value ~default:0. (Hashtbl.find_opt h kind) in
    Hashtbl.replace gc_minor kind (get gc_minor +. m);
    Hashtbl.replace gc_prom kind (get gc_prom +. p);
    Hashtbl.replace gc_n kind (get gc_n +. 1.)
  in
  let capture = Util.Fcol.create () and encode = Util.Fcol.create () and write = Util.Fcol.create () in
  Unix.mkdir "scratch" 0o755;
  let journal_log =
    Wal.create "scratch/j.wal"
      { Wal.dim = 2; radius = Gen.radius; cfg = Maxrs.Config.default; base_seq = 0 }
      ~fsync:(Wal.Interval Gen.fsync_interval)
  in
  let journal = Util.Fcol.create () and journal_wall = ref 0. in
  let extra = ref 0. and next = ref (Gen.prep_n size) in
  let sess_bests = Array.make n None in
  let t0 = Util.now () in
  for i = 0 to n - 1 do
    let r0 = ctr "wal.records" and b0 = ctr "wal.bytes" and f0 = ctr "wal.fsyncs"
    and s0 = ctr "snapshot.writes" and sb0 = ctr "snapshot.bytes" in
    let op = ops.(i) in
    let kind, nm =
      match op with
      | Gen.Ins _ -> ("insert", sp_ins)
      | Gen.Del _ -> ("delete", sp_del)
      | Gen.Best -> ("best", sp_best)
    in
    let res =
      Spans.span tr sp_req ~req:i (fun () ->
          Spans.span tr nm ~req:i (fun () ->
              Prep.gc_words (fun () -> apply_op sess ~expect_handle:!next op)))
    in
    (match res with
    | Some b, _, _ -> sess_bests.(i) <- Some (Expect.best_of b)
    | None, _, _ -> ());
    let _, m, p = res in
    sess_dur.(i) <- Spans.last_dur tr;
    (match op with Gen.Ins _ -> incr next | _ -> ());
    d_records := !d_records + ctr "wal.records" - r0;
    d_bytes := !d_bytes + ctr "wal.bytes" - b0;
    d_fsyncs := !d_fsyncs + ctr "wal.fsyncs" - f0;
    d_snaps := !d_snaps + ctr "snapshot.writes" - s0;
    d_snap_bytes := !d_snap_bytes + ctr "snapshot.bytes" - sb0;
    fsync_op.(i) <- ctr "wal.fsyncs" > f0;
    (* Per-op GC words leave out the ops that took a snapshot; the
       snapshot figures cover those. *)
    if ctr "snapshot.writes" = s0 then add_gc kind m p
    else begin
      (* The op took a snapshot: split one into capture, encode and
         write, outside the replayed wall. *)
      snap_op.(i) <- true;
      let e0 = Util.now () in
      let st, c = Util.time (fun () -> Session.state sess) in
      let _, e = Util.time (fun () -> ignore (Sys.opaque_identity (Codec.encode_state st))) in
      let file, w = Util.time (fun () -> Snapshot.write ~wal:"scratch/s.wal" ~seq:i st) in
      Sys.remove file;
      Util.Fcol.push capture c;
      Util.Fcol.push encode e;
      Util.Fcol.push write w;
      extra := !extra +. (Util.now () -. e0)
    end;
    let record =
      match op with
      | Gen.Ins { x; y; w } -> Some (Wal.Insert { handle = !next - 1; point = [| x; y |]; weight = w })
      | Gen.Del h -> Some (Wal.Delete h)
      | Gen.Best -> None
    in
    Option.iter
      (fun r ->
        let (), d =
          Util.time (fun () ->
              Spans.span trj sp_jreq ~req:i (fun () ->
                  Spans.span trj sp_append ~req:i (fun () -> Wal.append journal_log r)))
        in
        Util.Fcol.push journal (Spans.last_dur trj);
        journal_wall := !journal_wall +. d)
      record;
    let v0 = ctr "samples.visited" and c0 = ctr "grid.cells" in
    let dnm = match op with Gen.Ins _ -> sp_dins | Gen.Del _ -> sp_ddel | Gen.Best -> sp_dbest in
    let r, d =
      Util.time (fun () ->
          Spans.span trs sp_sreq ~req:i (fun () -> Spans.span trs dnm ~req:i (fun () -> dyn_op shadow op)))
    in
    dyn_dur.(i) <- Spans.last_dur trs;
    shadow_wall := !shadow_wall +. d;
    visited := !visited + ctr "samples.visited" - v0;
    cells := !cells + ctr "grid.cells" - c0;
    match (r, sess_bests.(i)) with
    | Some b, Some got ->
        t.Util.attempted <- t.Util.attempted + 1;
        if not (Expect.best_equal got (Expect.best_of b)) then
          Util.fail t "%s: session %s, oracle %s" (show_op i op)
            (Expect.show_reply (Maxrs_server.Proto.Best got))
            (Expect.show_reply (Maxrs_server.Proto.Best (Expect.best_of b)))
    | _ -> ()
  done;
  let wall = Util.now () -. t0 -. !extra in
  Wal.close journal_log;
  let shadow_wall = !shadow_wall and journal_wall = !journal_wall in
  let sess_wall = wall -. shadow_wall -. journal_wall in
  let nwrites = Array.fold_left (fun k op -> if Gen.is_write op then k + 1 else k) 0 ops in
  let visited = !visited and cells = !cells in
  let epochs = Dynamic.epochs shadow - epochs0 in
  let top_heap = Prep.top_heap_mb () in
  Session.close sess;
  Proc.rm_rf "t";
  ignore (Sys.opaque_identity shadow);
  Gc.full_major ();
  (* 2. The tracing overhead: the script on two more restored copies,
     one with spans and counters on and one with them off, alternating
     in chunks so host drift falls on both. *)
  let traced = Dynamic.restore (Codec.decode_state st0) in
  let plain = Dynamic.restore (Codec.decode_state st0) in
  let tro = Spans.create ~capacity:n ~on:true () in
  let sp_o = Spans.name tro Spans.root in
  let on_wall = ref 0. and off_wall = ref 0. in
  let chunk = 250 in
  let run_chunk k ~on =
    Obs.set_enabled on;
    let dyn = if on then traced else plain in
    let (), d =
      Util.time (fun () ->
          for i = k to Int.min n (k + chunk) - 1 do
            if on then ignore (Spans.span tro sp_o ~req:i (fun () -> dyn_op dyn ops.(i)))
            else ignore (Sys.opaque_identity (dyn_op dyn ops.(i)))
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
  ignore (Sys.opaque_identity (traced, plain));
  (* Attribution of the timed wall. *)
  let sel f = Array.of_list (List.filteri (fun i _ -> f i) (Array.to_list sess_dur)) in
  let sum_if f = Util.sum (Array.mapi (fun i d -> if f i then d else 0.) sess_dur) in
  let is_ins i = match ops.(i) with Gen.Ins _ -> true | _ -> false in
  let is_del i = match ops.(i) with Gen.Del _ -> true | _ -> false in
  let is_w i = Gen.is_write ops.(i) in
  let reconcile = Spans.unattributed_pct [ tr; trs; trj ] ~wall in
  let total c = Util.sum (Util.Fcol.to_array c) in
  let journal = Util.Fcol.to_array journal in
  Util.log
    "ingest trace: session replay %.3f s = snapshot ops %.3f s (capture %.3f + encode %.3f + write %.3f measured apart) + other writes %.3f s (fsync-bearing %.3f s) + best %.3f s; alongside: shadow Dynamic %.3f s, WAL appends %.3f s"
    sess_wall (sum_if (fun i -> snap_op.(i)))
    (total capture) (total encode) (total write)
    (sum_if (fun i -> is_w i && not snap_op.(i)))
    (sum_if (fun i -> fsync_op.(i) && not snap_op.(i)))
    (sum_if (fun i -> not (is_w i)))
    shadow_wall journal_wall;
  Spans.save tr "ingest.session";
  Spans.save trs "ingest.shadow";
  Spans.save trj "ingest.journal";
  let one = Metrics.one in
  let per_write x = one (Float.of_int x /. Float.of_int (Int.max 1 nwrites)) in
  let gc_per kind h =
    one (Option.value ~default:0. (Hashtbl.find_opt h kind) /. Option.value ~default:1. (Hashtbl.find_opt gc_n kind))
  in
  let mean_ms c = one (Util.mean (Util.Fcol.to_array c) *. 1e3) in
  let values =
    List.concat
      [
        Metrics.pcts "session.insert_us" ~scale:1e6 (sel is_ins);
        Metrics.pcts "session.delete_us" ~scale:1e6 (sel is_del);
        Metrics.pcts "session.journal_us" ~scale:1e6 journal;
        [
          ("wal.records_per_op", per_write !d_records);
          ("wal.bytes_per_op", per_write !d_bytes);
          ("wal.fsyncs", one (Float.of_int !d_fsyncs));
        ];
        Metrics.pcts "session.fsync_op_us" ~scale:1e6 (sel (fun i -> fsync_op.(i) && not snap_op.(i)));
        [
          ("snapshot.writes", one (Float.of_int !d_snaps));
          ("snapshot.bytes", one (Float.of_int !d_snap_bytes));
          ("snapshot.op_ms", one (Util.mean (sel (fun i -> snap_op.(i))) *. 1e3));
          ("snapshot.capture_ms", mean_ms capture);
          ("snapshot.encode_ms", mean_ms encode);
          ("snapshot.write_ms", mean_ms write);
        ];
        List.map (fun (k, v) -> (k, one v)) (Prep.recovery_metrics recov);
        Metrics.pcts "dynamic.insert_us" ~scale:1e6
          (Array.of_list (List.filteri (fun i _ -> is_ins i) (Array.to_list dyn_dur)));
        Metrics.pcts "dynamic.delete_us" ~scale:1e6
          (Array.of_list (List.filteri (fun i _ -> is_del i) (Array.to_list dyn_dur)));
        Metrics.pcts "dynamic.best_us" ~scale:1e6
          (Array.of_list (List.filteri (fun i _ -> not (is_w i)) (Array.to_list dyn_dur)));
        [
          ("samples.visited_per_write", per_write visited);
          ("grid.cells_per_write", per_write cells);
          ("dynamic.epochs", one (Float.of_int epochs));
        ];
        List.concat_map
          (fun k ->
            [ ("gc.minor_words_per_op." ^ k, gc_per k gc_minor); ("gc.promoted_words_per_op." ^ k, gc_per k gc_prom) ])
          [ "insert"; "delete"; "best" ];
        [
          ("replay.top_heap_mb", one top_heap);
          ("trace.overhead_pct", one ((!on_wall -. !off_wall) /. !off_wall *. 100.));
          ("trace.reconcile_pct", one reconcile);
        ];
      ]
  in
  (t, values)
