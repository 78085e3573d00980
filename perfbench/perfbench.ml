(* perfbench — the repository benchmark.

   Subcommands:
     run --workload W --seed N --seconds S --trace 0|1 --serverd PATH
         --work-dir D --spans-dir D [--size full|smoke] [--sut-cpu C]
         [--rev R] [--nproc P]
       Run one workload. The last line of standard output is the JSON
       result; with --trace 0 it carries the end-to-end metrics, with
       --trace 1 the per-layer ones.
     prepare --dir D --seed N --size S        (child) write the prepared session
     ingest-child --wal F --seed N --size S --out F [--setup-only 1]
                                              (child) the ingest process under test
     script --workload W --seed N [--size S]  print the seeded request script
     planted                                  check that every check rejects a
                                              planted wrong answer
     metrics                                  list every metric name and unit

   perfbench/run.py builds this and the daemon, pins the processes, and
   calls [run]. *)

let usage () =
  prerr_endline "usage: perfbench (run|prepare|ingest-child|script|planted|metrics) [--key value ...]";
  exit 2

let parse args =
  let tbl = Hashtbl.create 16 in
  let rec go = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        Hashtbl.replace tbl k v;
        go rest
    | [] -> ()
    | k :: _ ->
        Printf.eprintf "perfbench: unexpected argument %S\n" k;
        usage ()
  in
  go args;
  tbl

let get o k =
  match Hashtbl.find_opt o k with
  | Some v -> v
  | None ->
      Printf.eprintf "perfbench: missing %s\n" k;
      usage ()

let int_arg o k =
  match int_of_string_opt (get o k) with
  | Some v -> v
  | None ->
      Printf.eprintf "perfbench: %s expects an integer\n" k;
      usage ()

let size_arg o =
  match Gen.size_of_string (Option.value ~default:"full" (Hashtbl.find_opt o "--size")) with
  | Some s -> s
  | None ->
      prerr_endline "perfbench: --size expects full or smoke";
      usage ()

let workloads = [ "ingest"; "serve_reads"; "solve_mix" ]

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let run o =
  let workload = get o "--workload" in
  if not (List.mem workload workloads) then begin
    Printf.eprintf "perfbench: unknown workload %S (expected %s)\n" workload (String.concat ", " workloads);
    exit 2
  end;
  let seed = int_arg o "--seed" in
  let seconds =
    match float_of_string_opt (get o "--seconds") with
    | Some s when s > 0. -> s
    | _ ->
        prerr_endline "perfbench: --seconds expects a positive number";
        exit 2
  in
  let trace =
    match get o "--trace" with
    | "0" -> false
    | "1" -> true
    | _ ->
        prerr_endline "perfbench: --trace expects 0 or 1";
        exit 2
  in
  let size = size_arg o in
  let serverd = absolute (get o "--serverd") in
  if not (Sys.file_exists serverd) then begin
    Printf.eprintf "perfbench: maxrs_serverd binary missing: %s\n" serverd;
    exit 3
  end;
  let self = absolute Sys.executable_name in
  if Hashtbl.mem o "--sut-cpu" then begin
    if not (Proc.in_path "taskset") then begin
      prerr_endline "perfbench: --sut-cpu needs taskset on PATH to pin the process under test";
      exit 3
    end;
    Proc.sut_cpu := Some (int_arg o "--sut-cpu")
  end;
  Spans.out_dir := absolute (get o "--spans-dir");
  let work = get o "--work-dir" in
  Proc.install_cleanup ();
  Proc.enter_work_dir work;
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d size=%s\n" workload seed seconds
    (Bool.to_int trace) (Gen.size_to_string size);
  Printf.printf "  nproc=%s ocaml=%s rev=%s sut_cpu=%s\n%!"
    (Option.value ~default:"?" (Hashtbl.find_opt o "--nproc"))
    Sys.ocaml_version
    (Option.value ~default:"unknown" (Hashtbl.find_opt o "--rev"))
    (match !Proc.sut_cpu with Some c -> string_of_int c | None -> "unpinned");
  (* Daemon set-ups per run; [setup_s] is their median. *)
  let reps n = match size with Gen.Full -> n | Gen.Smoke -> 1 in
  let tally, metrics =
    match (workload, trace) with
    | "ingest", false -> Ingest.run ~self ~size ~seed ~seconds
    | "serve_reads", false -> Serve.run_reads ~self ~serverd ~size ~seed ~seconds ~reps:(reps 5)
    | "solve_mix", false -> Serve.run_mix ~serverd ~size ~seed ~seconds ~reps:(reps 21)
    | w, true ->
        let t, values =
          match w with
          | "ingest" -> Ingest.trace ~self ~size ~seed
          | "serve_reads" -> Serve.trace_reads ~self ~serverd ~size ~seed ~seconds
          | _ -> Serve.trace_mix ~serverd ~size ~seed ~seconds
        in
        (t, Metrics.emit Metrics.per_layer values)
    | _ -> assert false
  in
  Printf.printf "%s metrics (%s):\n" (if trace then "per-layer" else "end-to-end") workload;
  Util.print_metrics metrics;
  Printf.printf "  checks: %d attempted, %d failed\n" tally.Util.attempted tally.Util.failed;
  let result =
    List.filter (fun m -> not (List.mem m.Util.name Metrics.printed_only)) metrics
  in
  print_endline
    (Util.result_line ~correct:(tally.Util.failed = 0) ~attempted:tally.Util.attempted
       ~failed:tally.Util.failed result);
  flush stdout

(* {1 Planted wrong answers} — each check must reject them. *)

let flip_bit x = Int64.float_of_bits (Int64.logxor (Int64.bits_of_float x) 1L)

let planted () =
  let module P = Maxrs_server.Proto in
  let failures = ref 0 in
  let expect name ~reject r =
    let ok = match r with Ok () -> not reject | Error _ -> reject in
    Printf.printf "%-60s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  (* solve_mix: a single flipped float bit, in each float field *)
  let pools = Gen.pools ~size:Gen.Smoke ~seed:1 in
  Array.iter
    (fun kind ->
      let req = Gen.solve_request pools kind 0 in
      let expected = Expect.solve req in
      expect (Printf.sprintf "solve %s: the reference itself" (Gen.kind_name kind)) ~reject:false
        (Expect.reply ~expected expected);
      match expected with
      | P.Solved o ->
          let a = Maxrs_resilience.Outcome.value o in
          List.iter
            (fun (field, a') ->
              expect
                (Printf.sprintf "solve %s: one bit flipped in %s" (Gen.kind_name kind) field)
                ~reject:true
                (Expect.reply ~expected (P.Solved (Maxrs_resilience.Outcome.map (fun _ -> a') o))))
            [
              ("x", { a with P.x = flip_bit a.P.x });
              ("y", { a with P.y = flip_bit a.P.y });
              ("value", { a with P.value = flip_bit a.P.value });
              ("verified", { a with P.verified = not a.P.verified });
            ];
          expect
            (Printf.sprintf "solve %s: outcome status changed" (Gen.kind_name kind))
            ~reject:true
            (Expect.reply ~expected (P.Solved (Maxrs_resilience.Outcome.Degraded a)))
      | _ -> expect "solve reference is a Solved reply" ~reject:false (Error "not solved"))
    Gen.kinds;
  (* serve_reads: range replies *)
  let pts = Gen.prepared ~size:Gen.Smoke ~seed:1 in
  let proj a = Maxrs_sweep.Interval1d.preprocess (Array.map (fun (x, _, w) -> (x, w)) a) in
  let b = proj pts in
  let last_x, _, _ = pts.(Array.length pts - 1) in
  let lo = last_x -. 2. and hi = last_x +. 2. in
  let seg = Expect.seg_ref b ~lo ~hi in
  let reply ?(epoch = 1) ?(lag_ops = 0) seg = P.Range_best { seg; epoch; lag_ops } in
  expect "range: the reference itself" ~reject:false (Expect.range ~b ~lo ~hi ~warm:true (reply seg));
  (match seg with
  | Some (l, h, s) ->
      expect "range: one bit flipped in the sum" ~reject:true
        (Expect.range ~b ~lo ~hi ~warm:true (reply (Some (l, h, flip_bit s))))
  | None -> expect "range: reference segment exists" ~reject:false (Error "empty"));
  let older = proj (Array.sub pts 0 (Array.length pts - 1)) in
  let stale = Expect.seg_ref older ~lo ~hi in
  expect "range: the older live set answers differently" ~reject:true
    (if Expect.seg_equal stale seg then Ok () else Error "differs");
  expect "range: lag-0 reply computed from an older live set" ~reject:true
    (Expect.range ~b ~lo ~hi ~warm:true (reply stale));
  expect "range: lag_ops 1" ~reject:true (Expect.range ~b ~lo ~hi ~warm:true (reply ~lag_ops:1 seg));
  expect "range: cold reply in the timed phase" ~reject:true
    (Expect.range ~b ~lo ~hi ~warm:true (reply ~epoch:0 seg));
  (* serve_reads Query and ingest best: one flipped bit *)
  let best = Some (1.5, -2.25, 3.125) in
  expect "best: the reference itself" ~reject:false (Expect.best ~expected:best (P.Best best));
  expect "best: one bit flipped in the value" ~reject:true
    (Expect.best ~expected:best (P.Best (Some (1.5, -2.25, flip_bit 3.125))));
  expect "best: one bit flipped in x" ~reject:true
    (Expect.best ~expected:best (P.Best (Some (flip_bit 1.5, -2.25, 3.125))));
  expect "ingest oracle: one bit flipped" ~reject:true
    (if Expect.best_equal best (Some (1.5, flip_bit (-2.25), 3.125)) then Ok () else Error "differs");
  (* trace reconciliation: work between layer calls that no span records *)
  let unattributed ~unrecorded =
    let t = Spans.create ~capacity:60_000 ~on:true () in
    let root = Spans.name t Spans.root and a = Spans.name t "a" and b = Spans.name t "b" in
    let busy d =
      let t0 = Util.now () in
      while Util.now () -. t0 < d do
        ()
      done
    in
    let (), wall =
      Util.time (fun () ->
          for i = 0 to 19_999 do
            Spans.span t root ~req:i (fun () ->
                Spans.span t a ~req:i (fun () -> busy 2e-6);
                if unrecorded then busy 1e-6;
                Spans.span t b ~req:i (fun () -> busy 2e-6))
          done)
    in
    Spans.unattributed_pct [ t ] ~wall
  in
  let reconciles pct = if pct <= 5. then Ok () else Error (Printf.sprintf "%.1f%% unattributed" pct) in
  (* Best of three: a preemption that lands between two spans is not
     work the replay left out. *)
  expect "reconcile: every call inside a layer span" ~reject:false
    (reconciles (List.fold_left Float.min Float.infinity (List.init 3 (fun _ -> unattributed ~unrecorded:false))));
  expect "reconcile: 1 us unrecorded between two 2 us layer calls" ~reject:true
    (reconciles (unattributed ~unrecorded:true));
  if !failures > 0 then begin
    Printf.printf "%d planted answers were not rejected\n" !failures;
    exit 1
  end

(* Harness errors (a daemon that does not come up, a child that dies)
   end the run without a result; the message carries the log tail. *)
let run o =
  try run o with
  | Failure msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1
  | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "perfbench: %s %s: %s\n" fn arg (Unix.error_message e);
      exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run (parse rest)
  | "prepare" :: rest ->
      let o = parse rest in
      Prep.write_layout ~size:(size_arg o) ~seed:(int_arg o "--seed") ~dir:(get o "--dir")
  | "ingest-child" :: rest ->
      let o = parse rest in
      Ingest.child ~size:(size_arg o) ~seed:(int_arg o "--seed") ~wal:(get o "--wal")
        ~out:(get o "--out")
        ~setup_only:(Hashtbl.mem o "--setup-only")
  | "script" :: rest ->
      let o = parse rest in
      print_string (Gen.script_bytes ~workload:(get o "--workload") ~size:(size_arg o) ~seed:(int_arg o "--seed"))
  | [ "planted" ] -> planted ()
  | [ "metrics" ] ->
      List.iter (fun (n, u) -> Printf.printf "end_to_end %s %s\n" n u) Metrics.end_to_end;
      List.iter (fun (n, u) -> Printf.printf "per_layer %s %s\n" n u) Metrics.per_layer
  | _ -> usage ()
