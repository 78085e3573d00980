(* Child processes, the run's work directory, and cleanup on every exit
   path: normal end, failed check, uncaught exception, or signal. *)

let children : (int, string) Hashtbl.t = Hashtbl.create 8
let work_dir = ref None

(* The process under test runs on this CPU (through [taskset]) and the
   load on another, when the host has two. *)
let sut_cpu : int option ref = ref None

(* Ambient switches that would change what the process under test does
   or records. *)
let scrubbed = [ "MAXRS_DOMAINS"; "MAXRS_STATS"; "MAXRS_FAULTS"; "MAXRS_NET_FAULTS" ]

let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not
           (List.exists
              (fun k -> String.starts_with ~prefix:(k ^ "=") kv)
              scrubbed))
  |> Array.of_list

let in_path prog =
  match Sys.getenv_opt "PATH" with
  | None -> false
  | Some p ->
      String.split_on_char ':' p
      |> List.exists (fun d -> d <> "" && Sys.file_exists (Filename.concat d prog))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec waitpid_noeintr pid =
  match Unix.waitpid [] pid with
  | r -> Some r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid
  | exception Unix.Unix_error _ -> None

let reap pid =
  ignore (waitpid_noeintr pid);
  Hashtbl.remove children pid

let kill_reap ?(signal = Sys.sigkill) pid =
  if Hashtbl.mem children pid then begin
    (try Unix.kill pid signal with Unix.Unix_error _ -> ());
    reap pid
  end

(* SIGTERM, then SIGKILL if the child has not exited within [grace]. *)
let stop ?(grace = 20.) pid =
  if Hashtbl.mem children pid then begin
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Util.now () +. grace in
    let rec poll () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          if Util.now () > deadline then kill_reap pid
          else begin
            Unix.sleepf 0.01;
            poll ()
          end
      | _, st ->
          Hashtbl.remove children pid;
          ignore st
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
      | exception Unix.Unix_error _ -> Hashtbl.remove children pid
    in
    poll ()
  end

let cleanup () =
  Hashtbl.fold (fun pid _ acc -> pid :: acc) children []
  |> List.iter (fun pid -> kill_reap pid);
  match !work_dir with
  | Some d ->
      work_dir := None;
      (try Sys.chdir Filename.parent_dir_name with Sys_error _ -> ());
      rm_rf d
  | None -> ()

let install_cleanup () =
  at_exit cleanup;
  let on_signal s =
    cleanup ();
    exit (128 + if s = Sys.sigint then 2 else if s = Sys.sighup then 1 else 15)
  in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle on_signal))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Enter a fresh work directory named [dir] (relative paths keep Unix
   socket names short); it is deleted on exit. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let enter_work_dir dir =
  rm_rf dir;
  mkdir_p dir;
  let abs = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  work_dir := Some abs;
  Sys.chdir abs

(* Spawn [prog args] on the process-under-test CPU, with the scrubbed
   environment. *)
let spawn ?(stdin = Unix.stdin) ?(stdout = Unix.stdout) ?(stderr = Unix.stderr) ~label prog args =
  let prog, argv =
    match !sut_cpu with
    | Some cpu ->
        ("taskset", Array.of_list ("taskset" :: "-c" :: string_of_int cpu :: prog :: args))
    | _ -> (prog, Array.of_list (prog :: args))
  in
  let pid = Unix.create_process_env prog argv (child_env ()) stdin stdout stderr in
  Hashtbl.replace children pid label;
  pid

(* Peak resident set (VmHWM) of a live process, in MB. *)
let vm_hwm_mb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             if String.starts_with ~prefix:"VmHWM:" l then
               Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                   Float.of_int kb /. 1024.)
             else None)
      |> Option.value ~default:0.

let read_file path = In_channel.with_open_bin path In_channel.input_all

let tail path ~lines =
  match read_file path with
  | exception Sys_error _ -> "(no log)"
  | s ->
      let ls = String.split_on_char '\n' s in
      let n = List.length ls in
      String.concat "\n" (List.filteri (fun i _ -> i >= n - lines) ls)

let copy_file src dst =
  let data = read_file src in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* Copy every regular file of [src] into a fresh directory [dst]. *)
let copy_dir src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f -> copy_file (Filename.concat src f) (Filename.concat dst f))
    (Sys.readdir src)

let contains ~needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* Poll [log] until it contains [needle]. [Error] with the log's tail
   when the child exits first or the wait times out. *)
let wait_for_line ~pid ~log ~needle ~timeout =
  let deadline = Util.now () +. timeout in
  let rec poll () =
    let s = try read_file log with Sys_error _ -> "" in
    if contains ~needle s then Ok ()
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | p, _ when p = pid ->
          Hashtbl.remove children pid;
          Error (Printf.sprintf "exited before %S; log tail:\n%s" needle (tail log ~lines:20))
      | _ ->
          if Util.now () > deadline then
            Error
              (Printf.sprintf "no %S within %.0f s; log tail:\n%s" needle timeout
                 (tail log ~lines:20))
          else begin
            Unix.sleepf 0.001;
            poll ()
          end
  in
  poll ()
