(* The MaxRS network daemon.

   One accept thread, one reader thread per connection, a bounded work
   queue, and a fixed pool of worker threads executing solves and
   writes under per-request {!Maxrs_resilience.Budget}s. A reader
   answers [Ping], [Stats] and the O(log n) reads of published state
   (an indexed [Range_sum], a [Query]) itself, with no hand-off, when
   its connection has nothing queued or in flight. Robustness
   decisions, in order of appearance on a request's path:

   - Admission control at two gates: connections above [max_conns] are
     refused with an [Overloaded] reply, and requests that would push
     the work queue past [queue_cap] are rejected the same way, with a
     retry-after hint derived from the observed service rate. The
     queue never grows without bound; shedding is explicit.
   - Per-request deadlines: each solve runs under a budget (its own,
     else the server default) and degrades to the Theorem-1.2/1.6
     approximations on expiry; the reply carries the degradation
     status ([Complete]/[Degraded]/[Partial]) on the wire.
   - Hardened connection path: torn frames, CRC flips, oversized
     lengths, slow-loris writers and mid-request disconnects are all
     structured errors from {!Netio}; each closes (or answers on) just
     that connection. The daemon itself never goes down with a client.
   - Graceful drain: {!begin_drain} stops accepting, re-clamps every
     queued budget to the drain grace (in-flight work finishes or
     degrades), flushes the WAL-backed session, and {!wait} returns —
     the binary then exits 0. *)

module Budget = Maxrs_resilience.Budget
module Outcome = Maxrs_resilience.Outcome
module Guard = Maxrs_resilience.Guard
module Resilient = Maxrs.Resilient
module Static = Maxrs.Static
module Dynamic = Maxrs.Dynamic
module Config = Maxrs.Config
module Interval1d = Maxrs_sweep.Interval1d
module Session = Maxrs_durable.Session
module Wal = Maxrs_durable.Wal
module Obs = Maxrs_obs.Obs
module Rmsq = Maxrs_query.Rmsq
module Epoch = Maxrs_query.Epoch
module Index_builder = Maxrs_query.Index_builder

(* Mirrored into Obs (no-ops unless stats recording is on); the
   authoritative copies are the server's own atomics, so the [Stats]
   protocol request works regardless of Obs enablement. *)
let c_accepted = Obs.counter "server.accepted"
let c_rejected = Obs.counter "server.rejected"
let c_degraded = Obs.counter "server.degraded"
let c_timeouts = Obs.counter "server.timeouts"
let c_disconnects = Obs.counter "server.disconnects"
let c_protocol_errors = Obs.counter "server.protocol_errors"
let h_latency = Obs.histogram "server.latency_us"

type config = {
  addr : Netio.addr;
  workers : int;
  queue_cap : int;
  max_conns : int;
  max_frame : int;
  idle_timeout : float;
  read_deadline : float;
  write_deadline : float;
  default_deadline : float option;
  drain_grace : float;
  wal : string option;
  fsync : Wal.fsync_policy;
  snapshot_every : int;
  shards : int option;
  domains : int option;
  index : bool;
}

let default_config addr =
  {
    addr;
    workers = 2;
    queue_cap = 64;
    max_conns = 64;
    max_frame = 1 lsl 23;
    idle_timeout = 30.;
    read_deadline = 10.;
    write_deadline = 10.;
    default_deadline = None;
    drain_grace = 2.;
    wal = None;
    fsync = Wal.Interval 64;
    snapshot_every = 1000;
    shards = None;
    domains = None;
    index = true;
  }

(* {1 Latency histogram}

   Power-of-two microsecond buckets, like Obs histograms, but owned by
   the server instance so the [Stats] reply works with recording off.
   Quantiles report the bucket upper bound: a factor-2 overestimate at
   worst, which is the honest resolution at this cost. *)

module Lat = struct
  let buckets = 40

  type t = { counts : int array; m : Mutex.t }

  let create () = { counts = Array.make buckets 0; m = Mutex.create () }

  let bucket_of us =
    if us <= 0 then 0
    else
      let rec go i v = if v = 0 || i = buckets - 1 then i else go (i + 1) (v lsr 1) in
      go 0 us

  let observe t us =
    Mutex.lock t.m;
    let b = bucket_of us in
    t.counts.(b) <- t.counts.(b) + 1;
    Mutex.unlock t.m

  let snapshot t =
    Mutex.lock t.m;
    let c = Array.copy t.counts in
    Mutex.unlock t.m;
    c

  (* Upper bound of the bucket holding the q-quantile observation. *)
  let quantile counts q =
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then 0
    else begin
      let rank = Float.to_int (Float.of_int total *. q) + 1 in
      let rank = Int.min rank total in
      let cum = ref 0 and ans = ref 0 in
      (try
         Array.iteri
           (fun i c ->
             cum := !cum + c;
             if !cum >= rank then begin
               ans := (if i = 0 then 1 else 1 lsl i);
               raise Stdlib.Exit
             end)
           counts
       with Stdlib.Exit -> ());
      !ans
    end
end

(* {1 Server state} *)

type conn = {
  nc : Netio.Conn.t;
  wm : Mutex.t;  (* serializes reply writes from workers *)
  mutable alive : bool;
  pending : int Atomic.t;
      (* this connection's requests queued or in flight on a worker *)
}

type job = { jconn : conn; jid : int; jreq : Proto.request; jenq : float }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  m : Mutex.t;
  nonempty : Condition.t;
  drained : Condition.t;
  queue : job Queue.t;
  mutable queued : int;
  mutable inflight : int;
  mutable conns : int;
  mutable draining : bool;
  mutable drain_deadline : float;
  mutable accept_done : bool;
  session : Session.t option;
  session_m : Mutex.t;
  epoch : Epoch.t;
  mutable builder : Index_builder.t option;
  lat : Lat.t;
  started : float;
  (* service-time EWMA (ms), feeding the Retry-After hint *)
  mutable ewma_ms : float;
  accepted : int Atomic.t;
  rejected : int Atomic.t;
  completed : int Atomic.t;
  degraded : int Atomic.t;
  partial : int Atomic.t;
  invalid : int Atomic.t;
  protocol_errors : int Atomic.t;
  timeouts : int Atomic.t;
  disconnects : int Atomic.t;
  mutable threads : Thread.t list;
}

let now () = Unix.gettimeofday ()

let incr_a ?obs a =
  Atomic.incr a;
  match obs with None -> () | Some c -> Obs.incr c

(* {1 Replies} *)

let send_reply t conn ~id reply =
  let payload = Proto.encode_reply ~id reply in
  Mutex.lock conn.wm;
  let r =
    if conn.alive then
      Netio.Conn.send ~deadline:t.cfg.write_deadline conn.nc payload
    else Error Netio.Closed
  in
  Mutex.unlock conn.wm;
  match r with
  | Ok () -> true
  | Error Netio.Timeout ->
      (* Slow-loris on the write side: the peer stopped draining. *)
      incr_a ~obs:c_timeouts t.timeouts;
      conn.alive <- false;
      false
  | Error _ ->
      incr_a ~obs:c_disconnects t.disconnects;
      conn.alive <- false;
      false

let retry_after_ms t =
  (* Backpressure hint: time to drain the current backlog at the
     observed service rate, floored so clients always back off a
     little. *)
  let backlog = Float.of_int (t.queued + t.inflight) in
  let per = Float.max t.ewma_ms 1. in
  Int.max 25 (Float.to_int (backlog *. per /. Float.of_int t.cfg.workers))

let overloaded t =
  Proto.Error_reply
    {
      code = Proto.Overloaded;
      retry_after_ms = retry_after_ms t;
      msg = "work queue full";
    }

(* {1 Request execution} *)

let guard_msg e = Guard.to_string e

let source_of = function
  | Resilient.Exact -> Proto.Exact
  | Resilient.Approx_fallback -> Proto.Approx_fallback
  | Resilient.Best_so_far -> Proto.Best_so_far

(* Effective compute budget: the request's own deadline, else the
   server default; when draining, additionally clamped to the grace
   remaining so in-flight work degrades instead of stalling drain. *)
let effective_deadline t req_deadline =
  let d =
    match req_deadline with Some d -> Some d | None -> t.cfg.default_deadline
  in
  if not t.draining then d
  else
    let rem = Float.max 0.01 (t.drain_deadline -. now ()) in
    Some (match d with Some d -> Float.min d rem | None -> rem)

let count_outcome t (outcome : _ Outcome.t) =
  match outcome with
  | Outcome.Complete _ -> incr_a t.completed
  | Outcome.Degraded _ -> incr_a ~obs:c_degraded t.degraded
  | Outcome.Partial _ -> incr_a ~obs:c_degraded t.partial

(* The lock that serializes session ops: writes, [Query], the cold
   [Range_sum]'s capture and the index builder's. *)
let with_session_lock t f = Mutex.protect t.session_m f

let session_op t f =
  match t.session with
  | None ->
      Error
        (Guard.Invalid_input
           {
             field = "session";
             index = None;
             reason = "server has no durable session (started without --wal)";
           })
  | Some sess -> with_session_lock t (fun () -> f sess)

let execute t (req : Proto.request) : Proto.reply =
  match req with
  | Proto.Ping -> Proto.Pong
  | Proto.Stats -> assert false (* answered inline, never queued *)
  | Proto.Solve_weighted { radius; deadline; points } -> (
      let deadline = effective_deadline t deadline in
      match Resilient.exact_weighted ?deadline ~radius points with
      | Error e ->
          incr_a t.invalid;
          Proto.Error_reply
            { code = Proto.Invalid; retry_after_ms = 0; msg = guard_msg e }
      | Ok outcome ->
          count_outcome t outcome;
          Proto.Solved
            (Outcome.map
               (fun (r : Resilient.weighted_result) ->
                 {
                   Proto.x = r.Resilient.wx;
                   y = r.Resilient.wy;
                   value = r.Resilient.value;
                   verified = r.Resilient.wverified;
                   source = source_of r.Resilient.wsource;
                 })
               outcome))
  | Proto.Solve_colored { radius; deadline; seed; max_shifts; points; colors }
    -> (
      let deadline = effective_deadline t deadline in
      match
        Resilient.exact_colored ~radius ?max_shifts ~seed ?deadline points
          ~colors
      with
      | Error e ->
          incr_a t.invalid;
          Proto.Error_reply
            { code = Proto.Invalid; retry_after_ms = 0; msg = guard_msg e }
      | Ok outcome ->
          count_outcome t outcome;
          Proto.Solved
            (Outcome.map
               (fun (r : Resilient.colored_result) ->
                 {
                   Proto.x = r.Resilient.x;
                   y = r.Resilient.y;
                   value = Float.of_int r.Resilient.depth;
                   verified = r.Resilient.verified;
                   source = source_of r.Resilient.source;
                 })
               outcome))
  | Proto.Solve_static { radius; epsilon; seed; max_shifts; points } -> (
      let cfg = Config.make ~epsilon ~max_grid_shifts:max_shifts ~seed () in
      let pts =
        Array.map (fun (x, y, w) -> ([| x; y |], w)) points
      in
      match Static.solve_checked ~cfg ~radius ~dim:2 pts with
      | Error e ->
          incr_a t.invalid;
          Proto.Error_reply
            { code = Proto.Invalid; retry_after_ms = 0; msg = guard_msg e }
      | Ok None ->
          incr_a t.invalid;
          Proto.Error_reply
            {
              code = Proto.Invalid;
              retry_after_ms = 0;
              msg = "no placement found (degenerate input)";
            }
      | Ok (Some r) ->
          incr_a t.completed;
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
      | Error e ->
          incr_a t.invalid;
          Proto.Error_reply
            { code = Proto.Invalid; retry_after_ms = 0; msg = guard_msg e }
      | Ok p ->
          incr_a t.completed;
          Proto.Solved
            (Outcome.Complete
               {
                 Proto.x = p.Interval1d.lo;
                 y = p.Interval1d.lo +. len;
                 value = p.Interval1d.value;
                 verified = false;
                 source = Proto.Exact;
               }))
  | Proto.Insert { x; y; weight } -> (
      let checked =
        let ( let* ) = Guard.( let* ) in
        let* () = Guard.finite ~field:"x" x in
        let* () = Guard.finite ~field:"y" y in
        let* () = Guard.finite ~field:"weight" weight in
        Ok ()
      in
      match checked with
      | Error e ->
          incr_a t.invalid;
          Proto.Error_reply
            { code = Proto.Invalid; retry_after_ms = 0; msg = guard_msg e }
      | Ok () -> (
          match
            session_op t (fun sess ->
                let h = Session.insert sess ~weight [| x; y |] in
                Ok (Dynamic.handle_id h, Session.seq sess))
          with
          | Error e ->
              incr_a t.invalid;
              Proto.Error_reply
                { code = Proto.Invalid; retry_after_ms = 0; msg = guard_msg e }
          | Ok (handle, seq) ->
              incr_a t.completed;
              Proto.Inserted { handle; seq }))
  | Proto.Delete { handle } -> (
      match
        session_op t (fun sess ->
            match Session.delete sess (Dynamic.handle_of_id handle) with
            | () -> Ok (Session.seq sess)
            | exception Not_found ->
                Guard.invalid ~field:"handle"
                  (Printf.sprintf "handle %d is not live" handle))
      with
      | Error e ->
          incr_a t.invalid;
          Proto.Error_reply
            { code = Proto.Invalid; retry_after_ms = 0; msg = guard_msg e }
      | Ok seq ->
          incr_a t.completed;
          Proto.Deleted { seq })
  | Proto.Query -> (
      match
        session_op t (fun sess ->
            Ok
              (match Session.best sess with
              | Some (p, v) -> Some (p.(0), p.(1), v)
              | None -> None))
      with
      | Error e ->
          incr_a t.invalid;
          Proto.Error_reply
            { code = Proto.Invalid; retry_after_ms = 0; msg = guard_msg e }
      | Ok best ->
          incr_a t.completed;
          Proto.Best best)
  | Proto.Range_sum { lo; hi } -> (
      if Float.is_nan lo || Float.is_nan hi then begin
        incr_a t.invalid;
        Proto.Error_reply
          {
            code = Proto.Invalid;
            retry_after_ms = 0;
            msg = "range bounds must not be NaN";
          }
      end
      else
        (* Hot path: one atomic load of the live epoch, then a lock-free
           O(log n) query against the immutable index, tagged with the
           lag of the entry served against the session's published seq
           (an atomic load too: no lock is taken). Cold path (no epoch
           yet): capture the state under the lock and answer with the
           index-free reference scan — bit-identical, just O(n). *)
        match (Epoch.current t.epoch, t.session) with
        | Some e, Some sess ->
            let now_seq = Session.seq sess in
            Epoch.hit ();
            incr_a t.completed;
            let seg =
              Rmsq.max_sum_in_coords e.Epoch.index ~lo ~hi
              |> Option.map (fun s -> (s.Rmsq.s_lo, s.Rmsq.s_hi, s.Rmsq.s_sum))
            in
            let lag_ops = Epoch.lag_of e ~now_seq in
            Proto.Range_best { seg; epoch = e.Epoch.epoch; lag_ops }
        | _ -> (
            match session_op t (fun sess -> Ok (Session.state sess)) with
            | Error e ->
                incr_a t.invalid;
                Proto.Error_reply
                  {
                    code = Proto.Invalid;
                    retry_after_ms = 0;
                    msg = guard_msg e;
                  }
            | Ok state ->
                Epoch.fallback ();
                incr_a t.completed;
                let b = Interval1d.preprocess (Rmsq.project_state state) in
                let seg =
                  Rmsq.scan_coords b ~lo ~hi
                  |> Option.map (fun s ->
                         (s.Rmsq.s_lo, s.Rmsq.s_hi, s.Rmsq.s_sum))
                in
                Proto.Range_best { seg; epoch = 0; lag_ops = 0 }))

let execute_safe t req =
  try execute t req
  with e ->
    Proto.Error_reply
      {
        code = Proto.Internal;
        retry_after_ms = 0;
        msg = Printexc.to_string e;
      }

(* {1 Stats} *)

let stats t =
  Mutex.lock t.m;
  let queue_depth = t.queued and inflight = t.inflight and conns = t.conns in
  Mutex.unlock t.m;
  let counts = Lat.snapshot t.lat in
  let buckets = ref [] in
  Array.iteri
    (fun i c -> if c > 0 then buckets := (i, c) :: !buckets)
    counts;
  {
    Proto.uptime_s = now () -. t.started;
    conns_active = conns;
    queue_depth;
    inflight;
    accepted = Atomic.get t.accepted;
    rejected = Atomic.get t.rejected;
    completed = Atomic.get t.completed;
    degraded = Atomic.get t.degraded;
    partial = Atomic.get t.partial;
    invalid = Atomic.get t.invalid;
    protocol_errors = Atomic.get t.protocol_errors;
    timeouts = Atomic.get t.timeouts;
    disconnects = Atomic.get t.disconnects;
    p50_us = Lat.quantile counts 0.50;
    p99_us = Lat.quantile counts 0.99;
    latency_buckets = Array.of_list (List.rev !buckets);
  }

(* {1 Workers} *)

(* A request's latency in seconds, from admission to its reply sent. *)
let observe_latency t dt =
  let us = Float.to_int (dt *. 1e6) in
  Lat.observe t.lat us;
  Obs.observe h_latency us

let end_inflight t =
  t.inflight <- t.inflight - 1;
  if t.inflight = 0 && t.queued = 0 then Condition.broadcast t.drained

let worker_loop t =
  let continue = ref true in
  while !continue do
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.draining do
      Condition.wait t.nonempty t.m
    done;
    if Queue.is_empty t.queue then begin
      (* draining and nothing left: exit *)
      Condition.broadcast t.drained;
      Mutex.unlock t.m;
      continue := false
    end
    else begin
      let job = Queue.pop t.queue in
      t.queued <- t.queued - 1;
      t.inflight <- t.inflight + 1;
      Mutex.unlock t.m;
      let reply = execute_safe t job.jreq in
      ignore (send_reply t job.jconn ~id:job.jid reply : bool);
      (* Only once the reply is out may the reader answer this
         connection's next read itself. *)
      Atomic.decr job.jconn.pending;
      let dt = now () -. job.jenq in
      observe_latency t dt;
      Mutex.lock t.m;
      t.ewma_ms <- (0.9 *. t.ewma_ms) +. (0.1 *. dt *. 1000.);
      end_inflight t;
      Mutex.unlock t.m
    end
  done

(* {1 Connections} *)

let shutting_down =
  Proto.Error_reply
    {
      code = Proto.Shutting_down;
      retry_after_ms = 0;
      msg = "server is draining";
    }

(* An O(1) or O(log n) read of published state: [Query] (the store's
   best placement) or a [Range_sum] once an index epoch is live. The
   cold [Range_sum], an O(n) scan, goes to the queue. *)
let inline_read t = function
  | Proto.Query -> true
  | Proto.Range_sum _ -> Option.is_some (Epoch.current t.epoch)
  | _ -> false

(* Answer on the reader's own thread. The read counts as accepted and
   in flight like a queued one, so {!wait} does not close the session
   under it, and its latency runs from here to the reply sent; it is
   not part of the queue's service rate. *)
let serve_inline t conn ~id req =
  let since = now () in
  Mutex.lock t.m;
  if t.draining then begin
    Mutex.unlock t.m;
    ignore (send_reply t conn ~id shutting_down : bool)
  end
  else begin
    t.inflight <- t.inflight + 1;
    Mutex.unlock t.m;
    incr_a ~obs:c_accepted t.accepted;
    ignore (send_reply t conn ~id (execute_safe t req) : bool);
    observe_latency t (now () -. since);
    Mutex.lock t.m;
    end_inflight t;
    Mutex.unlock t.m
  end

let handle_request t conn ~id req =
  match req with
  | Proto.Ping -> ignore (send_reply t conn ~id Proto.Pong : bool)
  | Proto.Stats ->
      ignore (send_reply t conn ~id (Proto.Stats_reply (stats t)) : bool)
  | req when Atomic.get conn.pending = 0 && inline_read t req ->
      (* Nothing of this connection's is ahead of the read, so
         answering it now keeps the connection's replies in order. *)
      serve_inline t conn ~id req
  | req ->
      Mutex.lock t.m;
      if t.draining then begin
        Mutex.unlock t.m;
        ignore (send_reply t conn ~id shutting_down : bool)
      end
      else if t.queued >= t.cfg.queue_cap then begin
        let reply = overloaded t in
        Mutex.unlock t.m;
        incr_a ~obs:c_rejected t.rejected;
        ignore (send_reply t conn ~id reply : bool)
      end
      else begin
        Queue.push { jconn = conn; jid = id; jreq = req; jenq = now () } t.queue;
        t.queued <- t.queued + 1;
        Atomic.incr conn.pending;
        Condition.signal t.nonempty;
        Mutex.unlock t.m;
        incr_a ~obs:c_accepted t.accepted
      end

let conn_loop t conn =
  let continue = ref true in
  (try
     while !continue && conn.alive do
       match
         Netio.Conn.recv ~idle:t.cfg.idle_timeout ~frame:t.cfg.read_deadline
           ~max_frame:t.cfg.max_frame conn.nc
       with
       | Ok payload -> (
           match Proto.decode_request payload with
           | Ok (id, req) -> handle_request t conn ~id req
           | Error msg ->
               (* The frame itself was intact (CRC passed), so the
                  stream is still in sync: answer and keep serving. *)
               incr_a ~obs:c_protocol_errors t.protocol_errors;
               ignore
                 (send_reply t conn ~id:0
                    (Proto.Error_reply
                       {
                         code = Proto.Malformed_request;
                         retry_after_ms = 0;
                         msg;
                       })
                   : bool))
       | Error Netio.Closed ->
           (* Clean EOF at a frame boundary. *)
           continue := false
       | Error Netio.Timeout ->
           (* Slow-loris writer or dead peer: cut the connection. *)
           incr_a ~obs:c_timeouts t.timeouts;
           incr_a ~obs:c_protocol_errors t.protocol_errors;
           continue := false
       | Error ((Netio.Oversized _ | Netio.Crc_mismatch | Netio.Torn) as e) ->
           (* Framing is lost (or the peer vanished mid-frame): a
              best-effort structured error, then close — resyncing an
              untrusted byte stream is not worth the attack surface. *)
           incr_a ~obs:c_protocol_errors t.protocol_errors;
           let code =
             match e with
             | Netio.Oversized _ -> Proto.Too_large
             | _ -> Proto.Malformed_request
           in
           ignore
             (send_reply t conn ~id:0
                (Proto.Error_reply
                   {
                     code;
                     retry_after_ms = 0;
                     msg = Netio.error_to_string e;
                   })
               : bool);
           continue := false
       | Error (Netio.Sys _) ->
           incr_a ~obs:c_disconnects t.disconnects;
           continue := false
     done
   with _ -> (* a connection thread never takes the daemon down *) ());
  conn.alive <- false;
  Netio.close_noerr (Netio.Conn.fd conn.nc);
  Mutex.lock t.m;
  t.conns <- t.conns - 1;
  Mutex.unlock t.m

let accept_loop t =
  while not t.accept_done do
    match Unix.select [ t.listen_fd ] [] [] 0.1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept t.listen_fd with
        | exception Unix.Unix_error (_, _, _) -> ()
        | fd, _peer_addr ->
            Mutex.lock t.m;
            let refuse =
              if t.draining then Some Proto.Shutting_down
              else if t.conns >= t.cfg.max_conns then Some Proto.Overloaded
              else None
            in
            (match refuse with
            | Some code ->
                let retry = if code = Proto.Overloaded then retry_after_ms t else 0 in
                Mutex.unlock t.m;
                incr_a ~obs:c_rejected t.rejected;
                ignore
                  (Netio.send ~deadline:1. fd
                     (Proto.encode_reply ~id:0
                        (Proto.Error_reply
                           {
                             code;
                             retry_after_ms = retry;
                             msg = "connection refused";
                           }))
                    : (unit, Netio.error) result);
                Netio.close_noerr fd
            | None -> (
                match Netio.Conn.of_fd fd with
                | exception Unix.Unix_error _ ->
                    Mutex.unlock t.m;
                    Netio.close_noerr fd
                | nc ->
                    t.conns <- t.conns + 1;
                    Mutex.unlock t.m;
                    let conn =
                      {
                        nc;
                        wm = Mutex.create ();
                        alive = true;
                        pending = Atomic.make 0;
                      }
                    in
                    ignore
                      (Thread.create (fun () -> conn_loop t conn) ()
                        : Thread.t)))
        )
  done;
  Netio.close_noerr t.listen_fd

(* {1 Lifecycle} *)

let start cfg =
  match Netio.listen cfg.addr with
  | Error m -> Error m
  | Ok listen_fd -> (
      let session =
        match cfg.wal with
        | None -> Ok None
        | Some wal -> (
            match
              Session.open_ ~wal ?shards:cfg.shards ?domains:cfg.domains
                ~snapshot_every:cfg.snapshot_every ~fsync:cfg.fsync ()
            with
            | Ok s -> Ok (Some s)
            | Error m -> Error m)
      in
      match session with
      | Error m ->
          Netio.close_noerr listen_fd;
          Error ("cannot open session: " ^ m)
      | Ok session ->
          let t =
            {
              cfg;
              listen_fd;
              m = Mutex.create ();
              nonempty = Condition.create ();
              drained = Condition.create ();
              queue = Queue.create ();
              queued = 0;
              inflight = 0;
              conns = 0;
              draining = false;
              drain_deadline = Float.infinity;
              accept_done = false;
              session;
              session_m = Mutex.create ();
              epoch = Epoch.create ();
              builder = None;
              lat = Lat.create ();
              started = now ();
              ewma_ms = 10.;
              accepted = Atomic.make 0;
              rejected = Atomic.make 0;
              completed = Atomic.make 0;
              degraded = Atomic.make 0;
              partial = Atomic.make 0;
              invalid = Atomic.make 0;
              protocol_errors = Atomic.make 0;
              timeouts = Atomic.make 0;
              disconnects = Atomic.make 0;
              threads = [];
            }
          in
          (* Read tier: compile indexes on a background domain from
             states captured under the session lock, swap them in
             through the epoch cell. Only the compile and the swap run
             outside the lock: every rebuild first holds it for a full
             [Session.state] capture, and writers wait for that
             capture. The builder's poll of the seq, like an indexed
             [Range_sum], takes no lock. *)
          (match session with
          | Some sess when cfg.index ->
              let src =
                {
                  Index_builder.src_seq = (fun () -> Session.seq sess);
                  src_capture =
                    (fun () ->
                      with_session_lock t (fun () ->
                          (Session.state sess, Session.seq sess)));
                }
              in
              t.builder <- Some (Index_builder.start src t.epoch)
          | _ -> ());
          let workers =
            List.init (Int.max 1 cfg.workers) (fun _ ->
                Thread.create (fun () -> worker_loop t) ())
          in
          let acceptor = Thread.create (fun () -> accept_loop t) () in
          t.threads <- acceptor :: workers;
          Ok t)

let session t = t.session
let draining t = t.draining

let begin_drain t =
  Mutex.lock t.m;
  if not t.draining then begin
    t.draining <- true;
    t.drain_deadline <- now () +. t.cfg.drain_grace;
    Condition.broadcast t.nonempty
  end;
  Mutex.unlock t.m

(* Wait for every queued/in-flight request to finish (or degrade),
   then flush and close the session. Only meaningful after
   {!begin_drain}. *)
let wait t =
  t.accept_done <- true;
  List.iter Thread.join t.threads;
  (* The workers are gone; reads answered on connection threads may
     still be in flight. *)
  Mutex.lock t.m;
  while t.inflight > 0 do
    Condition.wait t.drained t.m
  done;
  Mutex.unlock t.m;
  (* the builder reads the session through its closures — stop it
     before the session closes under it *)
  (match t.builder with
  | Some b ->
      Index_builder.stop b;
      t.builder <- None
  | None -> ());
  (match t.session with
  | Some sess -> with_session_lock t (fun () -> Session.close sess)
  | None -> ());
  (match t.cfg.addr with
  | Netio.Unix_sock p -> ( try Sys.remove p with Sys_error _ -> ())
  | Netio.Tcp _ -> ())

let stop t =
  begin_drain t;
  wait t
