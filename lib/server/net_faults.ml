(* Deterministic fault-injecting proxy, the network-layer sibling of
   {!Maxrs.Parallel.Faults}. The proxy sits between client and server,
   forwarding bytes in both directions; per forwarded chunk it decides
   — as a pure function of (connection, direction, chunk index) under
   the configured seed — whether to inject one of the faults the
   daemon must survive: a torn frame (half the chunk, then close), a
   flipped bit (CRC mismatch downstream), an oversized length header,
   a stall (slow-loris), or an abrupt disconnect. Same seed and rate →
   same fault schedule, regardless of thread interleaving: a failing
   chaos run replays exactly. *)

module Wal = Maxrs_durable.Wal

type config = { seed : int; rate : float }

let of_string s =
  match String.split_on_char ':' (String.trim s) with
  | [ seed; rate ] -> (
      match (int_of_string_opt seed, float_of_string_opt rate) with
      | Some seed, Some rate when Float.is_finite rate && rate >= 0. ->
          Some { seed; rate = Float.min rate 1. }
      | _ -> None)
  | _ -> None

let of_env () =
  match Sys.getenv_opt "MAXRS_NET_FAULTS" with
  | None -> None
  | Some s -> of_string s

type fault = Tear | Flip | Oversize | Stall | Disconnect

let splitmix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let to_unit i64 =
  Int64.to_float (Int64.shift_right_logical i64 11) /. 9007199254740992.

(* Pure decision for chunk [chunk] of direction [dir] (0 = client→server,
   1 = server→client) on connection [conn]. *)
let decide cfg ~conn ~dir ~chunk =
  let h =
    splitmix64
      (Int64.add
         (Int64.mul (Int64.of_int cfg.seed) 0x100000001B3L)
         (Int64.of_int ((conn * 1048576) + (dir * 524288) + chunk)))
  in
  if to_unit h >= cfg.rate then None
  else
    let k = splitmix64 h in
    match Int64.to_int (Int64.logand k 0xFFFFL) mod 5 with
    | 0 -> Some Tear
    | 1 -> Some Flip
    | 2 -> Some Oversize
    | 3 -> Some Stall
    | _ -> Some Disconnect

type t = {
  fd : Unix.file_descr;
  addr : Netio.addr;
  mutable stop : bool;
  mutable threads : Thread.t list;
  injected : int Atomic.t;
  faulted_conns : (int, unit) Hashtbl.t;
  fm : Mutex.t;
}

let injected_count p = Atomic.get p.injected

let faulted_connections p =
  Mutex.lock p.fm;
  let l = Hashtbl.fold (fun k () acc -> k :: acc) p.faulted_conns [] in
  Mutex.unlock p.fm;
  List.sort compare l

let mark_faulted p conn =
  Atomic.incr p.injected;
  Mutex.lock p.fm;
  if not (Hashtbl.mem p.faulted_conns conn) then
    Hashtbl.add p.faulted_conns conn ();
  Mutex.unlock p.fm

(* An 8-byte header advertising a payload far above any sane
   [max_frame]; the daemon must reject it before allocating. *)
let oversize_header () =
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 0x7FFFFF00l;
  Bytes.set_int32_le b 4 0xDEADBEEFl;
  b

let pump p cfg ~conn ~dir src dst =
  let buf = Bytes.create 4096 in
  let chunk = ref 0 in
  let continue = ref true in
  while !continue do
    match Unix.read src buf 0 (Bytes.length buf) with
    | 0 | (exception Unix.Unix_error (_, _, _)) | (exception _) ->
        continue := false
    | n -> (
        incr chunk;
        match decide cfg ~conn ~dir ~chunk:!chunk with
        | None -> (
            try Wal.write_all dst (Bytes.sub buf 0 n)
            with _ -> continue := false)
        | Some f -> (
            mark_faulted p conn;
            match f with
            | Stall ->
                (* Slow-loris: sit on the bytes long enough to trip a
                   read deadline tuned below this, then forward. *)
                Thread.delay 0.25;
                (try Wal.write_all dst (Bytes.sub buf 0 n)
                 with _ -> continue := false)
            | Flip ->
                let i = !chunk * 7919 mod n in
                Bytes.set buf i
                  (Char.chr (Char.code (Bytes.get buf i) lxor 0x10));
                (try Wal.write_all dst (Bytes.sub buf 0 n)
                 with _ -> continue := false)
            | Tear ->
                let half = Int.max 1 (n / 2) in
                (try Wal.write_all dst (Bytes.sub buf 0 half) with _ -> ());
                continue := false
            | Oversize ->
                (try Wal.write_all dst (oversize_header ()) with _ -> ());
                continue := false
            | Disconnect -> continue := false))
  done;
  (* Half-close towards the destination so the peer sees EOF. *)
  (try Unix.shutdown dst Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  try Unix.shutdown src Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()

let relay p cfg ~conn client =
  match Netio.connect p.addr with
  | Error _ -> Netio.close_noerr client
  | Ok upstream ->
      let t1 =
        Thread.create
          (fun () -> pump p cfg ~conn ~dir:0 client upstream)
          ()
      in
      pump p cfg ~conn ~dir:1 upstream client;
      Thread.join t1;
      Netio.close_noerr client;
      Netio.close_noerr upstream

let start ~listen ~upstream cfg =
  match Netio.listen listen with
  | Error _ as e -> e
  | Ok fd ->
      let p =
        {
          fd;
          addr = upstream;
          stop = false;
          threads = [];
          injected = Atomic.make 0;
          faulted_conns = Hashtbl.create 16;
          fm = Mutex.create ();
        }
      in
      let conn_ctr = ref 0 in
      let acceptor =
        Thread.create
          (fun () ->
            while not p.stop do
              match Unix.select [ fd ] [] [] 0.1 with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | [], _, _ -> ()
              | _ -> (
                  match Unix.accept fd with
                  | exception Unix.Unix_error (_, _, _) -> ()
                  | client, _ ->
                      incr conn_ctr;
                      let conn = !conn_ctr in
                      ignore
                        (Thread.create
                           (fun () -> relay p cfg ~conn client)
                           ()
                          : Thread.t))
            done;
            Netio.close_noerr fd)
          ()
      in
      p.threads <- [ acceptor ];
      Ok p

let shutdown p =
  p.stop <- true;
  List.iter Thread.join p.threads
