module Obs = Maxrs_obs.Obs
module Session = Maxrs_durable.Session
module Snapshot = Maxrs_durable.Snapshot

let g_build_ms = Obs.gauge "rmsq.build_ms"

type source = {
  src_seq : unit -> int;
  src_capture : unit -> Maxrs.Dynamic.State.t * int;
}

let source_of_session s =
  {
    src_seq = (fun () -> Session.seq s);
    src_capture = (fun () -> (Session.state s, Session.seq s));
  }

let build_once ?lens src cell =
  let t0 = Unix.gettimeofday () in
  let state, seq = src.src_capture () in
  let index = Rmsq.of_state ?lens state in
  let e = Epoch.publish cell index ~built_seq:seq in
  Obs.set_gauge g_build_ms
    (int_of_float ((Unix.gettimeofday () -. t0) *. 1000.));
  e

let of_snapshot ?lens ~wal () =
  match Snapshot.newest ~wal ~min_seq:0 Option.some with
  | None -> Error (Printf.sprintf "no decodable snapshot for %s" wal)
  | Some (seq, state) ->
      let index = Rmsq.of_state ?lens state in
      Ok { Epoch.index; epoch = 0; built_seq = seq }

type t = { stop_flag : bool Atomic.t; dom : unit Domain.t }

(* Rebuild as soon as the store is one op ahead of the live index, and
   look every 20 ms. *)
let min_lag = 1
let poll_s = 0.02

let start src cell =
  let stop_flag = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        while not (Atomic.get stop_flag) do
          let now_seq = src.src_seq () in
          let stale =
            match Epoch.current cell with
            | None -> true
            | Some e -> now_seq - e.Epoch.built_seq >= min_lag
          in
          if stale then ignore (build_once src cell)
          else ignore (Epoch.lag cell ~now_seq);
          if not (Atomic.get stop_flag) then Unix.sleepf poll_s
        done)
  in
  { stop_flag; dom }

let stop t =
  if not (Atomic.get t.stop_flag) then begin
    Atomic.set t.stop_flag true;
    Domain.join t.dom
  end
