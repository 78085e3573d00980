module Obs = Maxrs_obs.Obs

let c_hits = Obs.counter "rmsq.hits"
let c_fallbacks = Obs.counter "rmsq.fallbacks"
let g_epoch = Obs.gauge "rmsq.epoch"
let g_lag = Obs.gauge "rmsq.lag_ops"

type entry = { index : Rmsq.t; epoch : int; built_seq : int }

type t = { cell : entry option Atomic.t; next : int Atomic.t }

let create () = { cell = Atomic.make None; next = Atomic.make 1 }

let publish t index ~built_seq =
  let epoch = Atomic.fetch_and_add t.next 1 in
  let e = { index; epoch; built_seq } in
  (* The entry is complete before this store; a racing reader gets
     either the previous complete entry or this one. *)
  Atomic.set t.cell (Some e);
  Obs.set_gauge g_epoch epoch;
  Obs.set_gauge g_lag 0;
  e

let current t = Atomic.get t.cell

let lag_of e ~now_seq =
  let l = max 0 (now_seq - e.built_seq) in
  Obs.set_gauge g_lag l;
  l

let lag t ~now_seq = Option.map (lag_of ~now_seq) (Atomic.get t.cell)

let hit () = Obs.incr c_hits
let fallback () = Obs.incr c_fallbacks
