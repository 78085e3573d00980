(* Per-domain scratch, lent to one user at a time.

   [Domain.DLS] gives each domain its own slot, but the systhreads of one
   domain share it: the daemon's worker threads are systhreads of the
   main domain, and a thread switch can fall inside a sort or a sweep.
   So the slot carries an atomic busy flag. [take] claims the slot's
   scratch when it is free and builds fresh scratch when it is not;
   [give] frees the slot again, and ignores fresh scratch. Neither
   allocates once the slot exists. *)

type 'a slot = { busy : bool Atomic.t; value : 'a }
type 'a t = { key : 'a slot Domain.DLS.key; create : unit -> 'a }

let make create =
  {
    key =
      Domain.DLS.new_key (fun () ->
          { busy = Atomic.make false; value = create () });
    create;
  }

let take t =
  let s = Domain.DLS.get t.key in
  if Atomic.compare_and_set s.busy false true then s.value else t.create ()

let give t v =
  let s = Domain.DLS.get t.key in
  if s.value == v then Atomic.set s.busy false

let with_ t f =
  let v = take t in
  match f v with
  | r ->
      give t v;
      r
  | exception e ->
      give t v;
      raise e
