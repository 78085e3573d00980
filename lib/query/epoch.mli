(** Epoch-swapped serving of immutable {!Rmsq} indexes.

    The live index is one [Atomic.t] holding an immutable {!entry}: a
    reader performs a single atomic load and then works against a
    consistent index forever — there is no window in which a torn or
    half-built index is observable, because an entry is fully
    constructed before it is published and never mutated after.
    Publishing is a single atomic store; readers racing a swap see
    either the old epoch or the new one, both complete.

    Staleness is bounded and observable rather than hidden: every entry
    records the store sequence number it was compiled at ([built_seq]),
    and {!lag} reports (and exports as the [rmsq.lag_ops] gauge) how
    many operations the live store has applied since. The
    [rmsq.epoch] gauge tracks the current epoch number. *)

type entry = {
  index : Rmsq.t;
  epoch : int;  (** monotonically increasing, starting at 1 *)
  built_seq : int;
      (** store sequence number (applied-op count) the snapshot behind
          [index] reflects *)
}

type t

val create : unit -> t
(** A cold cell: {!current} is [None] until the first {!publish}. *)

val publish : t -> Rmsq.t -> built_seq:int -> entry
(** Swap in a freshly compiled index. Safe from any domain; intended
    single-writer (the builder domain). Sets the [rmsq.epoch] gauge
    and zeroes [rmsq.lag_ops]. *)

val current : t -> entry option
(** One atomic load; the returned entry is immutable. *)

val lag_of : entry -> now_seq:int -> int
(** Operations applied since [entry] was compiled ([now_seq -
    built_seq], clamped at 0); also exports the value through the
    [rmsq.lag_ops] gauge. A reader tags its answer with the lag of the
    entry it {e served}, never with a fresh load of the cell: a publish
    in between would credit an older index's answer with the new
    entry's lag. *)

val lag : t -> now_seq:int -> int option
(** {!lag_of} the live entry, or [None] when cold. *)

val hit : unit -> unit
(** Record a read served from the index ([rmsq.hits]). *)

val fallback : unit -> unit
(** Record a read that fell back to the sweep — cold index or a
    request shape the index cannot serve ([rmsq.fallbacks]). *)
