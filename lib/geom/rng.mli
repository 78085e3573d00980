(** Deterministic pseudo-random number generator (splitmix64).

    Every randomized algorithm in this repository takes an explicit [Rng.t]
    so runs are reproducible from a seed; nothing touches the global
    [Stdlib.Random] state. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)

val state : t -> int64
(** The full internal state. [of_state (state t)] continues [t]'s stream
    exactly — the persistence primitive for crash recovery: a restored
    generator produces the same remaining draws as the original. *)

val of_state : int64 -> t
(** Rebuild a generator from a {!state} value. *)

type states = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A column of {!state} values. *)

val save : t -> states -> int -> unit
(** [save t a i] writes [t]'s {!state} into [a.{i}], with no int64
    boxed on the way. *)

val load : t -> states -> int -> unit
(** [load t a i] sets [t]'s state to [a.{i}]: [t] continues the stream
    that [of_state a.{i}] would start. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val advance : t -> int -> unit
(** [advance t k] moves [t] past its next [k] 64-bit draws in O(1): the
    state {!bits64} called [k] times would leave. [k >= 0]. *)

val split_at : t -> int -> t
(** [split_at t i] derives the [i]-th child generator without advancing
    [t]. Children are keyed by index alone: for a fixed [t] state,
    [split_at t i] is the same stream no matter how many or in what order
    other children are derived — the deterministic seeding primitive for
    work sharded across domains (one stream per shifted grid). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is exactly uniform in [\[0, bound)] (rejection
    sampling, no modulo bias). Raises [Invalid_argument] if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val fill_float :
  t -> float -> floatarray -> pos:int -> stride:int -> count:int -> unit
(** [fill_float t bound buf ~pos ~stride ~count] writes [count] successive
    draws of [float t bound] to [buf.(pos)], [buf.(pos + stride)], ...:
    the same stream and the same bits as [count] calls, with no float
    boxed per draw. The slots must lie inside [buf]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gaussian : t -> float
(** Standard normal variate (Box–Muller). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
