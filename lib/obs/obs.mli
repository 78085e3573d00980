(** Global operation counters, gauges, histograms and span timers.

    Machine-independent observability for the solver stack: counters
    record primitive-operation counts (kd-tree node visits, sweep
    events, samples drawn, …) so that complexity claims can be checked
    as counter shapes rather than wall-clock, in the spirit of
    cell-probe-style operation counting.

    Every recording entry point ([incr], [add], [observe], [set_gauge],
    [with_span]) is a no-op — one ref load and a branch, no allocation —
    unless stats are enabled via {!set_enabled}, the [MAXRS_STATS]
    environment variable, or [Config.stats]. Instruments ([counter],
    [gauge], [histogram]) are registered by name, idempotently, and are
    meant to be created once at module initialisation.

    All recording operations are domain-safe: counters are atomic, span
    and histogram aggregation is serialised internally. *)

(** {1 Enablement} *)

val enabled : unit -> bool
(** [enabled ()] is [true] when stats are being recorded. The initial
    value comes from the [MAXRS_STATS] environment variable ([""], "0",
    "false", "off", "no" and unset mean disabled). *)

val set_enabled : bool -> unit
(** Flip global recording on or off. *)

val with_enabled : bool -> (unit -> 'a) -> 'a
(** [with_enabled b f] runs [f] with recording set to [b], restoring the
    previous state afterwards (also on exceptions). *)

(** {1 Counters} *)

type counter
(** A named, monotone (under normal use) global event counter. *)

val counter : string -> counter
(** [counter name] returns the counter registered under [name],
    creating it at zero on first use. Idempotent. *)

val incr : counter -> unit
(** Add 1. No-op when disabled. *)

val add : counter -> int -> unit
(** Add an arbitrary amount. No-op when disabled. *)

val value : counter -> int
(** Current value, readable regardless of enablement. *)

(** {1 Gauges} *)

type gauge
(** A named last-value-plus-running-max instrument (e.g. queue depth). *)

val gauge : string -> gauge
val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int
val gauge_max : gauge -> int

(** {1 Histograms} *)

type histogram
(** A named power-of-two-bucket histogram of integer observations:
    bucket [i >= 1] covers [2^(i-1), 2^i), bucket 0 holds non-positive
    values. *)

val histogram : string -> histogram
val observe : histogram -> int -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> int

(** {1 Spans} *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f] and aggregates (count, total, max) for
    [name], attributing the counter deltas observed while the span was
    open. Spans nest: each domain has its own stack, and an inner
    span's operations are also attributed to the enclosing spans.
    Exception-safe. When disabled this is exactly [f ()]. *)

val span_depth : unit -> int
(** Current nesting depth of open spans on the calling domain. *)

(** {1 Lifecycle} *)

val reset : unit -> unit
(** Zero every counter, gauge and histogram and drop all span
    aggregates. Registered instruments remain registered (so snapshot
    key sets are stable across resets). *)

(** {1 Snapshots} *)

module Snapshot : sig
  type histo = {
    hs_count : int;
    hs_sum : int;
    hs_max : int;
    hs_buckets : (int * int) list;
        (** (bucket index, count); zero-count buckets omitted *)
  }

  type span_gc = {
    sg_minor_words : float;
    sg_promoted_words : float;
    sg_major_words : float;
    sg_minor_collections : int;
    sg_major_collections : int;
    sg_top_heap_words : int;  (** max observed at any exit of the span *)
  }
  (** GC activity attributed to a span: deltas between entry and exit,
      summed over all executions, as seen by the calling domain (exact
      on single-domain runs; worker domains own separate minor heaps,
      so under a pool this is a lower bound). Minor words come from
      [Gc.minor_words], which counts the words still pending in the
      minor heap; the rest from [Gc.quick_stat]. *)

  type span = {
    sp_count : int;
    sp_total_ns : int;
    sp_max_ns : int;
    sp_counters : (string * int) list;  (** per-span counter deltas *)
    sp_gc : span_gc;
  }

  type gc = {
    gc_minor_words : float;
    gc_promoted_words : float;
    gc_major_words : float;
    gc_minor_collections : int;
    gc_major_collections : int;
    gc_compactions : int;
    gc_heap_words : int;
    gc_top_heap_words : int;
  }
  (** Process-wide [Gc.quick_stat] at capture time (allocation totals in
      words; [heap_words]/[top_heap_words] are gauges). *)

  type t = {
    counters : (string * int) list;
    gauges : (string * (int * int)) list;  (** name -> (last, max) *)
    histograms : (string * histo) list;
    spans : (string * span) list;
    gc : gc;
  }
  (** All sections sorted by name; rendering is deterministic. *)

  val capture : unit -> t
  (** Consistent-enough point-in-time copy of every instrument. *)

  val counter : t -> string -> int
  (** Value of a named counter in the snapshot; 0 when absent. *)

  val span : t -> string -> span option

  val diff : t -> base:t -> t
  (** [diff b ~base] subtracts monotone quantities (counters, histogram
      counts/sums/buckets, span counts/totals, GC words/collections) of
      [base] from [b]; gauges and maxima (including the GC heap gauges)
      keep [b]'s values. Measures an instrumented section without
      resetting global state. *)

  val to_json : t -> string
  (** Render as a single-line JSON object with stable key order:
      [{"schema":"maxrs.stats/1","enabled":...,"counters":{...},
      "gauges":{...},"histograms":{...},"spans":{...},"gc":{...}}].
      Each span object carries its own ["gc"] sub-object. *)
end
