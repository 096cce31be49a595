(** Global registry of named counters, gauges, and log-scale histograms.

    Creation is idempotent ([counter name] twice returns the same
    counter), recording is O(1), and {!disable} turns every recording
    call into a single atomic load with no allocation — instrumented hot
    paths cost nothing when observability is off. Every metric kind is
    domain-safe: counters and histogram cells are [Atomic], gauges are
    last-writer-wins atomic cells, and histogram float accumulators use
    CAS retry loops — concurrent recording never loses a sample. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find-or-create. @raise Invalid_argument if [name] is already a
    different metric kind. *)

val gauge : string -> gauge
val histogram : string -> histogram

(** {2 No-op mode} *)

val enable : unit -> unit
val disable : unit -> unit

(** {2 Recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
val observe_int : histogram -> int -> unit
val count : histogram -> int
val sum : histogram -> float
val mean : histogram -> float

val time : histogram -> (unit -> 'a) -> 'a
(** Run a thunk and observe its duration in seconds (read through the
    clock set by {!set_clock}); passthrough when disabled. The duration
    is recorded even if the thunk raises. *)

val now : unit -> float
(** The clock {!time} reads, for a stage that spans several calls: take
    [now ()] when it starts and {!observe} the difference when it ends. *)

val set_clock : Clock.t -> unit
(** Swap the clock used by {!time} (default {!Clock.system}). *)

(** {2 Bucket scheme}

    All histograms share power-of-two log-scale buckets: bucket [i]
    covers [[2^(min_exp+i), 2^(min_exp+i+1))] with the first bucket also
    absorbing [v <= 0] and the last unbounded above. *)

val num_buckets : int
val bucket_of : float -> int
val bucket_lower : int -> float
val bucket_upper : int -> float

(** {2 Snapshot and reset} *)

type histogram_view = {
  hv_count : int;
  hv_sum : float;
  hv_min : float;  (** [infinity] when empty *)
  hv_max : float;  (** [neg_infinity] when empty *)
  hv_buckets : (float * int) array;
      (** (exclusive upper bound, samples) for each non-empty bucket, in
          increasing bound order; the last bound may be [infinity] *)
}

type view =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of histogram_view

val snapshot : unit -> (string * view) list
(** Every registered metric, sorted by name. *)

val percentile : histogram_view -> float -> float option
(** [percentile hv q] estimates the [q]-quantile ([0. <= q <= 1.]) from
    the log-scale buckets: linear interpolation inside the bucket the
    rank lands in, clamped to the observed min/max. [None] when the
    histogram is empty {e or} the view is partial (a count with no
    buckets, or non-finite min/max — snapshots race concurrent
    observes); a single-valued histogram ([hv_min = hv_max]) answers
    that value exactly. Relative error is otherwise bounded by the
    power-of-two bucket width. *)

val reset : unit -> unit
(** Zero all values; registrations (and metric identities) survive. *)
