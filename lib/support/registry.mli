(** A unified metrics registry: counters, gauges and histograms with
    labels, exporting deterministically as JSON and as OpenMetrics-style
    text (scrapeable by a future [lmc serve]).

    Metrics are registered by name (idempotently — registering the same
    name and kind again returns the existing metric); each holds one
    sample per distinct label set. Export order is registration order,
    sample order is first-set order, and label sets are normalized by
    sorting on key, so renderings are stable for tests and diffing. *)

type kind = Counter | Gauge | Histogram

type t
(** A registry: an ordered collection of named metrics. *)

type metric
(** A handle from one of the registration functions below. *)

val create : unit -> t

val counter : t -> ?help:string -> string -> metric
(** Monotone totals (events, bytes, modeled nanoseconds). *)

val gauge : t -> ?help:string -> string -> metric
(** Point-in-time values that may move either way. *)

val histogram : t -> ?help:string -> ?buckets:float list -> string -> metric
(** Observation distributions with cumulative [le] buckets. Default
    bucket bounds are decades from 1 to 1e9 (ns-friendly).
    @raise Invalid_argument on an empty explicit bucket list. *)

val inc : ?labels:(string * string) list -> metric -> float -> unit
(** Add to a counter or gauge sample.
    @raise Invalid_argument on a histogram or a negative counter
    increment. *)

val set : ?labels:(string * string) list -> metric -> float -> unit
(** Replace a counter or gauge sample value (counters allow [set] so a
    snapshot-style producer can export totals it accumulated elsewhere).
    @raise Invalid_argument on a histogram. *)

val observe : ?labels:(string * string) list -> metric -> float -> unit
(** Record one observation into a histogram sample.
    @raise Invalid_argument on a counter or gauge. *)

val value : ?labels:(string * string) list -> metric -> float option
(** The current sample value (histograms: the observation sum), or
    [None] when that label set was never touched. *)

val to_text : t -> string
(** OpenMetrics-style exposition: [# HELP]/[# TYPE] comment lines, then
    [name{label="v"} value] per sample; histograms expand into
    [_bucket]/[_sum]/[_count] series with cumulative buckets. *)

val to_json : t -> string
(** A JSON array of metric objects
    [{"name","type","help","samples":[{"labels",...}]}]; histogram
    samples carry [count], [sum] and cumulative [buckets]. *)
