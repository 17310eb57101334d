(** Process-wide metric registry: counters, gauges, and histograms.

    Everything is disabled by default. A disabled metric operation is one
    atomic flag load and a branch — cheap enough to leave in the solver's
    hot loops — and the no-op sink is therefore the default sink. {!enable}
    turns recording on (the CLI's [--metrics] flag, the bench gate, and the
    tests do this); snapshots are rendered on demand as text or JSON.

    {b Determinism classes.} Every metric belongs to one of two classes:

    - {e deterministic} metrics ({!counter}, {!hist}) count or bucket
      algorithmic events — window slides, skip hits, iterations per run —
      whose totals depend only on the work done, never on wall clock,
      domain count, or scheduling order. Updates are atomic and
      commutative, so the [`Deterministic] snapshot of a fixed workload is
      byte-identical at any [-j] (a property the test suite and the bench
      gate assert).
    - {e runtime} metrics ({!runtime_counter}, high-water marks via
      {!record_max}, and {!runtime_hist}s, which hold every latency via
      {!time}) measure the execution itself — queue depths, per-domain
      task counts, latencies. They are excluded from the [`Deterministic]
      snapshot and carry no reproducibility promise.

    Registration is idempotent: registering an existing name returns the
    existing metric (the kind must match). Registry names are dotted paths,
    lower-case, e.g. ["sos.fast.window_slides"]; doc/OBSERVABILITY.md is
    the registry of names used by this repository. *)

(** {1 Recording switch} *)

val enable : unit -> unit
(** Start recording. Affects all metrics in the process. *)

val disable : unit -> unit
(** Stop recording (the default state). Values are retained until
    {!reset}. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Zero every counter and histogram. Registrations are kept (a
    deterministic snapshot after [reset] lists the same names, all
    zero). *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Register (or look up) a {e deterministic} counter. Raises
    [Invalid_argument] if the name is registered with a different kind. *)

val runtime_counter : string -> counter
(** Register (or look up) a {e runtime}-class counter: same operations,
    excluded from the deterministic snapshot. *)

val incr : counter -> unit
val add : counter -> int -> unit

val record_max : counter -> int -> unit
(** High-water mark: raise the counter to [v] if [v] is larger (atomic).
    Only meaningful on runtime counters (a high-water mark over concurrent
    execution is inherently schedule-dependent). *)

val value : counter -> int
(** Current value, readable whether or not recording is enabled. *)

val get : string -> int
(** Value of a registered counter by name; [Invalid_argument] if the name
    is unknown or not a counter. Test convenience. *)

(** {1 Histograms}

    Fixed-bucket histograms: strictly increasing upper [bounds] plus one
    overflow bucket, each count an atomic — recording is a binary search
    and one [fetch_and_add], lock-free and commutative. A
    {e deterministic}-class histogram over a fixed workload therefore
    snapshots byte-identically at any [-j]; {e runtime}-class histograms
    (latencies, occupancy) carry no such promise. Quantiles are bucket
    upper bounds clamped to the exact observed max. *)

type hist

val hist : ?bounds:float array -> string -> hist
(** Register (or look up) a {e deterministic} histogram. Default bounds:
    {!log_bounds} over [1e-6 .. 1e6] at 5 buckets/decade. Raises
    [Invalid_argument] on a kind, type, or bucket-layout mismatch with an
    existing registration. *)

val runtime_hist : ?bounds:float array -> string -> hist
(** The runtime-class variant of {!hist}. *)

val log_bounds : lo:float -> hi:float -> per_decade:int -> float array
(** Log-scale bucket upper bounds from [lo] to at least [hi]. *)

val linear_bounds : lo:float -> hi:float -> step:float -> float array
(** Uniform bucket upper bounds from [lo] to at least [hi]. *)

val hist_observe : hist -> float -> unit
(** Record one value. NaN and values above the last bound land in the
    overflow bucket. *)

val hist_observe_int : hist -> int -> unit

val hist_count : hist -> int
(** Total observations, readable whether or not recording is enabled. *)

val hist_max : hist -> float
(** Exact largest observed value (0 when empty). *)

val hist_quantile : hist -> float -> float
(** [hist_quantile h q] for [q] in [0..1]: the upper bound of the bucket
    holding the rank-⌈q·n⌉ observation, clamped to {!hist_max}; 0 when
    empty. Deterministic for deterministic-class histograms. *)

(** {1 Latency}

    The only wall-clock reads behind telemetry. Both record into a
    {e runtime} histogram and raise [Invalid_argument] on a deterministic
    one, so wall time never reaches the [`Deterministic] class. When
    recording is disabled neither reads the clock. *)

val time : hist -> (unit -> 'a) -> 'a
(** [time h f] runs [f], recording its wall duration in seconds into [h]
    (also when [f] raises). When recording is disabled this is just the
    call. *)

val stamp : hist -> unit -> unit
(** [stamp h] reads the clock now and returns a function that records the
    seconds elapsed since into [h] each time it is called — for an
    interval that starts in one place and ends in another, such as a
    task's wait in a queue. Returns a no-op when recording is disabled. *)

(** {1 Snapshots} *)

type snapshot_class = [ `Deterministic | `Runtime | `All ]

val snapshot : ?cls:snapshot_class -> unit -> string
(** Plain-text snapshot, one metric per line, sorted by name:
    [name value] for counters, [name count=N p50=… p90=… p99=… max=…] for
    histograms. Default class [`All]. With [`Deterministic] the output is
    a pure function of the recorded algorithmic events. *)

val snapshot_json : ?cls:snapshot_class -> unit -> string
(** The same data as JSON: [{"counters": [...], "hists": [...]}], sorted
    by name. Every entry carries a ["class"] field ("det" or "runtime");
    histogram entries list their non-empty buckets as
    [{"le": bound, "n": count}] (overflow bucket: ["le": "+Inf"]). *)

val to_openmetrics : ?cls:snapshot_class -> unit -> string
(** OpenMetrics text exposition (the Prometheus scrape format), sorted by
    name, terminated by [# EOF]. Counters become [name_total] counter
    families, histograms become cumulative [name_bucket{le="…"}]
    families. Metric names have non-identifier characters mapped to ['_']
    (["sos.fast.runs"] → [sos_fast_runs]); every sample carries a
    [class="det"|"runtime"] label. Float sums are ordering-dependent in
    their low bits, so this rendering carries no byte-identity promise —
    use {!snapshot} with [`Deterministic] for that. *)
