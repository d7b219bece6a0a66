(** The [diagnose serve] daemon: warm pooled incremental diagnosis.

    One server owns two LRU caches keyed by circuit content hash
    (MD5 of the canonical .bench text): parsed netlists, and warm
    {!Diagnosis.Incremental} contexts keyed by the full request shape
    (golden circuit, faulty provenance, seed, k, certify).  A repeat
    request skips parse, test generation and CNF encoding entirely and
    reuses the warm solver's learned clauses; a request growing the
    test count extends the live instance incrementally
    ({!Diagnosis.Incremental.add_tests} — test generation is
    prefix-stable in the wanted count, so the grown context equals a
    cold one).  A request {e shrinking} the test count is served from a
    throwaway cold context so cached state stays monotone.

    Batches are scheduled across the [lib/par] domain pool: requests
    are grouped by context (first-appearance order), one worker per
    group, each request with its own renewed {!Sat.Budget} and a pooled
    per-request {!Obs.t} registry ({!Obs.reset} between requests).  All
    cache mutation happens on the main domain between parallel
    sections, so responses are a pure function of the request stream —
    identical at every [jobs] width.

    {2 Observability}

    Every request is assigned a trace id at decode (arrival order) and
    measured on its worker: wall latency (enqueue to response), queue
    wait (enqueue to dispatch), GC allocation delta ([Gc.quick_stat]),
    solver-conflict delta and trace-event count, folded into
    {!Obs.Sketch} quantile sketches on the main domain.  The [metrics]
    op renders them as a Prometheus-style text exposition
    ({!exposition}); [health] reports readiness and cache occupancy;
    both LRUs bump hit/miss/eviction counters in the {!obs} registry
    (also surfaced by the [stats] op).  With [trace = true], per-domain
    request spans ([serve/request], [serve/queue]) and the engine's own
    events are stitched into one session trace in the {!obs} registry,
    tagged with worker domain ids — [Obs.Trace.to_chrome_json] of it
    opens in Perfetto with one tid track per domain.  [slow_ms] sets a
    latency threshold above which a request is recorded in the
    {!slow_log} (severity [Warn], payload = the request's measured
    deltas).  Every timing here reads [Obs.Clock.wall], a monotonic
    clock: the slow log's ["ts"] orders and spaces records but is not
    a date. *)

type t

val create :
  ?circuit_capacity:int ->
  ?context_capacity:int ->
  ?slow_ms:int ->
  ?log:Obs.Log.l ->
  ?trace:bool ->
  jobs:int ->
  (string -> Netlist.Circuit.t) ->
  t
(** [create ~jobs resolve] — [resolve] maps a circuit spec (file path
    or builtin name) to a circuit and reports failures by raising
    [Failure] (answered as an error response).  [circuit_capacity]
    (default 8) bounds the parsed-netlist cache, [context_capacity]
    (default 16) the warm-context cache; evicted contexts are retired
    ({!Diagnosis.Incremental.retire}).  [jobs] is the domain-pool width
    for batches (clamped to at least 1).  [slow_ms] enables the
    slow-request log (records go to [log], default a sink-less ring);
    [trace] (default [false]) enables session trace stitching. *)

val obs : t -> Obs.t
(** The server's session registry: cache hit/miss/eviction counters and
    (when tracing) the stitched cross-domain trace.  Never reset for
    the server's lifetime. *)

val sketches : t -> (string * Obs.Sketch.s) list
(** The per-request measurement sketches by stable name:
    [latency_cold_us], [latency_warm_us], [queue_wait_cold_us],
    [queue_wait_warm_us] (wall microseconds), [gc_allocated_words],
    and the deterministic effort sketches [request_conflicts] /
    [request_events].  The bench serve experiment reads these to report
    latency quantiles alongside req/s. *)

val slow_log : t -> Obs.Log.l
(** The slow-request log ({!create}'s [log]). *)

val exposition : t -> times:bool -> string
(** The Prometheus-style text exposition behind the [metrics] op:
    [# HELP]/[# TYPE] headers, counters (served / warm hits / cold
    misses / errors / slow requests / per-cache hits, misses,
    evictions), gauges (cache entries, capacity, hit ratio, in-flight)
    and summaries with [quantile="0.5"|"0.9"|"0.99"] labels plus
    [_sum]/[_count].  With [times:false] only families derived from
    logical counts are emitted — bit-reproducible and cram-pinnable;
    [times:true] adds the wall-clock latency / queue-wait / GC
    summaries (labelled [warm="true"|"false"]) and the rolling
    requests-per-second / errors-per-second gauges. *)

val handle : t -> Protocol.request -> Obs.Json.t * bool
(** Serve one request; the boolean is [false] exactly for [Shutdown]
    (the session should end).  Never raises on request-level failures —
    they become error responses. *)

val session : t -> in_channel -> out_channel -> int
(** Serve frames until end of stream or a shutdown request (exit 0).
    Request-level errors (unknown circuit, malformed JSON payload)
    yield an error response and keep the session alive; an
    unrecoverable framing error yields a final error response and
    exit 2.  All cached contexts are retired on the way out. *)
