(** Parse any {!Metrics} snapshot rendering — plain text, JSON, or
    OpenMetrics — into a flat list of scalar samples, for diffing
    ([sosctl obs-diff]).

    Keys are chosen so the text and JSON renderings of the same registry
    agree: a counter is [name]; a histogram contributes [name.count],
    [name.p50], [name.p90], [name.p99], [name.max]. OpenMetrics samples
    keep their sanitized names ([sos_fast_runs_total]) and skip
    per-bucket series — compare prom against prom. [cls] is the determinism class when the
    format records one (JSON and prom do; text does not). *)

type entry = { key : string; cls : string option; v : float }

val parse : string -> entry list
(** Autodetects the format from the content: leading ['{'] is JSON,
    leading ['#'] (or a [_total{] sample) is OpenMetrics, anything else
    is the plain-text snapshot. Unparseable lines are skipped. *)

val load : string -> entry list
(** [load path] parses the file's contents. *)
