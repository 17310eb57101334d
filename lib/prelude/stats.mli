(** Descriptive statistics over float samples, used by the benchmark tables. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator), 0 if n < 2 *)
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val stddev : float array -> float
(** Sample standard deviation; 0 if fewer than two samples. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,1]; linear interpolation between order
    statistics. Raises [Invalid_argument] on the empty array. *)

val summarize : float array -> summary
(** Full summary. Raises [Invalid_argument] on the empty array. *)

val geometric_mean : float array -> float
(** Geometric mean of strictly positive samples; 0 on the empty array. *)

