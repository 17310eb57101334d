(** Structured failure taxonomy for the resilient batch engine.

    Every way a batch task can fail is one of five classes, so entry points
    (sosctl, bench, the engine) report failures uniformly instead of
    stringifying whatever exception happened to escape:

    - {!Invalid_instance}: the input is ill-posed — rejected up front by
      the strict validator ({!Sos.Instance.validate}) with a machine-
      readable {!invalid} reason. Permanent: never retried.
    - {!Task_exn}: the task raised; the raw backtrace is captured at the
      raise site. Transient: eligible for bounded retry.
    - {!Deadline_exceeded}: the task tripped its cooperative per-task
      deadline (see {!Cancel}). Transient.
    - {!Cancelled}: the batch (or the task) was cooperatively cancelled.
      Permanent.
    - {!Pool_crashed}: the pool machinery itself is unusable (e.g. a batch
      submitted after shutdown). Permanent.

    The [Invalid], [Deadline], [Cancel_requested], and [Pool_down]
    exceptions are the raise-side carriers for the non-[Task_exn] classes;
    {!of_exn} maps any exception back onto the taxonomy. *)

(** Why an instance is ill-posed. [job] indices refer to the caller's spec
    order (0-based). *)
type invalid =
  | Nonpositive_req of { job : int; req : int }
      (** [r_j <= 0]: the paper requires every resource requirement to be
          a positive fraction of the shared resource. *)
  | Nonpositive_size of { job : int; size : int }  (** [p_j < 1]. *)
  | Too_few_processors of { m : int; need : int }
      (** [m < need]: [need = 2] structurally, [need = 3] when the window
          algorithm's Theorem 3.3 guarantee is required. *)
  | Bad_scale of int  (** resource resolution [scale < 1]. *)
  | Not_finite of { job : int; value : float }
      (** NaN or infinite resource share in a float spec. *)
  | Overflow of string
      (** An Equation (1) quantity ([Σ p_j], [Σ s_j = Σ p_j r_j], or
          [Σ r_j]) exceeds [max_int]; the lower bound would be silently
          negative. *)
  | Malformed of string
      (** unparsable spec text, or a precondition other than [m] that the
          selected solver needs and the instance breaks (a job with
          [p_j > 1] under a unit-size solver); the message then names the
          solver. *)

type t =
  | Invalid_instance of invalid
  | Task_exn of exn * Printexc.raw_backtrace
  | Deadline_exceeded of float  (** the timeout that was exceeded, s. *)
  | Cancelled
  | Pool_crashed of string

exception Invalid of invalid
exception Deadline of float
exception Cancel_requested
exception Pool_down of string

exception Internal of string
(** A solver invariant broke (fuel exhausted, no progress, budget
    overrun): always a bug, never the workload's fault. Classified as
    {!Task_exn} by {!of_exn} so the batch engine reports it per-task
    like any other crash. Raise via {!internal_error}; hot paths must
    not use bare [failwith] (lint rule R6, doc/LINT.md). *)

val internal_error : ('a, unit, string, 'b) format4 -> 'a
(** [internal_error fmt ...] raises {!Internal} with the formatted
    message. *)

val of_exn : exn -> Printexc.raw_backtrace -> t
(** Classify a caught exception (pair it with
    [Printexc.get_raw_backtrace ()] taken immediately at the catch). *)

val transient : t -> bool
(** Eligible for bounded retry: [Task_exn] and [Deadline_exceeded].
    Invalid input, cancellation, and a crashed pool are permanent. *)

val class_name : t -> string
(** Stable one-token class label for structured output lines:
    ["invalid-instance"], ["task-exn"], ["deadline"], ["cancelled"],
    ["pool-crashed"]. *)

val invalid_to_string : invalid -> string

val message : t -> string
(** Human-readable detail without the class prefix. *)

val to_string : t -> string
(** [class_name ^ ": " ^ message]. *)

