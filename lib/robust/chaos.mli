(** Seeded fault injector ("chaos") for resilience testing.

    Named sites in the solvers and the engine call {!point}; when armed, a
    site may raise {!Injected} or inject a wall-clock delay according to
    the armed rules. Disarmed (the default) a site costs one atomic load —
    the same discipline as [Obs.Metrics].

    {b Site registry} (documented in doc/ROBUSTNESS.md):
    ["sos.fast.run"], ["sos.fast.step"], ["sas.combined.run"],
    ["engine.batch.task"], ["engine.pool.worker"].

    {b Determinism.} Rules that target task indices, and probabilistic
    draws made inside a task scope, are pure functions of
    [(seed, site, task index, attempt, hit counter)] — never of domain
    identity — so an armed chaos configuration perturbs a batch
    identically at any [-j]. Draws outside any task scope (the pool's
    worker site) come from one process-wide seeded stream and are
    scheduling-dependent; they model genuinely asynchronous worker
    failures.

    {b Spec grammar} (for [sosctl]'s [--chaos]): clauses separated by [;]:
    - [SITE@I1,I2,...] — raise at the listed task indices, every attempt;
    - [SITE@I1,...:attempts=N] — only on attempts [0..N-1] (so a task
      retried [>= N] times recovers);
    - [SITE~P] — raise with probability [P] per hit;
    - [SITE+SECS] — delay every hit by [SECS] seconds;
    - [SITE+SECS~P] — delay with probability [P]. *)

exception Injected of string  (** carries the site name *)

type rule =
  | Fail_indices of { indices : int list; attempts : int }
  | Fail_prob of float
  | Delay of { seconds : float; prob : float }

val parse : string -> ((string * rule) list, string) result
(** Parse the spec grammar above. *)

val arm : ?seed:int -> string -> (unit, string) result
(** [parse] then {!arm_rules}. *)

val arm_rules : ?seed:int -> (string * rule) list -> unit
val disarm : unit -> unit
val armed : unit -> bool

val point : string -> unit
(** Fault-injection site: no-op unless armed with a rule for this site.
    May raise {!Injected} or sleep. *)
