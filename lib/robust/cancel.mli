(** Cooperative cancellation tokens with optional deadlines.

    Worker domains cannot be killed, so cancellation in this codebase is
    cooperative: long-running code polls a token ({!check}, or
    {!Context.poll} for the ambient one) at loop boundaries and unwinds
    via {!Failure.Cancel_requested} / {!Failure.Deadline} when it has
    fired. The batch engine arms one token per task attempt (carrying the
    [--task-timeout] deadline) with the batch-wide token as its parent, so
    a single {!cancel} on the parent stops every polling task. Tokens are
    domain-safe: {!cancel} from any domain is visible to all pollers. *)

type t

val none : t
(** A token that never fires. *)

val create : ?timeout:float -> ?parent:t -> unit -> t
(** [create ~timeout ~parent ()] makes a token whose deadline is
    [timeout] seconds from now (none if omitted) and which also fires
    whenever [parent] does. Raises [Invalid_argument] if
    [timeout <= 0]. *)

val cancel : t -> unit
(** Fire the token (idempotent). Parents are not affected. *)

val cancelled : t -> bool
(** The token or an ancestor has been cancelled ({e not} deadline
    expiry — that is only observed by {!check}, which knows the clock). *)

val check : t -> unit
(** Raise {!Failure.Cancel_requested} if the token or an ancestor was
    cancelled, {!Failure.Deadline} if a deadline (own or ancestral) has
    been reached — the clock reads at or past it; otherwise return. A
    timeout below the clock's resolution therefore expires on the first
    check. Cost when armed: one atomic load per chain link, plus a clock
    read per deadline. *)
