(** The solver table: every algorithm [sosctl -a] can name, the
    precondition its guarantee needs, and how to run it. sosctl and the
    corpus tests read this one list, so a new algorithm is one row. Every
    row builds the one schedule form, a {!Sos.Schedule.Columns.t}, through
    one [run] field. It lives here because [baselines] links both {!Sos}
    and the baselines. *)

type requires =
  | Any  (** any valid instance ([m >= 2]) *)
  | Window  (** [m >= 3]: Theorem 3.3's window algorithm and its variants *)
  | Unit_sizes  (** every [p_j = 1]: the splittable unit-size variants *)

type t = {
  name : string;  (** the [-a] name *)
  requires : requires;
  preemptive : bool;  (** validate its schedules with [~preemption_ok:true] *)
  run : Sos.Fast.workspace -> Sos.Instance.t -> Sos.Schedule.Columns.t;
      (** The schedule, as every algorithm builds it. The window solvers
          solve in the workspace with {!Sos.Fast.run_in}, so their store is
          the workspace's and valid until its next solve; the reference
          algorithms ignore it and return a fresh store. A caller without
          a workspace passes [Sos.Fast.workspace ()]. *)
}

val all : t list
(** In [-a] listing order. *)

val find : string -> t option

val check : t -> Sos.Instance.t -> (Sos.Instance.t, Robust.Failure.invalid) result
(** [Ok inst] when [inst] meets [t.requires]; otherwise
    [Too_few_processors {need = 3}], or [Malformed] naming the solver.
    Structural checks are {!Sos.Instance.validate}'s. *)
