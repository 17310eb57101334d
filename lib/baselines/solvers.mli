(** The solver table: every algorithm [sosctl -a] can name, the
    precondition its guarantee needs, and how to run it. sosctl and the
    corpus tests read this one list, so a new algorithm is one row. It
    lives here because [baselines] links both {!Sos} and the baselines. *)

type requires =
  | Any  (** any valid instance ([m >= 2]) *)
  | Window  (** [m >= 3]: Theorem 3.3's window algorithm and its variants *)
  | Unit_sizes  (** every [p_j = 1]: the splittable unit-size variants *)

type t = {
  name : string;  (** the [-a] name *)
  requires : requires;
  preemptive : bool;  (** validate its schedules with [~preemption_ok:true] *)
  run : Sos.Instance.t -> Sos.Schedule.Columns.t;
      (** The column store: native for the window solvers, converted once
          with {!Sos.Schedule.Columns.of_schedule} for the list-building
          reference algorithms. *)
  run_in : Sos.Fast.workspace -> Sos.Instance.t -> Sos.Schedule.Columns.t;
      (** [run] through a caller-owned workspace: the window solvers solve
          in it with {!Sos.Fast.run_in}, so the store is the workspace's
          and valid until its next solve; the reference algorithms ignore
          it and return a fresh store. *)
}

val all : t list
(** In [-a] listing order. *)

val find : string -> t option

val schedule : t -> Sos.Instance.t -> Sos.Schedule.t
(** [run], converted to the list form by {!Sos.Schedule.Columns.to_schedule}:
    the one conversion every caller outside [sosctl batch] reads. *)

val check : t -> Sos.Instance.t -> (Sos.Instance.t, Robust.Failure.invalid) result
(** [Ok inst] when [inst] meets [t.requires]; otherwise
    [Too_few_processors {need = 3}], or [Malformed] naming the solver.
    Structural checks are {!Sos.Instance.validate}'s. *)
