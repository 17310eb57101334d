(** Machine-readable exports of instances and schedules (CSV), for external
    analysis/plotting toolchains. The schedule writers read the column
    store ({!Schedule.Columns.t}). {!columns_to_csv_rle} and
    {!utilization_to_csv} emit one row per run-length-encoded block
    (strongly polynomial, safe for huge-volume instances);
    {!schedule_to_csv} is the expanded one-row-per-time-step escape hatch
    for moderate makespans. *)

val schedule_to_csv : Schedule.Columns.t -> string
(** Columns: [step,job,assigned,consumed] — one row per allocation per
    expanded time step; resource amounts in units of [1/scale]. Θ(makespan)
    rows: export only schedules of moderate makespan. *)

val columns_to_csv_rle : Schedule.Columns.t -> string
(** Columns: [t0,repeat,job,assigned,consumed] — one row per allocation per
    RLE block (the block covers steps [t0 .. t0+repeat−1]). O(Σ|allocs|)
    rows regardless of makespan. [sosctl export -w schedule-rle] and
    [sosctl batch --out-dir] write it. *)

val instance_to_csv : Instance.t -> string
(** Columns: [job,original_position,size,req,scale,m]. *)

val utilization_to_csv : Schedule.Columns.t -> string
(** Columns: [t0,len,assigned,consumed,jobs] — one row per RLE block
    ([assigned]/[consumed] as fractions of the resource); [Σ len] equals
    the makespan. *)

val trace_to_csv : Listing1.step_info list -> Instance.t -> string
(** Columns: [time,window_size,window_rsum,case,extra,left_border,
    right_border,finished] — the Listing 1 trace ([rsum] as a fraction). *)
