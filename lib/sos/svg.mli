(** SVG rendering of schedules: a self-contained vector Gantt chart with a
    resource-utilization strip, for READMEs and papers. Pure string
    generation, no dependencies. *)

val render : ?title:string -> Schedule.Columns.t -> string
(** An SVG document, 960 pixels wide, 22 per processor row. Jobs are
    colored by id (golden-angle hue rotation), labeled when wide enough;
    below the rows a strip shows the consumed utilization, one rect per
    step-function segment. The store must be valid and non-preemptive, as
    {!Schedule.processor_assignment} requires; the render is O(|blocks|),
    independent of the makespan. *)
