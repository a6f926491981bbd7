(** Compiler diagnostics.

    Every frontend and backend phase reports problems through this
    module so that messages carry a location, a severity and a phase
    tag, matching the paper's requirement that e.g. an undiscoverable
    task-graph shape inside relocation brackets is reported "at compile
    time with an appropriate error message". *)

type severity = Error | Warning | Note

type t = {
  severity : severity;
  loc : Srcloc.t;
  phase : string;   (** e.g. "parse", "typecheck", "gpu-backend" *)
  message : string;
}

exception Compile_error of t
(** Raised by phases that cannot continue. *)

val error : ?loc:Srcloc.t -> phase:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error ~loc ~phase fmt ...] raises {!Compile_error}. *)

val warning : ?loc:Srcloc.t -> phase:string -> string -> t
(** Builds a warning value (callers collect them). *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
