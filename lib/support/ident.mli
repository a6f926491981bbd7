(** Unique identifiers.

    Task identifiers are the glue between the backends and the runtime:
    the manifest labels every artifact with the UID of the task it
    implements, and the generated "bytecode" passes the same UIDs to the
    runtime at task-graph construction (paper section 3). *)

type t

val fresh : string -> t
(** [fresh base] returns a new identifier whose name starts with
    [base]. Successive calls never return equal identifiers. *)

val name : t -> string
(** The full unique name, e.g. ["flip#12"]. *)

val base : t -> string
(** The base supplied to {!fresh}. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t
