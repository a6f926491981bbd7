(** Semantic types of the Lime subset.

    The central predicate is {!is_value}: [value] types are recursively
    immutable (paper section 2.1), and only values may flow between
    tasks, so this predicate gates task-graph construction, map/reduce
    operands, and marshaling. *)

type mut = Mut | Immut

type ty =
  | Int
  | Float
  | Bool
  | Bit  (** the builtin value enum [bit { zero, one }] *)
  | Void
  | Enum of string
  | Array of ty * mut
  | Instance of string  (** a class instance *)
  | Task of ty option * ty option
      (** a task or task graph with optional input and output port
          element types; [Task (None, None)] is a complete graph that
          can be started *)

val is_value : ty -> bool
(** Recursively immutable: primitives, enums, and [Immut] arrays of
    value types. *)

val equal : ty -> ty -> bool

val widens_to : ty -> ty -> bool
(** [widens_to a b] when [a] implicitly converts to [b] (identity, or
    the Java [int] to [float] widening). *)

val pp : Format.formatter -> ty -> unit
val to_string : ty -> string
