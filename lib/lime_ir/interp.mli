(** Reference interpreter for the IR.

    This is the semantic oracle: the bytecode VM, the GPU simulator and
    the RTL netlists are all tested against it. It also gives host
    methods a direct execution path in unit tests, without the runtime.

    Map/reduce sites and task graphs execute inline by default; the
    Liquid Metal runtime overrides them through {!hooks} to perform
    artifact substitution and co-execution. *)

exception Runtime_error of string

(** Interpreter values: Lime wire values, plus class instances and
    task-graph handles (which never cross a device boundary). *)
type v =
  | Prim of Wire.Value.t
  | Obj of obj
  | Graph_handle of int

and obj = { obj_class : string; obj_fields : v array }

type hooks = {
  on_map : Ir.map_site -> v list -> v option;
      (** return [Some result] to intercept a map site *)
  on_reduce : Ir.reduce_site -> v -> v option;
  on_run_graph :
    (Ir.graph_template -> v list -> blocking:bool -> bool) option;
      (** full control over graph execution; return [true] if handled *)
}

val default_value : Ir.ty -> v
(** Zero / false / empty value used for uninitialized slots. *)

val prim_exn : v -> Wire.Value.t
(** @raise Runtime_error if the value is an object or graph handle. *)

val call :
  ?hooks:hooks ->
  ?proven:(Ir.instr -> bool) ->
  Ir.program ->
  string ->
  v list ->
  v
(** [call prog "Class.method" args] runs a function to completion.
    [proven] marks array accesses (by physical instruction identity)
    whose bounds were statically proven; those skip the per-access
    trap check (see [Analysis.Symbolic]).
    @raise Runtime_error on dynamic errors (bad index, missing
    function, sink overflow, division by zero...). *)

val pp : Format.formatter -> v -> unit

(** {2 Primitive semantics}

    Shared with the bytecode VM (and usable by other backends) so that
    every execution engine agrees bit-for-bit on operator, array and
    constant semantics. All raise {!Runtime_error} on misuse. *)

val eval_unop : Ir.unop -> Wire.Value.t -> Wire.Value.t
val eval_binop : Ir.binop -> Wire.Value.t -> Wire.Value.t -> Wire.Value.t
val const_value : Ir.const -> Wire.Value.t
val array_length : Wire.Value.t -> int
val array_get : Wire.Value.t -> int -> Wire.Value.t
val array_set : Wire.Value.t -> int -> Wire.Value.t -> unit

val array_get_unchecked : Wire.Value.t -> int -> Wire.Value.t
(** [array_get] without the Lime-level bounds trap, for accesses a
    static analysis proved in bounds. The OCaml runtime check remains
    as a safety net. *)

val array_set_unchecked : Wire.Value.t -> int -> Wire.Value.t -> unit
val new_array : Ir.ty -> int -> Wire.Value.t
val freeze : Wire.Value.t -> Wire.Value.t
