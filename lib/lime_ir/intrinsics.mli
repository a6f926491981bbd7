(** The builtin [Math] class.

    Lime programs call [Math.sqrt(x)], [Math.exp(x)] ... as ordinary
    static local methods; there is no Lime body behind them — every
    execution engine maps them to its native operation (OCaml float
    primitives here, [sqrt]/[exp] in OpenCL C, [sqrtf]/[expf] in
    generated C), always rounding results to single precision so all
    engines agree bit-for-bit. The FPGA backend excludes them
    (transcendental FP cores are beyond its work-in-progress feature
    set, matching the paper's own FPGA-backend caveats). *)

val is_intrinsic : string -> bool
(** [is_intrinsic "Math.sqrt"] — recognizes intrinsic function keys. *)

val signatures : (string * int) list
(** Method name and arity for every [Math] intrinsic (all parameters
    and results are [float]). *)

exception Error of string

val apply : string -> Wire.Value.t list -> Wire.Value.t
(** Evaluate an intrinsic by key, e.g.
    [apply "Math.pow" [Float 2.; Float 10.]].
    @raise Error on unknown keys or wrong arguments. *)

val resolve : string -> Wire.Value.t list -> Wire.Value.t
(** [resolve key] looks the intrinsic up once; applying the result is
    [apply key]. An unknown key raises {!Error} when applied. *)

type op = Sqrt | Exp | Log | Sin | Cos | Abs | Floor | Pow | Min | Max
(** The operation of each entry of the one table that {!resolve} and
    {!signatures} are derived from. An engine that matches on it can
    call the float primitive directly, unboxed; its result is rounded
    to single precision, as {!apply}'s is. *)

val op : string -> op option
(** [op key] is the intrinsic's operation; [None] for an unknown key. *)

val arity : op -> int
(** How many float arguments the operation takes: 1 or 2. *)

val device_cycles : string -> int
(** GPU special-function-unit cost of one application. *)

val opencl_name : string -> string
(** The OpenCL C spelling, e.g. ["Math.sqrt"] -> ["sqrt"]. *)

val c_name : string -> string
(** The C spelling (single precision), e.g. ["Math.sqrt"] -> ["sqrtf"]. *)
