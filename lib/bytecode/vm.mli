module Ir = Lime_ir.Ir

(** The bytecode virtual machine (the reproduction's "JVM").

    A stack machine whose executed-instruction count is the CPU cost
    model of the paper's bytecode execution path: {!result} reports
    it, and the benchmark harness converts it into modeled CPU time.
    How the host runs the instructions is not part of that model.
    Each function is specialised once per {!program}, on its first
    call, into OCaml closures: a chain per basic block, with
    operand-stack positions resolved to frame slots and callees,
    classes and templates resolved up front.

    Frames are typed. Every local takes its IR variable's declared
    type and every operand-stack position a static type, so ints and
    booleans live unboxed in an [int array], floats in a flat
    [float array], and everything else boxed. Arithmetic, comparisons,
    branches, scalar array accesses and [Math] intrinsics on floats
    run on the unboxed values. A function that returns an int, boolean
    or float leaves its result in a typed slot, where its caller, a
    launch or the next stage of a chain reads it. A value is boxed
    only where it leaves for the host or a hook, or goes into an
    object field or an array of non-scalars. Code the IR does not
    describe runs fully boxed. None of this shows outside: every run
    charges exactly the instructions the bytecode executes and raises
    exactly the traps it raises.

    Task graphs, map sites and reduce sites trap to {!hooks}; the
    Liquid Metal runtime installs hooks that perform artifact
    substitution and co-execution. With {!no_hooks} everything runs
    inline on the VM itself (pure CPU execution).

    A function applied to every element of a stream runs as one
    launch ({!map}, {!fold}, {!apply_all}), not one call per element;
    see {!section:launches}.

    The same bytecode also runs as a device's work items
    ({!prepare_device}): the GPU simulator evaluates every kernel
    application on a device program, which charges the device's
    weights instead of instruction counts. *)

type v = Lime_ir.Interp.v

exception Vm_error of string

exception Device_error of string
(** A device program's own traps: a missing function, an argument
    count that differs from the callee's, a failing intrinsic, and
    every construct a device cannot run (allocation, objects, nested
    map/reduce sites and task graphs), each where it executes. *)

(** A task-graph template bound to the operands of one start. *)
type graph = {
  g_uid : string;  (** the template's UID *)
  g_source : Wire.Value.t;  (** the source array *)
  g_rate : int;  (** elements the source pushes per firing *)
  g_filters : (Ir.filter_info * v option) list;
      (** the filters in order, each with its receiver if it is an
          instance filter *)
  g_sink : Wire.Value.t;  (** the destination array *)
}

type hooks = {
  on_map : Insn.map_desc -> v list -> v option;
  on_reduce : Insn.reduce_desc -> v -> v option;
  on_run_graph : (Ir.graph_template -> v list -> blocking:bool -> bool) option;
      (** runs a started graph; [false] leaves it to the VM, which
          applies every filter inline *)
}

val bind_graph : Ir.graph_template -> v list -> graph
(** A template's nodes paired with the operands of one start.
    @raise Vm_error on too few or too many operands, or a template
    that is not a source, filters and a sink. *)

val no_hooks : hooks

type program
(** One engine's specialised code for a compiled unit. It lives as
    long as its owner; nothing is shared between programs. *)

val prepare : Compile.unit_ -> program
(** An empty program: functions specialise lazily, on first call.
    Code must come from {!Compile}, whose operand stack has one depth
    at every instruction. *)

type result = {
  value : v;
  executed : int;
      (** dynamic instruction count, including callees; a device
          program's charged weights *)
}

(** {2 Device programs} *)

type weights = {
  cycles : Insn.t -> int;  (** what executing an instruction charges *)
  bytes : Insn.t -> int;  (** the device-memory bytes it moves *)
  entry : int;  (** entering a function, from a call or the host *)
  intrinsic : string -> int;  (** calling an intrinsic *)
}
(** A device's cost table over the instruction set. *)

type lane = { mutable mem_bytes : int; mutable branch_sig : int }
(** The counters of the work item in flight besides its charge:
    memory bytes, and a signature of its conditional branches
    ([sig * 31 + 1] per branch taken on true, [+ 2] on false), which
    tells lanes that took the same path. The caller resets them. *)

val prepare_device : weights -> lane -> Compile.unit_ -> program
(** A second specialisation of the same code for a device: each block
    charges the sum of its instructions' [cycles] (a function's entry
    and an intrinsic charge theirs), adds its [bytes] to [lane] and
    folds each conditional branch into [lane]'s signature. Its traps
    are {!Device_error}s with the device's text; host programs are
    unaffected. Runs on one device program must not overlap, since
    they share [lane]. *)

val run : ?hooks:hooks -> program -> string -> v list -> result
(** [run program "Class.method" args] runs a function. Runs are
    independent: each has its own hooks and count, and a hook may
    start another run on the same program.
    @raise Vm_error on stack underflow, missing functions or type
    confusion, and [Lime_ir.Interp.Runtime_error] on the traps the
    interpreter shares (bounds, division by zero, bad operands), with
    its text. *)

(** {2:launches Launches}

    A launch applies a function, or a chain of them, to every element
    of a stream on frames of its own and one run state, with no hooks,
    and equals a {!run} per element: the same values, the same count
    per element, and on a device program the same lane counters per
    element.

    - Arguments that do not change (receivers, scalars, unmapped
      arrays) are bound once, before element 0. A mapped argument is
      bound for every element, element [i] of an [int], [float] or
      [boolean] array straight into the parameter's typed slot; so is
      a parameter the function stores to.
    - A typed result goes from the return slot straight into a flat
      result array, the fold's accumulator, or the next filter's
      parameter. Results are boxed only for arrays of other elements
      and for {!apply}.
    - [on_elem executed] follows each element, once it completes: the
      CPU or native charge, or the SIMT's lane bookkeeping, which
      reads the lane's counters and resets them for the next element.
    - A trap at element [k] raises exactly what a {!run} of element
      [k] raises, after [on_elem] has heard elements [0] to [k-1].
      Arity checks run once, at element 0, with a call's text.

    The function's launch entry (which parameters it stores to) is
    worked out on its first launch and kept with its specialised
    body. A launch's frames are its own, so nothing outlives it; a
    {!chain}'s live as long as the chain. Launches on one device
    program must not overlap. *)

val map :
  program ->
  string ->
  elem:Ir.ty ->
  (v * bool) list ->
  off:int ->
  len:int ->
  (int -> unit) ->
  Wire.Value.t
(** [map p key ~elem args ~off ~len on_elem] applies [key] to
    elements [off] to [off + len - 1] of each mapped argument (flag
    [true]), passing the others whole, and returns the frozen array of
    the [len] results, of element type [elem]. The caller checks that
    the mapped arrays are that long. *)

val fold :
  program -> string -> Wire.Value.t -> off:int -> len:int -> (int -> unit) -> Wire.Value.t
(** [fold p key a ~off ~len on_elem] folds [key] left over elements
    [off] to [off + len - 1] of [a], [len >= 1]: [len - 1]
    applications, each reported. The accumulator stays in its typed
    slot. *)

val apply_all :
  program ->
  (string * v option) list ->
  (int -> unit) ->
  Wire.Value.t ->
  into:Wire.Value.t ->
  unit
(** [apply_all p ["C.f", Some receiver; "C.g", None] on_elem input
    ~into] runs every element of [input] through a chain of filter
    functions, each with its receiver for an instance filter, and
    writes element [i]'s result into element [i] of [into]: a SIMT
    filter chain, a native segment, the VM's own inline graph. A filter
    whose function is missing or takes another number of arguments
    traps when it first runs. *)

type chain
(** A chain of filters bound for {!apply}. *)

val chain : program -> (string * v option) list -> chain
(** The filters of {!apply_all}, bound once. *)

val apply : chain -> (int -> unit) -> Wire.Value.t -> Wire.Value.t
(** One element through a non-empty chain: a stream element of a
    filter actor, an FPGA stage, a re-substituted batch. *)
