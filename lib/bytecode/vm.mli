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
    branches and scalar array accesses run on the unboxed values. A
    value is boxed only where it leaves a frame: a return, arguments
    to hooks, intrinsics and the host, object fields, and arrays of
    non-scalars. Code the IR does not describe runs fully boxed. None
    of this shows outside: every run charges exactly the instructions
    the bytecode executes and raises exactly the traps it raises.

    Task graphs, map sites and reduce sites trap to {!hooks}; the
    Liquid Metal runtime installs hooks that perform artifact
    substitution and co-execution. With {!no_hooks} everything runs
    inline on the VM itself (pure CPU execution). *)

type v = Lime_ir.Interp.v

exception Vm_error of string

type hooks = {
  on_map : Insn.map_desc -> v list -> v option;
  on_reduce : Insn.reduce_desc -> v -> v option;
  on_run_graph : (Ir.graph_template -> v list -> blocking:bool -> bool) option;
}

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
  executed : int;  (** dynamic instruction count, including callees *)
}

type entry
(** A function of one program, looked up once: a caller that runs the
    same function again and again (once per stream element, say)
    resolves it once and calls the handle. *)

val entry : program -> string -> entry
(** [entry program "Class.method"]. A missing function traps only
    when called. *)

val call : ?hooks:hooks -> entry -> v list -> result
(** Run a resolved function. Runs are independent: each has its own
    hooks and count, and a hook may start another run on the same
    program.
    @raise Vm_error on stack underflow, missing functions or type
    confusion, and [Lime_ir.Interp.Runtime_error] on the traps the
    interpreter shares (bounds, division by zero, bad operands), with
    its text. *)

val run : ?hooks:hooks -> program -> string -> v list -> result
(** [run program "Class.method" args] is
    [call (entry program "Class.method") args]. *)
