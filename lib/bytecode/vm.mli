module Ir = Lime_ir.Ir

(** The bytecode virtual machine (the reproduction's "JVM").

    A stack machine whose executed-instruction count is the CPU cost
    model of the paper's bytecode execution path: {!result} reports
    it, and the benchmark harness converts it into modeled CPU time.
    How the host runs the instructions is not part of that model.
    Each function is specialised once per {!program}, on its first
    call, into OCaml closures: a chain per basic block, with
    operand-stack positions resolved to frame slots and callees,
    classes and templates resolved up front. Every run charges exactly
    the instructions the bytecode executes and raises exactly the
    traps it raises.

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

val run : ?hooks:hooks -> program -> string -> v list -> result
(** [run program "Class.method" args]. Runs are independent: each has
    its own hooks and count, and a hook may start another run on the
    same program.
    @raise Vm_error on stack underflow, missing functions, type
    confusion, or any semantic trap (bounds, division by zero). *)
