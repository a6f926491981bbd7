module Ir = Lime_ir.Ir

(** The bytecode compiler: IR functions to stack-machine code.

    Structured control flow (if / while) is linearized with forward
    labels and backpatching; virtual registers become local slots
    (parameters occupy their declared slots, matching the VM's calling
    convention). *)

type code = {
  c_key : string;  (** function key, e.g. ["Bitflip.flip"] *)
  c_insns : Insn.t array;
  c_slots : int;  (** local-variable slot count *)
  c_params : int;  (** parameter count (receiver included) *)
  c_ret : Ir.ty;
}

type unit_ = {
  u_funcs : code Ir.String_map.t;
  u_program : Ir.program;  (** class/enum/template metadata *)
}

val compile_program :
  ?proven:(string -> Ir.instr -> bool) -> Ir.program -> unit_
(** [compile_program ?proven p] compiles every function; [proven key]
    is the bounds-proof predicate for function [key] (see
    [Analysis.Symbolic.prover]). *)

val disassemble : code -> string
