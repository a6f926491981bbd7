(** C code generation for native CPU artifacts (paper section 5).

    "In the case of native binaries, the compiler generates C code and
    builds shared libraries that are dynamically loaded by the Liquid
    Metal runtime to co-execute with the remaining Lime bytecodes."
    The generated C is the artifact text; execution in this sealed
    environment is performed by the bytecode VM under the native cost
    model (DESIGN.md section 2). Unlike OpenCL, C covers the full IR:
    loops, allocation, and stateful filters (fields become a state
    struct). *)

module Ir = Lime_ir.Ir

val chain_source_text : Ir.program -> uid:string -> Ir.filter_info list -> string
(** The complete shared-library source for a filter chain: state
    structs, static functions for every reachable callee, and one
    exported entry point streaming the chain over an array. *)
