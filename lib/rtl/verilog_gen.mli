(** Verilog code generation (paper section 3: "generates Verilog for
    the FPGA").

    Synthesizable filters are straight-line code with muxes, so each
    datapath is combinational logic, reconstructed by symbolic
    evaluation with full call inlining. Each operator and mux value is
    declared once as a wire and read by name, and identical values
    share one wire; stateful filters contribute a next value per field
    register. Floating-point operators appear as [fadd]/[fmul]/...
    function references (vendor FP cores).

    The module structure matches what {!Sim} executes and Figure 4
    shows: a registered-output FIFO per connection and an unpipelined
    read / compute / publish FSM per filter. *)

module Ir = Lime_ir.Ir

exception Unsynthesizable of string

val pipeline_text : Ir.program -> Netlist.pipeline -> string
(** The complete artifact: the FIFO module, one module per stage, and
    a wired top-level. *)

