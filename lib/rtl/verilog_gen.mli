(** Verilog code generation (paper section 3: "generates Verilog for
    the FPGA").

    Synthesizable filters are straight-line code with muxes, so each
    datapath folds into one combinational expression per output,
    reconstructed by symbolic evaluation with full call inlining;
    stateful filters contribute a next-value expression per field
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

val filter_module_text : Ir.program -> Netlist.stage -> string

val pipelined_module_text : Ir.program -> Netlist.stage -> string
(** Fully pipelined (initiation interval 1) stage module for fused
    segments: the composed datapath behind a [st_latency]-deep shift
    register of valid/data pairs. Stateless datapaths only.
    @raise Unsynthesizable if the stage has register state. *)

val sym_fn : Ir.program -> string -> string list -> string * (int * string) list
(** [sym_fn prog key args] symbolically evaluates a function to its
    result expression text and field next-value updates (exposed for
    tests). @raise Unsynthesizable on unsupported constructs. *)
