module Ir = Lime_ir.Ir
module I = Lime_ir.Interp

(** Clocked simulation of synthesized pipelines.

    Reproduces the behaviour visible in the paper's Figure 4 waveform:
    each stage's FIFO produces a value on the next rising clock edge
    after it is written, and an unpipelined stage spends one cycle
    reading, [st_latency] cycles computing and one cycle publishing.

    A pipeline marked [pl_pipelined] (fused segments) instead runs
    each stage at initiation interval 1: one element enters the
    pipeline registers every cycle and its result is publishable
    [st_latency] cycles later, so a stream of [n] elements drains in
    roughly [n + st_latency] cycles instead of [n * (st_latency + 2)].

    Passing a {!Vcd.t} records [clk], and per stage [<name>_inReady],
    [<name>_inData], [<name>_outReady], [<name>_outData], so the run
    can be inspected in a standard waveform viewer. *)

type stats = {
  cycles : int;  (** total clock cycles until the pipeline drained *)
  items : int;  (** elements that reached the sink *)
  stalls : int;  (** publish attempts blocked on a full FIFO *)
  max_fifo_occupancy : int;
}

exception Simulation_error of string

val clock_ns : int
(** The FPGA fabric's clock period in nanoseconds (4, i.e. 250 MHz):
    the spacing of the waveform's clock edges, and the rate at which
    the runtime charges simulated cycles as modeled time. *)

val interp : Ir.program -> Netlist.stage -> Wire.Value.t -> Wire.Value.t
(** [interp prog] is the reference stage evaluator: each element goes
    through [Lime_ir.Interp.call] on the stage's filter function, with
    the stage's receiver for a stateful filter. Tests, examples and the
    benchmark suite evaluate with it; the engine does not.
    @raise Simulation_error if a filter returns a non-scalar result. *)

val run :
  ?vcd:Vcd.t ->
  ?max_cycles:int ->
  eval:(Netlist.stage -> Wire.Value.t -> Wire.Value.t) ->
  Netlist.pipeline ->
  Wire.Value.t list ->
  Wire.Value.t list * stats
(** [run ~eval pipeline inputs] streams every input element through the
    pipeline and returns the sink outputs in order. [eval stage x] is
    the stage's combinational function. The simulator calls it once per
    element per stage, in clock order (when an unpipelined stage
    finishes computing, or when a pipelined stage accepts the element),
    so a stateful stage sees its elements in stream order. It decides
    only the data values: cycles, stalls, FIFO occupancy and the
    handshake signals do not depend on it. The engine passes its
    prepared bytecode VM (see [Runtime.Exec]); tests and examples pass
    {!interp}. An exception from [eval] (a trap) ends the run and
    propagates.

    The cycle loop does constant work per stage. Without a VCD it
    allocates nothing beyond what [eval] allocates: FIFOs are fixed
    rings, the stage FSM lives in mutable fields, quiescence is two
    counters, and data ports are encoded only when a VCD records
    them.
    @raise Simulation_error on a wedged pipeline (deadlock /
    [max_cycles] exceeded, default 10 million). *)
