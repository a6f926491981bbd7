module Ir = Lime_ir.Ir

(** SIMT execution simulator.

    Functionally it computes exactly what the bytecode path computes:
    every work item runs the program's own bytecode on the engine's
    VM, so substituting a GPU artifact never changes program results —
    the paper's semantic-equivalence requirement for artifacts. A
    kernel launch is one VM launch over all its work items
    ({!Bytecode.Vm.map}, {!Bytecode.Vm.fold}, {!Bytecode.Vm.apply_all}),
    not a call per item: after each item, its cycles, memory bytes and
    branch signature are recorded and the lane reset.

    For timing it models the forces that produce the paper's reported
    12x-431x data-parallel speedups: thousands of SIMT lanes, warp
    divergence (divergent lanes serialize per warp), and memory
    bandwidth. Every lane records a cycle count, a branch signature
    and its memory traffic; warps pay the maximum cost per divergent
    group, warps spread across SMs, and the kernel pays
    max(compute, memory) plus a fixed launch overhead. *)

type timing = {
  items : int;  (** work items executed *)
  compute_cycles : float;  (** aggregate warp cycles across the device *)
  mem_bytes : int;
  kernel_ns : float;  (** modeled wall time of the kernel alone *)
  avg_divergence_groups : float;
      (** mean number of serialized groups per warp; 1.0 = uniform *)
}

exception Device_error of string
(** Raised by the device's own traps: a missing device function, a
    kernel given a different number of arguments than it takes, a
    failing intrinsic, and constructs the suitability analysis keeps
    off the device (allocation, objects, nested map/reduce sites and
    task graphs). Bounds and division traps are the interpreter's
    [Runtime_error]s, as on every other path. *)

type program
(** One engine's device program: its bytecode, specialised for the
    VM a second time ({!Bytecode.Vm.prepare_device}) so that each
    block charges the device's cycle table instead of instruction
    counts: per-operation cycles, 4 cycles and 4 memory bytes per
    array access, a cycle per conditional branch, 2 per function entry
    (the kernel's own included) and an intrinsic's special-function
    cycles. Each conditional branch also extends the work item's
    branch signature. Bounds proofs reach the device as the unchecked
    accesses in the bytecode. *)

val weights : Bytecode.Vm.weights
(** The device's cycle table, over the bytecode a work item runs. *)

val prepare : Bytecode.Compile.unit_ -> program
(** A device program over a compiled unit; functions specialise on
    first launch. Launches on one [program] must not overlap (an
    engine runs one at a time). *)

val run_map :
  ?device:Device.t ->
  ?model_divergence:bool ->
  program ->
  Ir.map_site ->
  Wire.Value.t list ->
  Wire.Value.t * timing
(** Execute a map site over its (already evaluated) arguments.
    Returns the frozen result array. [model_divergence] (default
    [true]) serializes each warp's divergent groups; [false] charges a
    warp its slowest lane (the divergence ablation). *)

val run_reduce :
  ?device:Device.t ->
  program ->
  Ir.reduce_site ->
  Wire.Value.t ->
  Wire.Value.t * timing
(** Execute a reduce site. Values fold left-to-right (identical to the
    CPU path); the timing models a tree reduction. *)

val run_filter_chain :
  ?device:Device.t ->
  ?uid:string ->
  program ->
  chain:string list ->
  output_ty:Ir.ty ->
  Wire.Value.t ->
  Wire.Value.t * timing
(** Execute a fused chain of pure filters elementwise over a stream
    array: the GPU form of a substituted task subgraph. [uid] names
    the launch for tracing and fault injection (defaults to the
    joined chain). *)
