module Ir = Lime_ir.Ir

(** SIMT execution simulator.

    Functionally it computes exactly what the bytecode path computes
    (it reuses the reference interpreter's operator semantics), so
    substituting a GPU artifact never changes program results — the
    paper's semantic-equivalence requirement for artifacts.

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

type program
(** One engine's device code: each device function compiles once, on
    first launch, into OCaml closures. Callee lookups, bounds proofs,
    slot counts, parameter slots, operand reads and per-operation cycle
    costs are resolved at compile time; a launch looks its kernel up
    once and runs one closure call per work item. Every work item is
    charged exactly what a walk of the IR would charge, so modeled
    time does not depend on this. *)

val prepare : Ir.program -> program
(** An empty per-program kernel cache; compilation is lazy. Launches
    on one [program] must not overlap (an engine runs one at a time). *)

val run_map :
  ?device:Device.t ->
  ?model_divergence:bool ->
  program ->
  Ir.map_site ->
  Wire.Value.t list ->
  Wire.Value.t * timing
(** Execute a map site over its (already evaluated) arguments.
    Returns the frozen result array. *)

val run_reduce :
  ?device:Device.t ->
  ?model_divergence:bool ->
  program ->
  Ir.reduce_site ->
  Wire.Value.t ->
  Wire.Value.t * timing
(** Execute a reduce site. Values fold left-to-right (identical to the
    CPU path); the timing models a tree reduction. *)

val run_filter_chain :
  ?device:Device.t ->
  ?model_divergence:bool ->
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
