module Ir = Lime_ir.Ir

(** The Liquid Metal compiler driver (the toolchain of Figure 2).

    [compile] runs the frontend (lex, parse, typecheck, lower) and then
    gives each quasi-independent backend compiler a chance to produce
    artifacts:

    - the bytecode backend always compiles the entire program, so every
      task has at least one implementation;
    - the OpenCL/GPU backend compiles suitable map sites, reduce sites
      and every contiguous subchain of suitable relocatable pure
      filters (fused elementwise kernels);
    - the Verilog/FPGA backend compiles every contiguous subchain of
      synthesizable relocatable filters (pipelines of unpipelined
      modules with FIFOs), including stateful filters whose fields
      become registers;
    - cross-filter fusion (on by default) collapses each maximal
      fusible run proven by [Analysis.Fusability] into one synthetic
      filter ([Lime_ir.Fuse]) and registers a fused OpenCL kernel and
      a fully-pipelined RTL module for it, plus a fusion-registry
      entry so bytecode plans execute the run as one segment. No fused
      native artifact is needed: the native backend already compiles a
      whole chain into one shared library with one JNI round trip.

    Tasks a backend cannot handle are excluded and the reason recorded
    in the manifest (paper section 3). *)

type compiled = {
  unit_ : Bytecode.Compile.unit_;  (** the bytecode artifact (whole program) *)
  store : Runtime.Store.t;  (** backend artifacts, keyed by task UID *)
  ir : Ir.program;  (** the optimized IR the backends consumed *)
  lowered : Lime_ir.Lower_mapreduce.lowered Ir.String_map.t;
      (** every map/reduce kernel site lowered onto the task-graph
          substrate ([Lime_ir.Lower_mapreduce]), keyed by site UID *)
  report : Analysis.Report.t;
      (** static-analysis results: effect summaries, value ranges,
          task-graph lint ([lmc analyze] renders these) *)
  phase_seconds : (string * float) list;
      (** wall time per compiler phase, frontend and backends *)
}

val compile : ?file:string -> ?fuse:bool -> string -> compiled
(** [fuse] (default on) enables the cross-filter fusion pass and the
    fused backends; the per-stage artifacts are emitted either way.
    @raise Support.Diag.Compile_error on frontend errors. *)

val manifest : compiled -> Runtime.Artifact.manifest

val engine :
  ?policy:Runtime.Substitute.policy ->
  ?fuse:bool ->
  ?gpu_device:Gpu.Device.t ->
  ?fifo_capacity:int ->
  ?chunk_elements:int ->
  ?max_retries:int ->
  ?cost_model:Runtime.Exec.cost_model ->
  ?replan_factor:float ->
  ?map_chunks:int ->
  ?reduce_chunks:int ->
  compiled ->
  Runtime.Exec.t
(** A co-execution engine over the compiled artifacts.
    [max_retries] configures the failure protocol,
    [cost_model]/[replan_factor] the placement cost model and online
    re-planning, [map_chunks]/[reduce_chunks] the lowered kernel-site
    execution (see {!Runtime.Exec.create}). *)
