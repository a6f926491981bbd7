(** Behavioral synthesis feasibility, latency estimation, and pipeline
    assembly for the FPGA backend.

    The paper is explicit that its FPGA device compiler is "a work in
    progress" with a narrower feature set (sections 5 and 7); the
    exclusion rules mirror that: scalar port types only, no arrays, no
    loops (no FSM inference), no dynamic allocation, no transcendental
    intrinsics (no FP IP cores). Stateful filters with scalar fields
    are supported — fields become registers. *)

module Ir = Lime_ir.Ir
module I = Lime_ir.Interp

type verdict = Suitable | Excluded of string

type cache
(** Per-program memo of function analyses (verdict and datapath
    depth). Thread one cache through a whole compile so each callee
    is structurally walked once instead of once per enclosing
    subchain; both acceptances and rejections are cached (they are
    call-graph properties, independent of the walk's stack). *)

val make_cache : unit -> cache

val check_filter :
  ?effects:Analysis.Effects.t ->
  ?cache:cache ->
  Ir.program ->
  Ir.filter_info ->
  verdict
(** [effects] enables early rejection from the interprocedural effect
    summaries before any structural walk — the same locality
    relaxation as the GPU backend (field reads/writes are allowed:
    fields become registers). A clean summary never skips the walk:
    loops, array reads, intrinsics and recursion are structural
    properties, not effects. *)

val latency_of :
  ?effects:Analysis.Effects.t ->
  ?cache:cache ->
  Ir.program ->
  Ir.filter_info ->
  int
(** Compute cycles of the unpipelined stage: the maximum operation
    count along any path, at 4 datapath operations per clock, minimum
    1. *)

val pipeline_of_chain :
  ?effects:Analysis.Effects.t ->
  ?cache:cache ->
  Ir.program ->
  name:string ->
  ?fifo_depth:int ->
  ?pipelined:bool ->
  (Ir.filter_info * I.v option) list ->
  Netlist.pipeline
(** Assemble a pipeline netlist for a chain of suitable filters; the
    optional receiver objects become the stages' register state.
    [~pipelined:true] marks the datapath fully pipelined (initiation
    interval 1) — used for fused single-stage segments, whose composed
    straight-line body registers at every cycle boundary.
    @raise Netlist.Synthesis_error if a filter is excluded. *)
