module Ir = Lime_ir.Ir
module I = Lime_ir.Interp

(** The co-execution engine: the externally visible face of the
    Liquid Metal runtime.

    [call] runs a host method on the bytecode VM with hooks installed
    so that task graphs, map sites and reduce sites consult the
    artifact store, perform task substitution under the current
    {!Substitute.policy}, marshal values across the host/device
    boundary (Figure 3), and dispatch to the GPU and FPGA substrates.
    Everything is accounted in {!Metrics}.

    Device launches are fault-tolerant: a launch that raises
    {!Support.Fault.Device_fault} is retried up to [max_retries] times
    with exponential backoff (receiver state is rewound first), and on
    exhaustion the device is quarantined in the {!Store} and the
    segment is dynamically re-substituted — re-planned over the
    remaining healthy devices, bottoming out at bytecode, which always
    exists and cannot fault. See [docs/FAULT_TOLERANCE.md]. *)

type t

exception Engine_error of string
(** Raised on invalid engine configuration (e.g. a non-positive
    [fifo_capacity]). *)

type cost_model = n:int -> Artifact.t option -> Ir.filter_info list -> float
(** Predicted modeled nanoseconds for one segment launch over [n]
    elements: [f ~n None chain] the interpreted-bytecode path,
    [f ~n (Some artifact) chain] a device substitution (compute +
    launch overhead + both boundary crossings). The placement planner
    installs a calibrated one ({!Placement.Planner.cost_fn}); without
    it the engine prices with {!analytic_cost}, as
    [overhead + per_elem * n]. *)

val create :
  ?policy:Substitute.policy ->
  ?fuse:bool ->
  ?gpu_device:Gpu.Device.t ->
  ?fifo_capacity:int ->
  ?chunk_elements:int ->
  ?max_retries:int ->
  ?cost_model:cost_model ->
  ?replan_factor:float ->
  ?map_chunks:int ->
  ?reduce_chunks:int ->
  Bytecode.Compile.unit_ ->
  Store.t ->
  t
(** Defaults: [Prefer_accelerators], GTX580-class GPU, FIFO capacity
    16, whole-stream device batching ([chunk_elements] bounds the
    staging buffer and launches the device every that-many elements),
    [max_retries] 2. Not options: the SIMT simulator models warp
    divergence, retry [k] waits [1000 * 2^k] modeled nanoseconds, and
    the FPGA clock ({!Rtl.Sim.clock_ns}) and the boundary models
    ({!Metrics.create}) are fixed.

    [fuse] (default on) plans with cross-filter fused artifacts and
    the store's fusion registry ({!Substitute.plan}); off plans every
    stage separately. Independent of [fuse], a fused segment that
    exhausts its retries is unfused: recovery re-plans it per stage
    (see [docs/FUSION.md]).

    Every task graph runs in its steady-state order: the engine solves
    the planned chain's SDF balance equations
    ([Analysis.Rates.chain_firings]) and gives each actor the step
    budget of its share of the repetition vector, with FIFO capacities
    sized from the stream (at least [fifo_capacity], at most 4096). A
    chain with no solution (a non-positive source rate) steps every
    actor once per round, and wedges. Solved budgets are cached per
    (template, plan, stream shape) for the session; hits are counted
    in {!Metrics.snapshot.sched_cache_hits}. Scheduler outcomes are
    recorded in {!Metrics}.

    [replan_factor] arms online re-planning: after every device
    segment launch the measured modeled service time is compared
    against the cost model's prediction, and a launch that exceeds
    [factor * predicted] demotes the artifact (its observed
    per-element cost overrides the model from then on) and routes the
    segment's remaining chunks through mid-run re-substitution —
    planned adaptively by effective cost even under a manual policy,
    so the demotion takes effect. See [docs/PLACEMENT.md].

    Map/reduce kernel sites always execute as lowered
    scatter/worker/gather task graphs ([Lime_ir.Lower_mapreduce])
    under the full plan/actor/fault machinery, with the all-ones
    budgets of their repetition vector.
    [map_chunks]/[reduce_chunks] force the scatter width (maps default
    to up to 4 chunks of at least 1024 elements; reduces to 1 unless
    the combiner is proven associative, because chunked combining
    reassociates the fold). See [docs/LOWERING.md].

    @raise Engine_error if [fifo_capacity < 1]. *)

val call : t -> string -> I.v list -> I.v
(** Run a host method end to end under the engine's policy. *)

val set_policy : t -> Substitute.policy -> unit

val fusing : t -> bool
(** Whether the engine plans with fused artifacts ([fuse] at
    creation). *)

val set_cost_model : t -> cost_model -> unit
(** Install (or replace) the calibrated cost model used by the
    [Adaptive] policy and the re-planner. *)

val observed_costs : t -> (string * float) list
(** Per-artifact observed per-element costs ("uid@device" -> ns)
    recorded by the online re-planner; empty until a launch
    underperforms its model. *)

val gpu_device : t -> Gpu.Device.t
(** The GPU model the engine simulates and prices launches with. *)

val metrics : t -> Metrics.t
val store : t -> Store.t
val program : t -> Ir.program

val last_plan : t -> string option
(** Human-readable description of the substitution plan chosen for the
    most recently executed task graph. *)

(** {2 The analytic cost model}

    The engine's one static device-cost model. The placement
    calibrator falls back to it for every chain it cannot measure, so
    an analytic profile and the built-in [Adaptive] estimate are the
    same numbers. *)

val filter_fn_key : Ir.filter_info -> string
(** The function a filter dispatches to: its static key, or
    ["Class.method"] for an instance filter. *)

val chain_insns : t -> Ir.filter_info list -> int
(** Per-element instructions of a chain: the summed bytecode lengths
    of its functions (16 for a function without bytecode), or, for a
    kernel-site worker (a one-filter chain whose UID names a lowered
    site), {!Lime_ir.Lower_mapreduce.weighted_insns} of the site's
    function, which weights loop bodies by a trip count. *)

val elem_bytes : Ir.filter_info list -> float
(** Marshaled bytes per stream element: the wire width of the chain's
    input port, 1 for [boolean] and [bit], 4 otherwise. *)

val analytic_cost :
  t -> Artifact.t option -> Ir.filter_info list -> float * float
(** [(per_elem_ns, overhead_ns)] of one launch of [chain] on
    [artifact]'s device ([None] = interpreted bytecode): a launch of
    [n] elements costs [overhead_ns + per_elem_ns * n]. Instructions
    ({!chain_insns}) run at the device's rate
    ({!Metrics.cpu_ns_per_instruction},
    {!Metrics.native_ns_per_instruction}, the engine's GPU model,
    {!Rtl.Sim.clock_ns}); launch overhead and boundary latency are the
    fixed cost, both crossings' bandwidth ({!elem_bytes} per element)
    a per-element one. A fused GPU kernel streams its result home (one
    latency, not two); a fused FPGA pipeline takes one element per
    clock after its fill latency. *)

val modeled_ns : t -> float
(** Total modeled time accumulated so far (interpreter + devices +
    boundaries) — the quantity whose deltas the calibrator and the
    re-planner measure. *)

val calibrate_batch :
  ?receivers:I.v option list ->
  t ->
  Artifact.t ->
  Wire.Value.t list ->
  Wire.Value.t list
(** One raw device launch over a synthetic batch through the full
    boundary path — the placement calibrator's microbenchmark
    primitive. Static chains run receiverless; stateful chains pass
    fabricated receiver objects via [receivers] (one [option] per
    filter of the artifact's chain, in order).

    @raise Engine_error for map/reduce (non-chain) artifacts or a
    misaligned receiver list. *)
