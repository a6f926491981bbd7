(** Device cost calibration (see [docs/PLACEMENT.md]).

    Produces one {!Profile.entry} per (chain, device) pair, consulting
    the persistent store first. Receiverless chains (all-static
    filters over a scalar element type) are *measured*: run through
    the real execution path — VM dispatch for bytecode,
    {!Runtime.Exec.calibrate_batch} (full boundary marshaling + device
    model) for artifacts — at two stream sizes, linear-fitted into
    per-element and per-launch costs. Chains that cannot be measured
    get an *analytic* profile from the engine's own model
    ({!Runtime.Exec.analytic_cost}). All costs are deterministic
    modeled nanoseconds, so the on-disk store is valid across runs and
    machines. *)

module Ir = Lime_ir.Ir

type ctx

val create : ?profile_store:Profile.store -> Liquid_metal.Compiler.compiled -> ctx
(** A calibration context over one compiled program: a scratch engine
    (default device models, private metrics) plus the profile store
    (default: [lm.profiles] in the working directory). *)

val profile : ctx -> Runtime.Artifact.t option -> Ir.filter_info list -> Profile.entry
(** The cost profile for running [chain] on [artifact]'s device
    ([None] = interpreted bytecode): served from the store when the
    content hash matches, calibrated and recorded otherwise. *)

val store : ctx -> Profile.store
val compiled : ctx -> Liquid_metal.Compiler.compiled

val hits : ctx -> int
(** Lookups served from the store by this context. *)

val calibrated : ctx -> int
(** Profiles calibrated (measured or analytic) by this context. *)

val predictor :
  ctx -> uid:string -> device:string -> n:int -> (float * string) option
(** Predicted modeled ns for one launch of [n] elements of chain [uid]
    on [device] ("gpu"/"fpga"/"native", as `launch` trace spans name
    them), plus the profile source name — the join the drift report in
    [lib/observe] performs against observed launches. [None] when the
    artifact is absent, quarantined, or not a filter chain. Misses
    calibrate through the store. *)
