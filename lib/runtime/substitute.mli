(** Task substitution (paper section 4.2).

    "At present, the runtime algorithm for doing this substitution is
    primitive: it prefers a larger substitution to a smaller one. It
    also favors GPU and FPGA artifacts to bytecode although that choice
    can be manually directed as well." All of those behaviours are
    policies here, together with the ablation policies and the
    section-7 adaptive extension. *)

module Ir = Lime_ir.Ir

type policy =
  | Bytecode_only  (** manual direction: never substitute *)
  | Prefer_accelerators
      (** the paper's default: largest substitution first; GPU, then
          FPGA, then native shared libraries *)
  | Prefer_devices of Artifact.device list
      (** manual direction of the device preference order *)
  | Smallest_substitution  (** ablation A1: single-filter substitutions *)
  | Adaptive
      (** paper section 7 (future work): pick the placement with the
          lowest estimated cost for the observed stream length *)

(** A maximal run of consecutive filters with one chosen
    implementation. *)
type segment =
  | S_bytecode of Ir.filter_info list
  | S_device of Artifact.t * Ir.filter_info list

val segment_filters : segment -> Ir.filter_info list

val plan :
  ?fuse:bool -> policy -> Store.t -> Ir.filter_info list -> segment list
(** Choose implementations for a task graph's filter chain, greedy
    left-to-right. Non-relocatable filters always stay on bytecode.

    Deterministic: longer chains beat shorter ones, devices follow the
    policy's preference order, and equal-length chains on
    equally-preferred devices tie-break by artifact UID (via
    {!Store.find}'s sorted order), never by store insertion order.

    With [fuse] (the default) every device lookup tries the fused
    artifact (uid ["fuse:" ^ chain uid]) before the per-stage one, and
    bytecode runs are rewritten through the store's fusion registry so
    a fused run executes as one segment even on the VM. [~fuse:false]
    is the unfuse path: fault recovery re-plans a faulted fused
    segment per stage with it. *)

val fuse_bytecode : Store.t -> Ir.filter_info list -> Ir.filter_info list
(** Replace every registered fusible run inside a bytecode run with
    its synthetic fused filter (exposed for tests). *)

val plan_adaptive :
  ?fuse:bool ->
  cost:(Artifact.t option -> Ir.filter_info list -> float) ->
  Store.t ->
  Ir.filter_info list ->
  segment list
(** Adaptive planning: per maximal relocatable run, compare the
    estimated cost of each whole-run device artifact — fused
    candidates first when [fuse] — against bytecode ([cost None]) and
    keep the cheapest. *)

val describe_plan : segment list -> string
(** e.g. ["bytecode(1) | gpu(2)"]; fused segments read
    ["fpga(3 stages fused)"]. *)
