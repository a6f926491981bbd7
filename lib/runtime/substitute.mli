(** Task substitution (paper section 4.2).

    "At present, the runtime algorithm for doing this substitution is
    primitive: it prefers a larger substitution to a smaller one. It
    also favors GPU and FPGA artifacts to bytecode although that choice
    can be manually directed as well." All of those behaviours are
    policies here, together with the ablation policies and the
    section-7 adaptive extension, and one planner ({!plan}) serves
    them all. *)

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

val plan :
  ?fuse:bool ->
  ?cost:(Artifact.t option -> Ir.filter_info list -> float) ->
  policy ->
  Store.t ->
  Ir.filter_info list ->
  segment list
(** The one planner, for every policy: choose implementations for a
    task graph's filter chain, walking each maximal run of relocatable
    filters once. Non-relocatable filters always stay on bytecode.

    Every policy chooses among the same candidates: the artifacts that
    cover a prefix of the run, the fused uid (["fuse:" ^ chain uid],
    with [fuse]) before the per-stage one, on GPU, FPGA, then native;
    equal candidates tie-break by artifact UID (via {!Store.find}'s
    sorted order), never by store insertion order.

    - The static policies take the longest covered prefix on their
      most preferred allowed device ([Prefer_accelerators] allows GPU,
      FPGA, native in that order; [Prefer_devices ds] allows [ds] in
      its order), and leave one filter on bytecode when no prefix is
      covered. [Smallest_substitution] considers one-filter prefixes
      only; [Bytecode_only] allows no device.
    - [Adaptive] prices each artifact that covers the whole run with
      [cost (Some artifact) run] against [cost None run] (bytecode)
      and keeps the strictly cheapest: ties keep the earlier
      candidate, and bytecode beats a device that only equals it. If
      bytecode wins, the whole run stays on bytecode. [cost] is used
      by [Adaptive] only.

    With [fuse] (the default) bytecode runs are rewritten through the
    store's fusion registry so a fused run executes as one segment
    even on the VM. [~fuse:false] is the unfuse path: fault recovery
    re-plans a faulted fused segment per stage with it.

    @raise Invalid_argument for [Adaptive] without [cost]. *)

val describe_plan : segment list -> string
(** e.g. ["bytecode(1) | gpu(2)"]; fused segments read
    ["fpga(3 stages fused)"]. *)
