(** Execution metrics and the cost models.

    Everything the evaluation needs: VM and native instruction counts,
    device kernel times, marshaling traffic on both boundaries
    (PCIe-class for accelerators, JNI-only for native shared
    libraries), and the substitutions that were performed. *)

type snapshot = {
  vm_instructions : int;
  native_instructions : int;
      (** instructions executed inside native (compiled C) segments *)
  native_ns : float;  (** those instructions under the native cost model *)
  gpu_kernels : int;
  gpu_kernel_ns : float;
  fpga_runs : int;
  fpga_cycles : int;
  fpga_ns : float;
  marshal : Wire.Boundary.stats;  (** the accelerator (PCIe-class) boundary *)
  marshal_native : Wire.Boundary.stats;  (** the JNI-only boundary *)
  substitutions : (string * Artifact.device) list;
      (** chain uid, chosen device — in execution order *)
  device_faults : int;  (** faults observed (injected or real) *)
  retries : int;  (** launch retries after a fault *)
  resubstitutions : int;  (** dynamic re-plans after retry exhaustion *)
  replans : int;
      (** online re-plans: a device underperformed its cost model by
          more than the configured factor and the segment was
          re-substituted mid-run *)
  backoff_ns : float;  (** modeled time spent backing off before retries *)
  sched_runs : int;  (** task-graph scheduler invocations *)
  sched_rounds : int;  (** cumulative scheduling rounds *)
  sched_steps : int;  (** cumulative actor steps *)
  sched_blocked_steps : int;  (** cumulative blocked steps *)
  sched_cache_hits : int;
      (** steady-state schedules served from the per-session
          (template, plan) cache instead of re-solving the rate graph *)
  mr_runs : int;
      (** map/reduce sites executed through the lowered
          scatter/worker/gather task graph *)
  mr_chunks : int;  (** worker chunk launches across those runs *)
  fused_launches : int;
      (** device launches of a fused (cross-filter) segment *)
  unfuses : int;
      (** faulted fused segments re-planned per stage (unfuse path) *)
}

type t

val create : unit -> t
(** Zeroed counters over the two boundary models: the default
    PCIe-class {!Wire.Boundary.create} for accelerators and the
    JNI-only one for native libraries. *)

val add_vm_instructions : t -> int -> unit
val add_native_instructions : t -> int -> unit
val add_gpu_kernel : t -> ns:float -> unit
val add_fpga_run : t -> cycles:int -> ns:float -> unit
val add_substitution : t -> string -> Artifact.device -> unit
val add_device_fault : t -> unit

val add_retry : t -> backoff_ns:float -> unit
(** One retry, accumulating the modeled backoff delay before it. *)

val add_resubstitution : t -> unit

val add_replan : t -> unit
(** One online re-plan (measured service time exceeded the model's
    prediction by more than the replan factor). *)

val add_sched_cache_hit : t -> unit
(** One steady-state schedule served from the session cache. *)

val add_fused_launch : t -> unit
(** One device launch of a fused (cross-filter) segment. *)

val add_unfuse : t -> unit
(** One faulted fused segment re-planned per stage (the unfuse path of
    the failure protocol, see [docs/FUSION.md]). *)

val add_mr_run : t -> chunks:int -> unit
(** One map/reduce site executed through the lowered
    scatter/worker/gather graph, with its chunk count. *)

(** One task-graph scheduler invocation and its {!Scheduler.stats}. *)
val add_scheduler_run : t -> rounds:int -> steps:int -> blocked_steps:int -> unit
val boundary : t -> Wire.Boundary.t
val native_boundary : t -> Wire.Boundary.t
val snapshot : t -> snapshot
val reset : t -> unit

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: the activity between two snapshots of the
    same accumulator — how a multi-job engine attributes metrics to
    one job without resetting shared state. Counters subtract; the
    substitution list keeps the entries performed after [earlier]. *)

(** One declared metric: the single source the pretty-printer, JSON
    export and registry export are all derived from, so the renderings
    cannot drift apart. *)
type field = {
  fd_name : string;
  fd_labels : (string * string) list;  (** e.g. [("boundary", "pcie")] *)
  fd_help : string;
  fd_count : bool;  (** integral count vs modeled-nanosecond total *)
  fd_get : snapshot -> float;
}

val fields : field list
(** Every scalar metric in presentation order (the substitution list is
    carried separately — it is an ordered list, not a scalar). *)

val pp : Format.formatter -> snapshot -> unit
(** Multi-line [name{labels}: value] rendering derived from {!fields},
    followed by the substitution list. *)

val to_json : snapshot -> string
(** [{"metrics": <registry JSON>, "substitutions": [{uid, device}...]}]
    — the snapshot loaded into a {!Support.Registry}: one counter per
    {!fields} entry plus a labeled [substitutions] counter. *)

val to_text : snapshot -> string
(** OpenMetrics-style text exposition of the same registry (scrapeable
    by a future [lmc serve]). *)

val cpu_ns_per_instruction : float
(** ~6ns: a ~2GHz core spending a dozen cycles per interpreted
    bytecode instruction — the paper's JVM execution regime. *)

val native_ns_per_instruction : float
(** ~0.75ns: the same operation compiled to native code. *)

val modeled_cpu_ns : t -> float
val modeled_accelerator_ns : t -> float
(** Device kernels + native execution + all boundary transfers. *)
