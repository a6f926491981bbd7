(** The public facade: compile Lime source and co-execute it.

    {[
      let session = Lm.load bitflip_source in
      let result =
        Lm.run session "Bitflip.taskFlip" [ Lm.bits "101010101" ]
      in
      print_endline (Lm.show result)
    ]} *)

module I = Lime_ir.Interp

type session

val load :
  ?policy:Runtime.Substitute.policy ->
  ?gpu_device:Gpu.Device.t ->
  ?fifo_capacity:int ->
  ?chunk_elements:int ->
  ?max_retries:int ->
  ?cost_model:Runtime.Exec.cost_model ->
  ?replan_factor:float ->
  ?map_chunks:int ->
  ?reduce_chunks:int ->
  ?fuse:bool ->
  string ->
  session
(** Compile a Lime compilation unit (all backends) and attach a
    co-execution engine. Default policy is the paper's
    [Prefer_accelerators]; [max_retries] configures the failure
    protocol, [cost_model]/[replan_factor] the placement
    cost model and online re-planning, and [map_chunks]/[reduce_chunks]
    the lowered kernel-site execution (see {!Runtime.Exec.create}).
    [fuse] (default [true]) controls cross-filter fusion end to end:
    when [false] no fused artifacts are generated and the engine plans
    per-stage segments only (see docs/FUSION.md). *)

val run : session -> string -> I.v list -> I.v
(** [run session "Class.method" args]. *)

val set_policy : session -> Runtime.Substitute.policy -> unit
val manifest : session -> Runtime.Artifact.manifest
val manifest_text : session -> string
val metrics : session -> Runtime.Metrics.snapshot
val reset_metrics : session -> unit
val last_plan : session -> string option
val engine : session -> Runtime.Exec.t
val compiled : session -> Compiler.compiled
val program : session -> Lime_ir.Ir.program

(** {2 Value construction and inspection} *)

val int : int -> I.v
val float : float -> I.v
val bool : bool -> I.v
val bit : bool -> I.v
val bits : string -> I.v
(** [bits "100"] is the bit literal [100b]. *)

val int_array : int array -> I.v
val float_array : float array -> I.v

val as_int : I.v -> int
val as_float : I.v -> float
val as_int_array : I.v -> int array
val as_float_array : I.v -> float array
val as_bits_literal : I.v -> string
val show : I.v -> string
