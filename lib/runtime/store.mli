(** The artifact store (paper section 4.2).

    Task UIDs "can be looked up efficiently in the artifact store
    populated by the backends"; the store also accumulates the
    manifest, including per-backend exclusions. *)

type t

val create : unit -> t

val add : t -> Artifact.t -> unit
(** Register an artifact and append it to the manifest. *)

val record_exclusion :
  t -> uid:string -> device:Artifact.device -> reason:string -> unit

val find : t -> uid:string -> Artifact.t list
(** Every implementation of a task UID, sorted by (uid, device name)
    so lookup order never depends on store insertion order — the
    determinism contract {!Substitute.plan} relies on for
    tie-breaking. Artifacts on quarantined devices are omitted. *)

val find_on : t -> uid:string -> device:Artifact.device -> Artifact.t option

val quarantine : t -> device:Artifact.device -> reason:string -> unit
(** Pull a device out of service: its artifacts disappear from
    {!find}/{!find_on}, so {!Substitute.plan} never selects it again.
    The runtime quarantines a device when its retries are exhausted. *)

val is_quarantined : t -> device:Artifact.device -> bool

val quarantined : t -> (Artifact.device * string) list
(** Quarantined devices with reasons, oldest first. *)

val clear_quarantine : t -> unit
(** Return all quarantined devices to service (used by tests that
    reuse a compiled store across fault schedules). *)

val note_resident : t -> device:Artifact.device -> uid:string -> unit
(** Record that segment [uid]'s code and staging buffers were just
    used on [device] — the runtime calls this after every successful
    device launch. Kept as a small per-device LRU: residency is
    scheduling state (a data-aware scheduler prefers a device where a
    job's segments are already staged), never correctness state. *)

val is_resident : t -> device:Artifact.device -> uid:string -> bool

val manifest : t -> Artifact.manifest
val artifact_count : t -> int

val add_fusion : t -> chain:string -> Lime_ir.Ir.filter_info -> unit
(** Register the synthetic fused filter the compiler composed for a
    run, keyed by the plain chain uid (["a+b+c"]). {!Substitute}
    consults this so even an all-bytecode plan executes a fused run as
    one segment. *)

val find_fusion : t -> chain:string -> Lime_ir.Ir.filter_info option

val fusion_count : t -> int
(** Number of fused runs registered by the compiler. *)
