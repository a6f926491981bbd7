(** Trace-driven run analysis: critical path, wall-time attribution,
    per-device utilization, and prediction drift.

    The input is the event stream a traced run leaves in the
    {!Support.Trace} ring (or a saved Chrome trace file). The execution
    engine is single-threaded, so the deepest-owner partition of the
    run's root spans is simultaneously the critical path (the chain of
    work gating end-to-end makespan) and the attribution (the same
    slices relabeled by bucket) — which is why attribution sums to wall
    time by construction, an invariant the test suite pins.

    Drift joins observed [launch] spans against the placement profile
    store through a caller-supplied {!predict} closure, keeping this
    library independent of [lib/placement]. *)

type bucket = Compute | Marshal | Sched | Backoff | Other

type attribution = {
  at_compute : float;  (** us: device kernels, VM/native execution *)
  at_marshal : float;  (** us: boundary serialization + modeled transfer *)
  at_sched : float;  (** us: task-graph scheduling loop, actor stepping *)
  at_backoff : float;  (** us: wall time spent in the retry/backoff path *)
  at_other : float;  (** us: spans outside the known taxonomy *)
}

type device_row = {
  dv_name : string;
  dv_busy_us : float;
  dv_compute_us : float;
  dv_marshal_us : float;
  dv_util : float;  (** busy / wall *)
  dv_idle_us : float;
  dv_idle_gaps : int;
  dv_longest_idle_us : float;
}

type segment_row = {
  sg_uid : string;
  sg_device : string;
  sg_launches : int;
  sg_compute_us : float;
  sg_marshal_us : float;
}

type path_step = {
  ps_name : string;
  ps_cat : string;
  ps_count : int;  (** consecutive same-owner slices merged *)
  ps_total_us : float;
}

type gate_row = {
  g_cat : string;
  g_name : string;
  g_count : int;
  g_total_us : float;
}

type drift_row = {
  dr_uid : string;
  dr_device : string;
  dr_launches : int;
  dr_elements : int;
  dr_observed_ns : float;  (** summed modeled ns over completed launches *)
  dr_predicted_ns : float option;  (** summed per-launch predictions *)
  dr_source : string;  (** profile entry source, or ["-"] *)
}

type tenant_row = {
  tn_tenant : string;
  tn_jobs : int;
  tn_wall_us : float;  (** summed [job:] root-span wall time *)
  tn_share : float;  (** of all tenants' job wall time *)
  tn_devices : string;  (** distinct devices used, comma-joined *)
}

type t = {
  rp_wall_us : float;
  rp_roots : int;
  rp_events : int;
  rp_dropped : int;
  rp_attr : attribution;
  rp_backoff_modeled_us : float;
  rp_devices : device_row list;
  rp_segments : segment_row list;
  rp_path : path_step list;
  rp_gates : gate_row list;  (** aggregated path slices, largest first *)
  rp_critical_us : float;  (** equals the root wall time by construction *)
  rp_drift : drift_row list;
  rp_drift_note : string option;
  rp_tenants : tenant_row list;
      (** per-tenant wall attribution from the [job:] spans an
          [lmc serve] run emits; empty for single-job traces *)
}

type predict = uid:string -> device:string -> n:int -> (float * string) option
(** Predicted modeled ns for one launch of [n] elements of chain [uid]
    on [device], plus the profile source name — wired to
    [Placement.Calibrate.predictor] by the CLI. *)

val attribution_total : attribution -> float

val drift_verdict : drift_row -> string
(** ["ok"], ["drift(slow)"], ["drift(fast)"], or ["n/a"]: launches
    whose observed/predicted ratio leaves [[1/1.5, 1.5]] are flagged
    (1.5, matching the online re-planner's demotion factor). *)

val analyze :
  ?predict:predict ->
  ?dropped:int ->
  ?drift_note:string ->
  Support.Trace.event list ->
  t

val of_sink : ?predict:predict -> ?drift_note:string -> Support.Trace.sink -> t

val of_chrome_json :
  ?predict:predict -> ?drift_note:string -> string -> (t, string) result
(** Offline analysis of a saved Chrome [trace_event] file (as written
    by [lmc run --trace]); picks up the exporter's recorded drop count
    for the truncation warning. *)

val render : t -> string
(** Human tables: attribution, devices, segments, critical path, top
    gates, drift — with a truncation warning when events were
    dropped. *)

val render_json : t -> string
(** The same report as one JSON object. *)
