(** The profile-guided placement planner (see [docs/PLACEMENT.md]).

    For every task graph in a compiled program, enumerate placement
    candidates — the static substitution policies plus the calibrated
    argmin [Runtime.Substitute.plan] computes under [Adaptive] over the
    cost profiles — and predict each candidate's makespan by weighting
    the graph's SDF repetition vector ([Analysis.Rates]) with the
    per-segment profiles. The planner's choice is the calibrated
    candidate; the report records every alternative and a
    human-readable rationale. *)

module Ir = Lime_ir.Ir

type seg_cost = {
  sg_desc : string;  (** e.g. ["gpu:F1+F2"] or ["bytecode:F1"] *)
  sg_device : string;
  sg_source : Profile.source;
  sg_firing_ns : float;  (** cost of one firing of the actor *)
  sg_burst : int;  (** elements moved per firing *)
  sg_total_ns : float;  (** predicted cost over the whole stream *)
}

type candidate = {
  cd_name : string;
  cd_plan : Runtime.Substitute.segment list;
  cd_plan_text : string;
  cd_makespan_ns : float;
  cd_segments : seg_cost list;
}

type graph_plan = {
  gp_uid : string;
  gp_kind : string;  (** ["graph"], ["map site"] or ["reduce site"] *)
  gp_filters : int;
  gp_planned : candidate;  (** the calibrated argmin — the planner's choice *)
  gp_default : candidate;  (** the static [Prefer_accelerators] baseline *)
  gp_candidates : candidate list;  (** all, sorted by predicted makespan *)
  gp_speedup : float;
      (** predicted speedup of the planned candidate over all-bytecode *)
  gp_rationale : string;
}

type report = {
  rp_n : int;
  rp_graphs : graph_plan list;
  rp_store_path : string;
  rp_store_size : int;
  rp_hits : int;
  rp_calibrated : int;
}

val cost_fn : Calibrate.ctx -> Runtime.Exec.cost_model
(** The calibrated cost model for [Exec.create ?cost_model] /
    [Exec.set_cost_model]: the engine's Adaptive policy and online
    re-planner then agree with the plan the report printed. *)

val plan : Calibrate.ctx -> n:int -> report
(** Plan every task graph and every lowered map/reduce kernel site
    ([Lime_ir.Lower_mapreduce]) of the context's program for stream
    length [n]. Does not persist the profile store — callers owning the
    store decide when to {!Profile.save}. *)

val run : ?profile_path:string -> n:int -> Liquid_metal.Compiler.compiled -> report
(** Load the profile store (default [lm.profiles]), plan, and persist
    the store back — the [lmc plan] entry point. *)

val render : report -> string
val render_json : report -> string

(** {2 Multi-stream-length crossover (paper section 7)}

    Which device wins depends on the stream length: launch overhead
    and boundary latency amortize as [n] grows. The crossover sweep
    plans one program at many lengths through a single calibration
    context (profiles are measured once; the sweep itself is pure
    prediction) and reports, per graph, the winning candidate at each
    length and where the winner flips — the decisions a length-aware
    scheduler ([lib/serve]) makes, made inspectable. *)

type crossover_row = {
  xr_n : int;
  xr_best : candidate;
  xr_makespans : (string * float) list;  (** candidate name -> ns *)
}

type crossover = {
  xo_uid : string;
  xo_kind : string;
  xo_rows : crossover_row list;  (** ascending n *)
}

val sweep_lengths : ?lo:int -> ?hi:int -> unit -> int list
(** Powers of two from [lo] (default 64) through [hi] (default
    65536). *)

val crossover : Calibrate.ctx -> ns:int list -> crossover list
(** One crossover table per task graph / kernel site, swept over
    [ns]. *)

val render_crossover : crossover list -> string
(** Text table per graph with the flip points called out. *)

val render_crossover_json : crossover list -> string
