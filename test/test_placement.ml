(* The profile-guided placement planner.

   Four layers: a differential harness proving the calibrated Adaptive
   placement is bitwise-identical to pure bytecode on every workload;
   a QCheck property that no plan ever selects a quarantined device
   (the store filters them, the planner must respect it); profile
   store round-trip and warm-hit checks (hex floats make warm
   predictions bit-identical to the cold calibration); and runtime
   checks of the steady-schedule session cache and the online
   re-planner trigger. *)

module Compiler = Liquid_metal.Compiler
module Exec = Runtime.Exec
module Substitute = Runtime.Substitute
module Metrics = Runtime.Metrics
module Artifact = Runtime.Artifact
module Store = Runtime.Store
module Profile = Placement.Profile
module Calibrate = Placement.Calibrate
module Planner = Placement.Planner

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fresh_store () =
  Profile.load (Filename.temp_file "lm_test_profiles" ".tmp")

let planned_engine ?policy c =
  let ctx = Calibrate.create ~profile_store:(fresh_store ()) c in
  Compiler.engine
    ~policy:(Option.value policy ~default:Substitute.Adaptive)
    ~cost_model:(Planner.cost_fn ctx) c

(* --- differential: planned vs bytecode -------------------------------- *)

(* The planner may only move work, never change it: under the
   calibrated Adaptive policy every workload must produce bitwise the
   same result as the never-substitute baseline. *)
let test_differential_all_workloads () =
  List.iter
    (fun (w : Workloads.t) ->
      let size = w.Workloads.default_size in
      let c = Compiler.compile w.Workloads.source in
      let baseline =
        Exec.call
          (Compiler.engine ~policy:Substitute.Bytecode_only c)
          w.Workloads.entry (w.Workloads.args ~size)
      in
      let planned =
        Exec.call (planned_engine c) w.Workloads.entry (w.Workloads.args ~size)
      in
      check_bool
        (Printf.sprintf "%s: planned = bytecode" w.Workloads.name)
        true
        (Stdlib.compare baseline planned = 0))
    Workloads.all

(* --- built-in vs calibrated Adaptive ----------------------------------- *)

(* The engine's built-in estimate is the analytic model the calibrator
   falls back to, and a lowered map/reduce worker always calibrates
   analytically. So on every kernel site, Adaptive must plan the same
   with and without the calibrated cost model, at every stream
   length. *)
let test_builtin_plans_kernel_sites_as_calibrated () =
  List.iter
    (fun (w : Workloads.t) ->
      let c = Compiler.compile w.Workloads.source in
      List.iter
        (fun div ->
          let size = max 1 (w.Workloads.default_size / div) in
          let plans engine =
            ignore
              (Exec.call engine w.Workloads.entry (w.Workloads.args ~size));
            ( Exec.last_plan engine,
              List.map
                (fun (uid, d) -> uid, Artifact.device_name d)
                (Metrics.snapshot (Exec.metrics engine)).Metrics.substitutions
            )
          in
          Alcotest.(check (pair (option string) (list (pair string string))))
            (Printf.sprintf "%s@%d" w.Workloads.name size)
            (plans (planned_engine c))
            (plans (Compiler.engine ~policy:Substitute.Adaptive c)))
        [ 16; 4; 1 ])
    (List.filter
       (fun (w : Workloads.t) -> w.Workloads.category = Workloads.Gpu_map)
       Workloads.all)

(* --- property: plans respect quarantine ------------------------------- *)

let devices_of_plan segs =
  List.filter_map
    (function
      | Substitute.S_bytecode _ -> None
      | Substitute.S_device (a, _) -> Some (Artifact.device a))
    segs

let test_plan_never_uses_quarantined () =
  (* dsp_chain has gpu, fpga and native artifacts for its chain, so
     every quarantine subset changes the candidate set. *)
  let w = Workloads.find "dsp_chain" in
  let c = Compiler.compile w.Workloads.source in
  let arb =
    QCheck.triple QCheck.bool QCheck.bool QCheck.bool
  in
  let prop (q_gpu, q_fpga, q_native) =
    Store.clear_quarantine c.Compiler.store;
    let quarantined =
      List.filter_map
        (fun (q, d) -> if q then Some d else None)
        [ q_gpu, Artifact.Gpu; q_fpga, Artifact.Fpga; q_native, Artifact.Native ]
    in
    List.iter
      (fun d -> Store.quarantine c.Compiler.store ~device:d ~reason:"test")
      quarantined;
    let ctx = Calibrate.create ~profile_store:(fresh_store ()) c in
    let report = Planner.plan ctx ~n:64 in
    Store.clear_quarantine c.Compiler.store;
    List.for_all
      (fun (gp : Planner.graph_plan) ->
        List.for_all
          (fun d -> not (List.mem d quarantined))
          (devices_of_plan gp.Planner.gp_planned.Planner.cd_plan))
      report.Planner.rp_graphs
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:50 ~name:"plan avoids quarantined devices" arb
       prop)

(* --- profile store ----------------------------------------------------- *)

let test_profile_roundtrip () =
  let path = Filename.temp_file "lm_test_profiles" ".tmp" in
  Sys.remove path;
  let store = Profile.load path in
  (* Deliberately awkward floats: only an exact (hex) serialization
     round-trips them bit-for-bit. *)
  let e =
    {
      Profile.pr_key = Profile.key ~device:"gpu" ~chain:"F1+F2" ~content:"k" ~params:"p";
      pr_device = "gpu";
      pr_per_elem_ns = 1.0 /. 3.0;
      pr_overhead_ns = 10240.7;
      pr_bytes_per_elem = 4.0;
      pr_source = Profile.Measured;
      pr_label = "F1+F2";
    }
  in
  Profile.add store e;
  Profile.save store;
  let reloaded = Profile.load path in
  check_int "one entry" 1 (Profile.size reloaded);
  (match Profile.find reloaded e.Profile.pr_key with
  | None -> Alcotest.fail "entry lost on reload"
  | Some e' ->
    check_string "device" "gpu" e'.Profile.pr_device;
    check_string "label" "F1+F2" e'.Profile.pr_label;
    check_bool "source" true (e'.Profile.pr_source = Profile.Measured);
    check_bool "per_elem bit-identical" true
      (Int64.bits_of_float e'.Profile.pr_per_elem_ns
      = Int64.bits_of_float e.Profile.pr_per_elem_ns);
    check_bool "overhead bit-identical" true
      (Int64.bits_of_float e'.Profile.pr_overhead_ns
      = Int64.bits_of_float e.Profile.pr_overhead_ns);
    check_bool "same prediction" true
      (Profile.predict e ~n:512 = Profile.predict e' ~n:512));
  Sys.remove path

let test_warm_run_hits_store () =
  let w = Workloads.find "dsp_chain" in
  let c = Compiler.compile w.Workloads.source in
  let path = Filename.temp_file "lm_test_profiles" ".tmp" in
  Sys.remove path;
  let cold = Planner.run ~profile_path:path ~n:512 c in
  check_int "cold run: no hits" 0 cold.Planner.rp_hits;
  check_bool "cold run calibrates" true (cold.Planner.rp_calibrated > 0);
  let warm = Planner.run ~profile_path:path ~n:512 c in
  check_bool "warm run hits" true (warm.Planner.rp_hits > 0);
  check_int "warm run: no recalibration" 0 warm.Planner.rp_calibrated;
  (* hex-float persistence: warm predictions are bit-identical *)
  List.iter2
    (fun (g1 : Planner.graph_plan) (g2 : Planner.graph_plan) ->
      check_bool
        (Printf.sprintf "%s: same makespan" g1.Planner.gp_uid)
        true
        (g1.Planner.gp_planned.Planner.cd_makespan_ns
        = g2.Planner.gp_planned.Planner.cd_makespan_ns);
      check_string "same plan" g1.Planner.gp_planned.Planner.cd_plan_text
        g2.Planner.gp_planned.Planner.cd_plan_text)
    cold.Planner.rp_graphs warm.Planner.rp_graphs;
  Sys.remove path

(* --- steady-schedule session cache ------------------------------------- *)

let test_steady_schedule_cached () =
  let w = Workloads.find "dsp_chain" in
  let c = Compiler.compile w.Workloads.source in
  let engine = Compiler.engine c in
  let size = 256 in
  let r1 = Exec.call engine w.Workloads.entry (w.Workloads.args ~size) in
  let m1 = Metrics.snapshot (Exec.metrics engine) in
  check_int "first run solves, no cache hit" 0 m1.Metrics.sched_cache_hits;
  let r2 = Exec.call engine w.Workloads.entry (w.Workloads.args ~size) in
  let m2 = Metrics.snapshot (Exec.metrics engine) in
  check_bool "second run served from cache" true
    (m2.Metrics.sched_cache_hits > 0);
  check_bool "cached schedule same result" true (Stdlib.compare r1 r2 = 0)

(* --- online re-planning ------------------------------------------------- *)

let test_replan_triggers_on_underperforming_model () =
  let w = Workloads.find "dsp_chain" in
  let c = Compiler.compile w.Workloads.source in
  (* A delusional model that predicts near-zero cost for every device
     launch: the first real launch exceeds factor * prediction, the
     artifact is demoted and the segment re-planned mid-run. *)
  let delusional ~n:_ artifact _chain =
    match artifact with None -> 1.0 | Some _ -> 0.001
  in
  let engine =
    Compiler.engine ~policy:Substitute.Prefer_accelerators
      ~cost_model:delusional ~replan_factor:1.5 c
  in
  let size = 512 in
  let planned = Exec.call engine w.Workloads.entry (w.Workloads.args ~size) in
  let m = Metrics.snapshot (Exec.metrics engine) in
  check_bool "replan counted" true (m.Metrics.replans > 0);
  check_bool "demotion recorded" true (Exec.observed_costs engine <> []);
  let baseline =
    Exec.call
      (Compiler.engine ~policy:Substitute.Bytecode_only c)
      w.Workloads.entry (w.Workloads.args ~size)
  in
  check_bool "re-planned run still correct" true
    (Stdlib.compare baseline planned = 0)

let test_no_replan_without_factor () =
  let w = Workloads.find "dsp_chain" in
  let c = Compiler.compile w.Workloads.source in
  let engine = Compiler.engine c in
  ignore (Exec.call engine w.Workloads.entry (w.Workloads.args ~size:512));
  let m = Metrics.snapshot (Exec.metrics engine) in
  check_int "re-planning disarmed by default" 0 m.Metrics.replans

(* --- planner report shape ----------------------------------------------- *)

let test_plan_dsp_chain_beats_default () =
  (* The acceptance example: dsp_chain's accelerator-first default is
     dominated by the PCIe boundary, and the calibrated planner must
     notice and pick a strictly faster placement. *)
  let w = Workloads.find "dsp_chain" in
  let c = Compiler.compile w.Workloads.source in
  let ctx = Calibrate.create ~profile_store:(fresh_store ()) c in
  let report = Planner.plan ctx ~n:512 in
  check_bool "one task graph" true (List.length report.Planner.rp_graphs = 1);
  let gp = List.hd report.Planner.rp_graphs in
  let planned = gp.Planner.gp_planned and default = gp.Planner.gp_default in
  check_bool "planner beats accelerator-first default" true
    (planned.Planner.cd_makespan_ns < default.Planner.cd_makespan_ns);
  check_bool "candidates sorted by makespan" true
    (let ms =
       List.map (fun cd -> cd.Planner.cd_makespan_ns) gp.Planner.gp_candidates
     in
     List.sort compare ms = ms);
  check_bool "rationale names the decision" true
    (String.length gp.Planner.gp_rationale > 0)

(* --- multi-length crossover sweep -------------------------------- *)

let test_crossover_sweep () =
  (* dsp_chain is the canonical length-sensitive program: the winner
     at 64 elements (boundary-dominated) need not be the winner at
     64k (bandwidth-dominated). The sweep must be internally
     consistent regardless of where the flips land. *)
  let w = Workloads.find "dsp_chain" in
  let c = Compiler.compile w.Workloads.source in
  let ctx = Calibrate.create ~profile_store:(fresh_store ()) c in
  let ns = Planner.sweep_lengths ~lo:64 ~hi:4096 () in
  check_bool "powers of two, ascending" true
    (ns = [ 64; 128; 256; 512; 1024; 2048; 4096 ]);
  let tables = Planner.crossover ctx ~ns in
  check_bool "at least one swept graph" true (tables <> []);
  List.iter
    (fun xo ->
      let rows = xo.Planner.xo_rows in
      check_int "one row per length" (List.length ns) (List.length rows);
      check_bool "rows ascend in n" true
        (let lens = List.map (fun r -> r.Planner.xr_n) rows in
         List.sort compare lens = lens);
      List.iter
        (fun r ->
          (* the recorded winner really is the argmin of its row *)
          let best_ns =
            List.fold_left
              (fun acc (_, m) -> Float.min acc m)
              infinity r.Planner.xr_makespans
          in
          check_bool
            (Printf.sprintf "%s n=%d: winner is the row minimum"
               xo.Planner.xo_uid r.Planner.xr_n)
            true
            (r.Planner.xr_best.Planner.cd_makespan_ns <= best_ns +. 1e-6))
        rows)
    tables;
  check_bool "render mentions a winner column" true
    (Test_types.contains (Planner.render_crossover tables) "best")

let suite =
  ( "placement",
    [
      Alcotest.test_case "differential: planned = bytecode (all workloads)"
        `Slow test_differential_all_workloads;
      Alcotest.test_case "built-in Adaptive plans kernel sites as calibrated"
        `Quick test_builtin_plans_kernel_sites_as_calibrated;
      Alcotest.test_case "property: plan avoids quarantined devices" `Quick
        test_plan_never_uses_quarantined;
      Alcotest.test_case "profile store round-trips hex floats" `Quick
        test_profile_roundtrip;
      Alcotest.test_case "warm run hits the store, no recalibration" `Quick
        test_warm_run_hits_store;
      Alcotest.test_case "steady schedule served from session cache" `Quick
        test_steady_schedule_cached;
      Alcotest.test_case "online re-plan triggers on model miss" `Quick
        test_replan_triggers_on_underperforming_model;
      Alcotest.test_case "no re-planning unless armed" `Quick
        test_no_replan_without_factor;
      Alcotest.test_case "dsp_chain: planner beats accelerator-first" `Quick
        test_plan_dsp_chain_beats_default;
      Alcotest.test_case "crossover sweep is consistent at every length" `Quick
        test_crossover_sweep;
    ] )
