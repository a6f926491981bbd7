(* Lowered map/reduce runs checked against the interpreter.

   For every workload this compiles the program once and runs it under
   Prefer_accelerators, with every kernel site executing as a
   scatter/worker/gather task graph. Outputs must be bitwise identical
   to [Lime_ir.Interp] over the unoptimized IR. The lowered modeled
   time is recorded; test/vm.baseline pins it exactly.

   The planner must also have something to say now that sites are
   placeable: the calibrated plan for each Gpu_map workload carries a
   predicted speedup over bytecode, and at least three of them must
   both choose the GPU and predict a strict speedup.

   Results go to BENCH_lower.json (path overridable as argv 1);
   `make check` uses this as the lowering regression gate. *)

module Compiler = Liquid_metal.Compiler
module Exec = Runtime.Exec
module Substitute = Runtime.Substitute
module Metrics = Runtime.Metrics

let run_once (w : Workloads.t) c ~size =
  let engine = Compiler.engine ~policy:Substitute.Prefer_accelerators c in
  let result = Exec.call engine w.Workloads.entry (w.Workloads.args ~size) in
  (result, Exec.modeled_ns engine, Metrics.snapshot (Exec.metrics engine))

let () =
  let out_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_lower.json"
  in
  let rows = ref [] in
  let failures = ref 0 in
  let gpu_winners = ref 0 in
  Printf.printf "%-12s %6s  %14s  %7s  %9s  %s\n" "workload" "size"
    "lowered ns" "chunks" "predicted" "planned";
  List.iter
    (fun (w : Workloads.t) ->
      let size = w.Workloads.default_size in
      let c = Compiler.compile w.Workloads.source in
      let lowered_r, lowered_ns, m = run_once w c ~size in
      if not (Oracle.agrees (Oracle.expected w ~size) lowered_r) then begin
        Printf.eprintf "FAIL %s: lowered output diverged from the interpreter\n"
          w.Workloads.name;
        incr failures
      end;
      (* The algebraic proof must be load-bearing: sumsq's integer
         combiner is proven associative+commutative, so at the default
         4096-element size its reduce site splits into the map
         policy's 4 chunks (on top of the map site's 4) instead of
         staying pinned at K=1 — while the bitwise comparison above
         keeps the tree combine honest. *)
      if w.Workloads.name = "sumsq" && m.Metrics.mr_chunks < 8 then begin
        Printf.eprintf
          "FAIL sumsq: proven-assoc reduce stayed pinned at K=1 \
           (mr_chunks=%d, expected 8 across map+reduce sites)\n"
          m.Metrics.mr_chunks;
        incr failures
      end;
      (* A private, unsaved store: the bench always calibrates from
         scratch so its numbers cannot depend on a stale lm.profiles
         left in the working directory. *)
      let store = Placement.Profile.load "BENCH_lower.profiles" in
      let ctx = Placement.Calibrate.create ~profile_store:store c in
      let report = Placement.Planner.plan ctx ~n:size in
      let site_plans =
        List.filter
          (fun (gp : Placement.Planner.graph_plan) -> gp.gp_kind <> "graph")
          report.Placement.Planner.rp_graphs
      in
      let predicted, planned_text =
        match site_plans with
        | [] -> (1.0, "(no kernel sites)")
        | gps ->
          let best =
            List.fold_left
              (fun acc (gp : Placement.Planner.graph_plan) ->
                if gp.gp_speedup > acc.Placement.Planner.gp_speedup then gp
                else acc)
              (List.hd gps) gps
          in
          ( best.Placement.Planner.gp_speedup,
            best.Placement.Planner.gp_planned.Placement.Planner.cd_plan_text )
      in
      if
        w.Workloads.category = Workloads.Gpu_map
        && predicted > 1.0
        && String.length planned_text >= 3
        && String.sub planned_text 0 3 = "gpu"
      then incr gpu_winners;
      Printf.printf "%-12s %6d  %14.0f  %7d  %8.2fx  %s\n" w.Workloads.name
        size lowered_ns m.Metrics.mr_chunks predicted planned_text;
      rows :=
        Printf.sprintf
          "{\"workload\":%S,\"size\":%d,\"lowered_modeled_ns\":%.1f,\"mr_runs\":%d,\"mr_chunks\":%d,\"predicted_speedup\":%.3f,\"plan\":%S}"
          w.Workloads.name size lowered_ns m.Metrics.mr_runs
          m.Metrics.mr_chunks predicted planned_text
        :: !rows)
    Workloads.all;
  if !gpu_winners < 3 then begin
    Printf.eprintf
      "FAIL: only %d Gpu_map workload(s) plan the GPU with a predicted \
       speedup > 1.0 (need at least 3)\n"
      !gpu_winners;
    incr failures
  end;
  let oc = open_out out_path in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" (List.rev !rows));
  output_string oc "\n]\n";
  close_out oc;
  Printf.printf "\nwrote %s (%d gpu-winning site plan(s))\n" out_path
    !gpu_winners;
  if !failures > 0 then begin
    Printf.eprintf "%d lowering regression(s)\n" !failures;
    exit 1
  end
