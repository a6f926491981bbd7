(* Task-graph scheduling gate.

   For each pinned (workload, policy) entry this runs the task-graph
   workload once, checks its output against [Lime_ir.Interp] over the
   unoptimized IR (the oracle of the lowering gate), and records
   scheduler steps, blocked steps, rounds and wall time in
   BENCH_sched.json (path overridable as argv 1).

   Exits nonzero if any entry's output diverges or any run takes a
   blocked step: the budgets solved from a graph's repetition vector
   drain it without a single blocked probe. `make check` uses this as
   the scheduling regression gate. *)

module Compiler = Liquid_metal.Compiler
module Exec = Runtime.Exec
module Substitute = Runtime.Substitute
module Metrics = Runtime.Metrics

(* Task-graph workloads only: map/reduce-style workloads never invoke
   the scheduler and would contribute empty rows. *)
let entries =
  [
    "bitflip", 256, "bytecode", Substitute.Bytecode_only;
    "bitflip", 256, "accel", Substitute.Prefer_accelerators;
    "dsp_chain", 512, "bytecode", Substitute.Bytecode_only;
    "dsp_chain", 512, "accel", Substitute.Prefer_accelerators;
    "fir4", 512, "bytecode", Substitute.Bytecode_only;
    "fir4", 512, "accel", Substitute.Prefer_accelerators;
    "crc8", 256, "bytecode", Substitute.Bytecode_only;
    "crc8", 256, "accel", Substitute.Prefer_accelerators;
  ]

let run_once (w : Workloads.t) ~size ~policy =
  let c = Compiler.compile w.Workloads.source in
  let engine = Compiler.engine ~policy c in
  let t0 = Unix.gettimeofday () in
  let result = Exec.call engine w.Workloads.entry (w.Workloads.args ~size) in
  let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  result, Metrics.snapshot (Exec.metrics engine), wall_ms

let () =
  let out_path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_sched.json" in
  let rows = ref [] in
  let failures = ref 0 in
  Printf.printf "%-10s %-9s %6s  %8s %8s %7s\n" "workload" "policy" "size"
    "steps" "blocked" "rounds";
  List.iter
    (fun (name, size, pname, policy) ->
      let w = Workloads.find name in
      let got, m, wall_ms = run_once w ~size ~policy in
      if not (Oracle.agrees (Oracle.expected w ~size) got) then begin
        Printf.eprintf "FAIL %s/%s: output diverged from the interpreter\n"
          name pname;
        incr failures
      end;
      if m.Metrics.sched_blocked_steps > 0 then begin
        Printf.eprintf "FAIL %s/%s: %d blocked step(s)\n" name pname
          m.Metrics.sched_blocked_steps;
        incr failures
      end;
      Printf.printf "%-10s %-9s %6d  %8d %8d %7d\n" name pname size
        m.Metrics.sched_steps m.Metrics.sched_blocked_steps
        m.Metrics.sched_rounds;
      rows :=
        Printf.sprintf
          "{\"workload\":%S,\"policy\":%S,\"size\":%d,\"steps\":%d,\"blocked_steps\":%d,\"rounds\":%d,\"wall_ms\":%.1f}"
          name pname size m.Metrics.sched_steps
          m.Metrics.sched_blocked_steps m.Metrics.sched_rounds wall_ms
        :: !rows)
    entries;
  let oc = open_out out_path in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" (List.rev !rows));
  output_string oc "\n]\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" out_path;
  if !failures > 0 then begin
    Printf.eprintf "%d scheduling regression(s)\n" !failures;
    exit 1
  end
