(* The rate algebra and steady-state scheduler.

   Three layers: unit tests of the balance-equation solver
   ([Analysis.Rates.solve]) over hand-built graphs covering every
   verdict; scheduler-level checks of the [Done] accounting fix, the
   budgeted steady sweep and the trace's step accounting; and engine
   runs proving that the budgets the engine solves match the
   interpreter and drain every workload without a blocked step, with
   and without faults. *)

module Rates = Analysis.Rates
module Iv = Analysis.Interval
module Actor = Runtime.Actor
module Scheduler = Runtime.Scheduler
module Compiler = Liquid_metal.Compiler
module Exec = Runtime.Exec
module Substitute = Runtime.Substitute
module Metrics = Runtime.Metrics
module V = Wire.Value
module Trace = Support.Trace

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let const n = Iv.of_int n

let edge ?(init = 0) src dst push pop =
  {
    Rates.e_src = src;
    e_dst = dst;
    e_push = const push;
    e_pop = const pop;
    e_init = init;
  }

let reps_of = function
  | Ok (s : Rates.schedule) -> s.Rates.s_reps
  | Error why -> Alcotest.failf "unsolvable: %s" (Rates.describe_unsolvable why)

(* --- solver ----------------------------------------------------------- *)

let test_solve_chain () =
  (* source pushes 4 per firing, everything downstream is 1:1 — the
     shape [Exec] builds for a rate-4 task graph. *)
  let g =
    {
      Rates.g_actors = [ "src"; "f"; "snk" ];
      g_edges = [ edge "src" "f" 4 1; edge "f" "snk" 1 1 ];
    }
  in
  check_bool "reps src=1 f=4 snk=4" true
    (reps_of (Rates.solve g) = [ "src", 1; "f", 4; "snk", 4 ])

let test_solve_multirate () =
  (* push 2 / pop 3 then 1:1 — classic SDF fractions. *)
  let g =
    {
      Rates.g_actors = [ "a"; "b"; "c" ];
      g_edges = [ edge "a" "b" 2 3; edge "b" "c" 1 1 ];
    }
  in
  match Rates.solve g with
  | Ok s ->
    check_bool "reps a=3 b=2 c=2" true
      (s.Rates.s_reps = [ "a", 3; "b", 2; "c", 2 ]);
    (* peak occupancy on a->b is the full 3*2 = 6 tokens *)
    let burst_ab =
      List.assoc "b"
        (List.map
           (fun ((e : Rates.edge), b) -> e.Rates.e_dst, b)
           s.Rates.s_bursts)
    in
    check_int "burst a->b" 6 burst_ab
  | Error why -> Alcotest.failf "unsolvable: %s" (Rates.describe_unsolvable why)

let test_solve_mismatch_diamond () =
  (* Two paths from a to d demanding different repetition ratios:
     balance equations have no solution. *)
  let g =
    {
      Rates.g_actors = [ "a"; "b"; "c"; "d" ];
      g_edges =
        [
          edge "a" "b" 1 1; edge "a" "c" 1 1; edge "b" "d" 1 1;
          edge "c" "d" 2 1;
        ];
    }
  in
  match Rates.solve g with
  | Error (Rates.Mismatch _) -> ()
  | Error why ->
    Alcotest.failf "wrong verdict: %s" (Rates.describe_unsolvable why)
  | Ok _ -> Alcotest.fail "diamond with conflicting rates solved"

let test_solve_tokenfree_cycle () =
  (* a <-> b with no initial tokens: the equations balance (reps 1,1)
     but neither actor can ever fire first. *)
  let g =
    {
      Rates.g_actors = [ "a"; "b" ];
      g_edges = [ edge "a" "b" 1 1; edge "b" "a" 1 1 ];
    }
  in
  (match Rates.solve g with
  | Error (Rates.Deadlocked _) -> ()
  | Error why ->
    Alcotest.failf "wrong verdict: %s" (Rates.describe_unsolvable why)
  | Ok _ -> Alcotest.fail "token-free cycle scheduled");
  (* one initial token breaks the tie and the cycle schedules *)
  let primed =
    { g with Rates.g_edges = [ edge "a" "b" 1 1; edge ~init:1 "b" "a" 1 1 ] }
  in
  check_bool "primed cycle solves" true
    (reps_of (Rates.solve primed) = [ "a", 1; "b", 1 ])

let test_solve_starved () =
  let g =
    {
      Rates.g_actors = [ "src"; "snk" ];
      g_edges = [ edge "src" "snk" 0 1 ];
    }
  in
  match Rates.solve g with
  | Error (Rates.Starved _) -> ()
  | Error why ->
    Alcotest.failf "wrong verdict: %s" (Rates.describe_unsolvable why)
  | Ok _ -> Alcotest.fail "zero-rate edge solved"

let test_solve_dynamic () =
  let g =
    {
      Rates.g_actors = [ "src"; "snk" ];
      g_edges =
        [
          {
            Rates.e_src = "src";
            e_dst = "snk";
            e_push = Iv.of_bounds 1 4;
            e_pop = const 1;
            e_init = 0;
          };
        ];
    }
  in
  match Rates.solve g with
  | Error (Rates.Dynamic _) -> ()
  | Error why ->
    Alcotest.failf "wrong verdict: %s" (Rates.describe_unsolvable why)
  | Ok _ -> Alcotest.fail "interval rate solved"

let test_min_edge_capacity () =
  check_int "burst lower bound" 7 (Rates.min_edge_capacity (edge "a" "b" 7 2));
  check_int "pop side dominates" 5 (Rates.min_edge_capacity (edge "a" "b" 1 5));
  check_int "unknown rates floor at 1" 1
    (Rates.min_edge_capacity
       {
         Rates.e_src = "a";
         e_dst = "b";
         e_push = Iv.top;
         e_pop = Iv.top;
         e_init = 0;
       })

(* --- scheduler accounting --------------------------------------------- *)

(* An actor that is Done on its very first step used to be charged one
   scheduling step (and one trace event). The final Done return is
   bookkeeping, not work. *)
let test_done_is_not_a_step () =
  let a = Actor.make ~name:"noop" (fun () -> Actor.Done) in
  let stats = Scheduler.run [ a, 1 ] in
  check_int "steps" 0 stats.Scheduler.steps;
  check_int "blocked" 0 stats.Scheduler.blocked_steps;
  check_int "rounds" 1 stats.Scheduler.rounds

let test_deadlock_message_has_stats () =
  let a = Actor.make ~name:"stuck" (fun () -> Actor.Blocked) in
  match Scheduler.run [ a, 1 ] with
  | exception Scheduler.Deadlock (msg, stats) ->
    check_bool "message embeds rounds" true
      (Test_types.contains msg "round(s)");
    check_bool "message names actor" true (Test_types.contains msg "stuck");
    check_int "blocked" 1 stats.Scheduler.blocked_steps
  | _ -> Alcotest.fail "expected Deadlock"

let test_steady_sweep_runs_pipeline () =
  (* A 3-stage pipeline with capacity >= n and per-actor budgets drains
     in one sweep with zero blocked steps. *)
  let n = 32 in
  let a = Actor.Channel.create ~capacity:n in
  let b = Actor.Channel.create ~capacity:n in
  let out = Array.make n 0 in
  let dest = V.Int_array out in
  let elements = List.init n (fun i -> V.Int i) in
  let actors =
    [
      Actor.source ~name:"src" ~rate:1 elements a;
      Actor.filter ~name:"dbl"
        ~f:(function V.Int x -> V.Int (2 * x) | v -> v)
        a b;
      Actor.sink ~name:"snk" dest b;
    ]
  in
  let budget = n + 4 in
  let stats =
    Scheduler.run (List.map (fun a -> a, budget) actors)
  in
  check_int "one sweep" 1 stats.Scheduler.rounds;
  check_int "no blocked steps" 0 stats.Scheduler.blocked_steps;
  check_bool "pipeline output" true (out = Array.init n (fun i -> 2 * i))

let test_steady_deadlock_detected () =
  let a = Actor.make ~name:"wedged" (fun () -> Actor.Blocked) in
  match Scheduler.run [ a, 8 ] with
  | exception Scheduler.Deadlock (msg, _) ->
    check_bool "names actor" true (Test_types.contains msg "wedged")
  | _ -> Alcotest.fail "expected Deadlock"

(* The scheduler's trace contract: one [sched] instant per burst that
   counted a step, carrying the burst's progress steps as [fired]. A
   burst ends at its first blocked step, so the fired steps of all
   instants plus the blocked steps are the steps, on an engine run and
   on a budget-1 run that blocks. An actor that is [Done] on its first
   step emits none. *)
let sched_instants f =
  let sink = Trace.ring () in
  Trace.set_sink sink;
  Fun.protect ~finally:(fun () -> Trace.set_sink Trace.null) f;
  List.filter_map
    (function
      | Trace.Instant { cat = "sched"; args; _ } -> Some args | _ -> None)
    (Trace.events sink)

let fired_sum instants =
  List.fold_left
    (fun acc args ->
      match List.assoc_opt "fired" args with
      | Some (Trace.Int k) -> acc + k
      | _ -> Alcotest.fail "sched instant without fired")
    0 instants

let test_sched_instants_account_for_steps () =
  let w = Workloads.find "dsp_chain" in
  let c = Compiler.compile w.Workloads.source in
  let engine = Compiler.engine c in
  let instants =
    sched_instants (fun () ->
        ignore
          (Exec.call engine w.Workloads.entry
             (w.Workloads.args ~size:w.Workloads.default_size)))
  in
  let m = Metrics.snapshot (Exec.metrics engine) in
  check_int "engine: fired plus blocked are the steps" m.Metrics.sched_steps
    (fired_sum instants + m.Metrics.sched_blocked_steps);
  (* sink first, so every budget-1 round finds someone blocked *)
  let n = 8 in
  let a = Actor.Channel.create ~capacity:1 in
  let b = Actor.Channel.create ~capacity:1 in
  let dest = V.Int_array (Array.make n 0) in
  let actors =
    [
      Actor.sink ~name:"snk" dest b;
      Actor.filter ~name:"id" ~f:Fun.id a b;
      Actor.source ~name:"src" ~rate:1 (List.init n (fun i -> V.Int i)) a;
    ]
  in
  let stats = ref None in
  let instants =
    sched_instants (fun () ->
        stats := Some (Scheduler.run (List.map (fun a -> a, 1) actors)))
  in
  let stats = Option.get !stats in
  check_bool "budget 1 blocks" true (stats.Scheduler.blocked_steps > 0);
  check_int "budget 1: fired plus blocked are the steps" stats.Scheduler.steps
    (fired_sum instants + stats.Scheduler.blocked_steps);
  check_int "budget 1: one instant per step" stats.Scheduler.steps
    (List.length instants);
  let noop = Actor.make ~name:"noop" (fun () -> Actor.Done) in
  check_int "done on the first step: no instant" 0
    (List.length (sched_instants (fun () -> ignore (Scheduler.run [ noop, 1 ]))))

(* --- engine boundary --------------------------------------------------- *)

let test_fifo_capacity_validated () =
  let w = Workloads.find "bitflip" in
  let c = Compiler.compile w.Workloads.source in
  match Compiler.engine ~fifo_capacity:0 c with
  | exception Exec.Engine_error msg ->
    check_bool "mentions fifo_capacity" true
      (Test_types.contains msg "fifo_capacity")
  | _ -> Alcotest.fail "fifo_capacity 0 accepted"

(* --- solved budgets on every workload --------------------------------- *)

let test_sizes =
  [
    "saxpy", 256; "dotproduct", 256; "matmul", 8; "conv2d", 8; "nbody", 16;
    "mandelbrot", 12; "bitflip", 64; "dsp_chain", 128; "prefix_sum", 128;
    "blackscholes", 128; "fir4", 128; "crc8", 64;
  ]

let run_with (w : Workloads.t) ~size ~policy =
  let c = Compiler.compile w.Workloads.source in
  let engine = Compiler.engine ~policy c in
  let result = Exec.call engine w.Workloads.entry (w.Workloads.args ~size) in
  result, Metrics.snapshot (Exec.metrics engine)

(* Every workload's graphs — task graphs and lowered kernel sites — run
   on budgets solved from their repetition vectors: the output is the
   interpreter's, and no actor is ever probed with nothing to do. *)
let test_zero_blocked_steps () =
  List.iter
    (fun ((name, size) : string * int) ->
      let w = Workloads.find name in
      let expected = Test_differential.reference w ~size in
      List.iter
        (fun (pname, policy) ->
          let got, m = run_with w ~size ~policy in
          let ctx = Printf.sprintf "%s / %s" name pname in
          Test_differential.check_identical ~ctx expected got;
          check_bool (ctx ^ ": scheduled") true (m.Metrics.sched_runs > 0);
          check_int (ctx ^ ": blocked steps") 0 m.Metrics.sched_blocked_steps)
        [
          "bytecode", Substitute.Bytecode_only;
          "accel", Substitute.Prefer_accelerators;
        ])
    test_sizes

(* A fault re-runs or re-substitutes a device segment inside its
   actor's firing, so a faulted run keeps the budgets, rounds and steps
   of a healthy one and still matches the interpreter. *)
let test_faulted_run_keeps_budgets () =
  let w = Workloads.find "dsp_chain" in
  let size = 64 in
  let policy = Substitute.Prefer_accelerators in
  let _, healthy = run_with w ~size ~policy in
  (match Support.Fault.parse_spec "gpu:*:always" with
  | Ok s -> Support.Fault.install s
  | Error e -> Alcotest.failf "bad spec: %s" e);
  let got, m =
    Fun.protect
      ~finally:(fun () -> Support.Fault.clear ())
      (fun () -> run_with w ~size ~policy)
  in
  check_bool "faults observed" true (m.Metrics.device_faults > 0);
  check_bool "re-substituted" true (m.Metrics.resubstitutions > 0);
  Test_differential.check_identical ~ctx:"faulted dsp_chain"
    (Test_differential.reference w ~size)
    got;
  check_int "same rounds" healthy.Metrics.sched_rounds m.Metrics.sched_rounds;
  check_int "same steps" healthy.Metrics.sched_steps m.Metrics.sched_steps;
  check_int "no blocked steps" 0 m.Metrics.sched_blocked_steps

let suite =
  ( "sched",
    [
      Alcotest.test_case "solve: linear chain" `Quick test_solve_chain;
      Alcotest.test_case "solve: multirate fractions" `Quick
        test_solve_multirate;
      Alcotest.test_case "solve: mismatch diamond" `Quick
        test_solve_mismatch_diamond;
      Alcotest.test_case "solve: token-free cycle" `Quick
        test_solve_tokenfree_cycle;
      Alcotest.test_case "solve: starved edge" `Quick test_solve_starved;
      Alcotest.test_case "solve: dynamic rates" `Quick test_solve_dynamic;
      Alcotest.test_case "min edge capacity" `Quick test_min_edge_capacity;
      Alcotest.test_case "done is not a step" `Quick test_done_is_not_a_step;
      Alcotest.test_case "deadlock message embeds stats" `Quick
        test_deadlock_message_has_stats;
      Alcotest.test_case "steady sweep drains pipeline" `Quick
        test_steady_sweep_runs_pipeline;
      Alcotest.test_case "steady deadlock detected" `Quick
        test_steady_deadlock_detected;
      Alcotest.test_case "sched instants account for every step" `Quick
        test_sched_instants_account_for_steps;
      Alcotest.test_case "fifo capacity validated" `Quick
        test_fifo_capacity_validated;
      Alcotest.test_case "zero blocked steps on every workload" `Quick
        test_zero_blocked_steps;
      Alcotest.test_case "faulted run keeps its budgets" `Quick
        test_faulted_run_keeps_budgets;
    ] )
