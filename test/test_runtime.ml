module Ir = Lime_ir.Ir
(* Runtime-layer unit tests: channels, the cooperative scheduler, the
   artifact store, and the substitution planner (paper section 4.2). *)

module V = Wire.Value
open Runtime

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let test_channel_fifo_order () =
  let c = Actor.Channel.create ~capacity:4 in
  Actor.Channel.push c (V.Int 1);
  Actor.Channel.push c (V.Int 2);
  (match Actor.Channel.pop_opt c with
  | Some (V.Int 1) -> ()
  | _ -> Alcotest.fail "fifo order");
  Actor.Channel.push c (V.Int 3);
  (match Actor.Channel.pop_opt c, Actor.Channel.pop_opt c with
  | Some (V.Int 2), Some (V.Int 3) -> ()
  | _ -> Alcotest.fail "fifo order 2");
  Alcotest.(check bool) "empty" true (Actor.Channel.pop_opt c = None)

let test_channel_capacity () =
  let c = Actor.Channel.create ~capacity:2 in
  Actor.Channel.push c (V.Int 1);
  Actor.Channel.push c (V.Int 2);
  Alcotest.(check bool) "full" true (Actor.Channel.is_full c);
  Alcotest.check_raises "push full"
    (Invalid_argument "Channel.push: full") (fun () ->
      Actor.Channel.push c (V.Int 3))

let test_pipeline_of_actors () =
  (* source -> double -> sink over a bounded channel of capacity 1:
     forces fine-grained interleaving. *)
  let a = Actor.Channel.create ~capacity:1 in
  let b = Actor.Channel.create ~capacity:1 in
  let dest = V.Int_array (Array.make 5 0) in
  let actors =
    [
      Actor.source ~name:"src" ~rate:1
        (List.map (fun i -> V.Int i) [ 1; 2; 3; 4; 5 ])
        a;
      Actor.filter ~name:"dbl"
        ~f:(function V.Int i -> V.Int (2 * i) | v -> v)
        a b;
      Actor.sink ~name:"snk" dest b;
    ]
  in
  let stats = Scheduler.run (List.map (fun a -> a, 1) actors) in
  (match dest with
  | V.Int_array [| 2; 4; 6; 8; 10 |] -> ()
  | _ -> Alcotest.failf "bad sink contents %s" (V.to_string dest));
  Alcotest.(check bool) "took multiple rounds" true (stats.rounds > 3)

let test_device_segment_batches () =
  let a = Actor.Channel.create ~capacity:2 in
  let b = Actor.Channel.create ~capacity:2 in
  let dest = V.Int_array (Array.make 4 0) in
  let launches = ref 0 in
  let launch xs =
    incr launches;
    List.map (function V.Int i -> V.Int (i + 100) | v -> v) xs
  in
  let actors =
    [
      Actor.source ~name:"src" ~rate:1
        (List.map (fun i -> V.Int i) [ 1; 2; 3; 4 ])
        a;
      Actor.device_segment ~name:"dev" ~launch a b;
      Actor.sink ~name:"snk" dest b;
    ]
  in
  ignore (Scheduler.run (List.map (fun a -> a, 1) actors));
  check_int "single batched launch" 1 !launches;
  match dest with
  | V.Int_array [| 101; 102; 103; 104 |] -> ()
  | _ -> Alcotest.failf "bad contents %s" (V.to_string dest)

let test_device_segment_chunked () =
  let a = Actor.Channel.create ~capacity:4 in
  let b = Actor.Channel.create ~capacity:4 in
  let dest = V.Int_array (Array.make 10 0) in
  let launches = ref [] in
  let launch xs =
    launches := List.length xs :: !launches;
    List.map (function V.Int i -> V.Int (i * 10) | v -> v) xs
  in
  let actors =
    [
      Actor.source ~name:"src" ~rate:1
        (List.init 10 (fun i -> V.Int i))
        a;
      Actor.device_segment ~chunk:4 ~name:"dev" ~launch a b;
      Actor.sink ~name:"snk" dest b;
    ]
  in
  ignore (Scheduler.run (List.map (fun a -> a, 1) actors));
  Alcotest.(check (list int)) "chunk sizes (4,4, then the 2 leftover)"
    [ 4; 4; 2 ] (List.rev !launches);
  match dest with
  | V.Int_array got ->
    Alcotest.(check (array int)) "values in order"
      (Array.init 10 (fun i -> i * 10))
      got
  | _ -> Alcotest.fail "bad sink"

let test_scheduler_deadlock_detection () =
  let never_progresses = Actor.make ~name:"stuck" (fun () -> Actor.Blocked) in
  match Scheduler.run [ never_progresses, 1 ] with
  | exception Scheduler.Deadlock (msg, stats) ->
    Alcotest.(check bool) "names the actor" true
      (Test_types.contains msg "stuck");
    (* the exception carries the scheduler's partial stats *)
    Alcotest.(check int) "one wedged round" 1 stats.Scheduler.rounds;
    Alcotest.(check int) "one step taken" 1 stats.Scheduler.steps;
    Alcotest.(check int) "the step was blocked" 1 stats.Scheduler.blocked_steps
  | _ -> Alcotest.fail "expected deadlock"

(* A wedged graph's report carries each blocked actor's channel state
   (full/empty/occupancy) so the cycle is visible in the message. *)
let test_deadlock_reports_channel_states () =
  let full = Actor.Channel.create ~capacity:1 in
  Actor.Channel.push full (V.Int 1);
  let empty = Actor.Channel.create ~capacity:4 in
  let producer =
    Actor.make ~name:"producer"
      ~ports:[ "out", full ]
      (fun () -> Actor.Blocked)
  in
  let consumer =
    Actor.make ~name:"consumer"
      ~ports:[ "in", empty ]
      (fun () -> Actor.Blocked)
  in
  match Scheduler.run [ producer, 1; consumer, 1 ] with
  | exception Scheduler.Deadlock (msg, _) ->
    let has = Test_types.contains msg in
    Alcotest.(check bool) "producer's full port" true (has "producer[out=full]");
    Alcotest.(check bool) "consumer's empty port" true
      (has "consumer[in=empty]")
  | _ -> Alcotest.fail "expected deadlock"

(* --- metrics presentation --------------------------------------------- *)

let test_metrics_pp_and_json () =
  let m = Metrics.create () in
  Metrics.add_vm_instructions m 12;
  Metrics.add_gpu_kernel m ~ns:5000.0;
  Metrics.add_substitution m "C.f@g/0" Artifact.Gpu;
  let s = Metrics.snapshot m in
  let rendered = Format.asprintf "%a" Metrics.pp s in
  let has = Test_types.contains rendered in
  Alcotest.(check bool) "vm field" true (has "vm_instructions:");
  Alcotest.(check bool) "gpu field" true (has "gpu_kernels:");
  Alcotest.(check bool) "substitution" true (has "C.f@g/0 -> gpu");
  (* pp, text and JSON all derive from Metrics.fields *)
  let text = Metrics.to_text s in
  let hast = Test_types.contains text in
  Alcotest.(check bool) "text vm count" true (hast "vm_instructions 12");
  Alcotest.(check bool) "text gpu ns" true (hast "gpu_kernel_ns 5000");
  let json = Metrics.to_json s in
  let hasj = Test_types.contains json in
  Alcotest.(check bool) "json vm" true (hasj "\"name\":\"vm_instructions\"");
  Alcotest.(check bool) "json substitution" true
    (hasj "{\"uid\":\"C.f@g/0\",\"device\":\"gpu\"}");
  (* no substitutions renders as an empty array, not a dangling comma *)
  let empty = Metrics.to_json (Metrics.snapshot (Metrics.create ())) in
  Alcotest.(check bool) "empty substitutions" true
    (Test_types.contains empty "\"substitutions\":[]")

(* --- substitution planning ------------------------------------------- *)

let dummy_filter ?(relocatable = true) uid =
  {
    Ir.uid;
    target = Ir.F_static ("C." ^ uid);
    relocatable;
    input = Ir.I32;
    output = Ir.I32;
    floc = Support.Srcloc.dummy;
  }

let gpu_artifact_for chain =
  Artifact.Gpu_kernel
    {
      ga_uid = Artifact.chain_uid chain;
      ga_kind = Artifact.G_filter_chain chain;
      ga_opencl = "// test";
    }

let fpga_artifact_for chain =
  let uid = Artifact.chain_uid chain in
  Artifact.Fpga_module
    {
      fa_uid = uid;
      fa_filters = chain;
      fa_verilog = "// test";
      fa_pipeline =
        {
          Rtl.Netlist.pl_name = uid;
          pl_stages = [];
          pl_input_ty = Ir.I32;
          pl_output_ty = Ir.I32;
          pl_fifo_depth = 2;
          pl_pipelined = false;
        };
    }

let test_substitution_prefers_larger () =
  let f1 = dummy_filter "a" and f2 = dummy_filter "b" in
  let store = Store.create () in
  Store.add store (gpu_artifact_for [ f1 ]);
  Store.add store (gpu_artifact_for [ f2 ]);
  Store.add store (gpu_artifact_for [ f1; f2 ]);
  let plan = Substitute.plan Substitute.Prefer_accelerators store [ f1; f2 ] in
  check_string "one fused segment" "gpu(2)" (Substitute.describe_plan plan)

let test_substitution_smallest_policy () =
  let f1 = dummy_filter "a" and f2 = dummy_filter "b" in
  let store = Store.create () in
  Store.add store (gpu_artifact_for [ f1 ]);
  Store.add store (gpu_artifact_for [ f2 ]);
  Store.add store (gpu_artifact_for [ f1; f2 ]);
  let plan = Substitute.plan Substitute.Smallest_substitution store [ f1; f2 ] in
  check_string "two single segments" "gpu(1) | gpu(1)"
    (Substitute.describe_plan plan)

let test_substitution_bytecode_only () =
  let f1 = dummy_filter "a" in
  let store = Store.create () in
  Store.add store (gpu_artifact_for [ f1 ]);
  let plan = Substitute.plan Substitute.Bytecode_only store [ f1 ] in
  check_string "bytecode" "bytecode(1)" (Substitute.describe_plan plan)

let test_substitution_device_preference () =
  let f1 = dummy_filter "a" in
  let store = Store.create () in
  Store.add store (gpu_artifact_for [ f1 ]);
  Store.add store (fpga_artifact_for [ f1 ]);
  let gpu_first =
    Substitute.plan Substitute.Prefer_accelerators store [ f1 ]
  in
  check_string "gpu preferred" "gpu(1)" (Substitute.describe_plan gpu_first);
  let fpga_first =
    Substitute.plan (Substitute.Prefer_devices [ Artifact.Fpga ]) store [ f1 ]
  in
  check_string "manual direction" "fpga(1)"
    (Substitute.describe_plan fpga_first)

let test_substitution_skips_nonrelocatable () =
  let f1 = dummy_filter ~relocatable:false "a" in
  let f2 = dummy_filter "b" in
  let store = Store.create () in
  Store.add store (gpu_artifact_for [ f1 ]);
  Store.add store (gpu_artifact_for [ f2 ]);
  let plan = Substitute.plan Substitute.Prefer_accelerators store [ f1; f2 ] in
  check_string "non-relocatable stays on bytecode" "bytecode(1) | gpu(1)"
    (Substitute.describe_plan plan)

let test_substitution_mixed_run () =
  (* a b c with artifacts for [a] and [b;c]: greedy left-to-right finds
     [a] then [b;c]. *)
  let fa = dummy_filter "a" and fb = dummy_filter "b" and fc = dummy_filter "c" in
  let store = Store.create () in
  Store.add store (gpu_artifact_for [ fa ]);
  Store.add store (gpu_artifact_for [ fb; fc ]);
  let plan = Substitute.plan Substitute.Prefer_accelerators store [ fa; fb; fc ] in
  check_string "a then bc" "gpu(1) | gpu(2)" (Substitute.describe_plan plan)

let test_store_manifest () =
  let f1 = dummy_filter "a" in
  let store = Store.create () in
  Store.add store (gpu_artifact_for [ f1 ]);
  Store.record_exclusion store ~uid:"x" ~device:Artifact.Fpga ~reason:"loops";
  let m = Store.manifest store in
  check_int "entries" 1 (List.length m.entries);
  check_int "exclusions" 1 (List.length m.exclusions);
  check_int "artifact count" 1 (Store.artifact_count store);
  Alcotest.(check bool) "find on gpu" true
    (Store.find_on store ~uid:"a" ~device:Artifact.Gpu <> None);
  Alcotest.(check bool) "absent on fpga" true
    (Store.find_on store ~uid:"a" ~device:Artifact.Fpga = None)

(* Quarantine pulls a whole device out of service: its artifacts
   vanish from lookups, so a re-plan can only pick healthy devices —
   and clearing the quarantine brings them back. *)
let test_store_quarantine () =
  let f1 = dummy_filter "a" in
  let store = Store.create () in
  Store.add store (gpu_artifact_for [ f1 ]);
  Store.add store (fpga_artifact_for [ f1 ]);
  Store.quarantine store ~device:Artifact.Gpu ~reason:"injected fault";
  Alcotest.(check bool) "gpu quarantined" true
    (Store.is_quarantined store ~device:Artifact.Gpu);
  Alcotest.(check bool) "gpu artifact hidden" true
    (Store.find_on store ~uid:"a" ~device:Artifact.Gpu = None);
  Alcotest.(check bool) "fpga still visible" true
    (Store.find_on store ~uid:"a" ~device:Artifact.Fpga <> None);
  let plan = Substitute.plan Substitute.Prefer_accelerators store [ f1 ] in
  check_string "re-plan avoids gpu" "fpga(1)" (Substitute.describe_plan plan);
  Store.quarantine store ~device:Artifact.Fpga ~reason:"injected fault";
  let plan = Substitute.plan Substitute.Prefer_accelerators store [ f1 ] in
  check_string "all quarantined -> bytecode" "bytecode(1)"
    (Substitute.describe_plan plan);
  check_int "quarantine list" 2 (List.length (Store.quarantined store));
  (* quarantining twice does not duplicate the entry *)
  Store.quarantine store ~device:Artifact.Gpu ~reason:"again";
  check_int "no duplicates" 2 (List.length (Store.quarantined store));
  Store.clear_quarantine store;
  Alcotest.(check bool) "back in service" true
    (Store.find_on store ~uid:"a" ~device:Artifact.Gpu <> None)

let test_metrics_fault_counters () =
  let m = Metrics.create () in
  Metrics.add_device_fault m;
  Metrics.add_device_fault m;
  Metrics.add_retry m ~backoff_ns:1000.0;
  Metrics.add_retry m ~backoff_ns:2000.0;
  Metrics.add_resubstitution m;
  let s = Metrics.snapshot m in
  check_int "faults" 2 s.Metrics.device_faults;
  check_int "retries" 2 s.Metrics.retries;
  check_int "resubstitutions" 1 s.Metrics.resubstitutions;
  Alcotest.(check (float 0.01)) "backoff" 3000.0 s.Metrics.backoff_ns;
  let rendered = Format.asprintf "%a" Metrics.pp s in
  Alcotest.(check bool) "pp faults" true
    (Test_types.contains rendered "device_faults:");
  let text = Metrics.to_text s in
  let hast = Test_types.contains text in
  Alcotest.(check bool) "text faults" true (hast "device_faults 2");
  Alcotest.(check bool) "text retries" true (hast "retries 2");
  Alcotest.(check bool) "text resubstitutions" true (hast "resubstitutions 1");
  Alcotest.(check bool) "text backoff" true (hast "backoff_ns 3000");
  Metrics.reset m;
  let s = Metrics.snapshot m in
  check_int "reset faults" 0 s.Metrics.device_faults;
  Alcotest.(check (float 0.01)) "reset backoff" 0.0 s.Metrics.backoff_ns

let suite =
  ( "runtime",
    [
      Alcotest.test_case "channel order" `Quick test_channel_fifo_order;
      Alcotest.test_case "channel capacity" `Quick test_channel_capacity;
      Alcotest.test_case "actor pipeline" `Quick test_pipeline_of_actors;
      Alcotest.test_case "device segment batches" `Quick test_device_segment_batches;
      Alcotest.test_case "device segment chunked" `Quick
        test_device_segment_chunked;
      Alcotest.test_case "deadlock detection" `Quick
        test_scheduler_deadlock_detection;
      Alcotest.test_case "deadlock channel states" `Quick
        test_deadlock_reports_channel_states;
      Alcotest.test_case "metrics pp/json" `Quick test_metrics_pp_and_json;
      Alcotest.test_case "substitution prefers larger" `Quick
        test_substitution_prefers_larger;
      Alcotest.test_case "smallest policy" `Quick test_substitution_smallest_policy;
      Alcotest.test_case "bytecode-only policy" `Quick
        test_substitution_bytecode_only;
      Alcotest.test_case "device preference" `Quick
        test_substitution_device_preference;
      Alcotest.test_case "non-relocatable kept local" `Quick
        test_substitution_skips_nonrelocatable;
      Alcotest.test_case "mixed runs" `Quick test_substitution_mixed_run;
      Alcotest.test_case "store and manifest" `Quick test_store_manifest;
      Alcotest.test_case "store quarantine" `Quick test_store_quarantine;
      Alcotest.test_case "metrics fault counters" `Quick
        test_metrics_fault_counters;
    ] )
