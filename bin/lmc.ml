(* lmc: the Liquid Metal command-line compiler and runner.

     lmc compile FILE [--emit DIR]    compile all backends, print manifest
     lmc run FILE ENTRY [ARGS...]     compile and co-execute an entry point
     lmc disasm FILE [FUNCTION]       print bytecode disassembly
     lmc workloads [NAME]             list the benchmark suite / run one
     lmc dump-ir FILE [FUNCTION]      print the intermediate representation
     lmc analyze FILE [--json]        static analysis: purity, ranges, graph lint
     lmc plan TARGET [--n N]          profile-guided placement planning
     lmc report TARGET|--from-trace   trace-driven introspection report
     lmc serve [--jobs FILE]          multi-tenant job scheduling to drain

   Argument syntax for `run`:
     42            int
     3.5           float
     true/false    boolean
     101b          bit array literal
     int:1,2,3     int array
     float:1,2.5   float array *)

module Lm = Liquid_metal.Lm
module Ir = Lime_ir.Ir
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let handle_compile_errors f =
  try f () with
  | Support.Diag.Compile_error d ->
    prerr_endline (Support.Diag.to_string d);
    exit 1
  | Lime_ir.Interp.Runtime_error msg | Bytecode.Vm.Vm_error msg ->
    prerr_endline ("runtime error: " ^ msg);
    exit 1
  | Runtime.Scheduler.Deadlock (msg, _stats) ->
    (* the message already embeds the final round/step/blocked counts *)
    prerr_endline ("deadlock: " ^ msg);
    exit 1
  | Runtime.Exec.Engine_error msg ->
    prerr_endline ("engine error: " ^ msg);
    exit 1

(* --- argument parsing for `run` -------------------------------------- *)

let parse_value (s : string) : Lm.I.v =
  let parse_list conv s =
    List.map conv (String.split_on_char ',' s)
  in
  match String.index_opt s ':' with
  | Some i -> (
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match kind with
    | "int" -> Lm.int_array (Array.of_list (parse_list int_of_string rest))
    | "float" ->
      Lm.float_array (Array.of_list (parse_list float_of_string rest))
    | _ -> failwith ("unknown array kind: " ^ kind))
  | None -> (
    if s = "true" then Lm.bool true
    else if s = "false" then Lm.bool false
    else if
      String.length s > 1
      && s.[String.length s - 1] = 'b'
      && String.for_all
           (fun c -> c = '0' || c = '1')
           (String.sub s 0 (String.length s - 1))
    then Lm.bits (String.sub s 0 (String.length s - 1))
    else
      match int_of_string_opt s with
      | Some i -> Lm.int i
      | None -> (
        match float_of_string_opt s with
        | Some f -> Lm.float f
        | None -> failwith ("cannot parse argument: " ^ s)))

let policy_conv =
  let parse = function
    | "bytecode" -> Ok Runtime.Substitute.Bytecode_only
    | "accel" -> Ok Runtime.Substitute.Prefer_accelerators
    | "gpu" -> Ok (Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Gpu ])
    | "fpga" -> Ok (Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Fpga ])
    | "native" ->
      Ok (Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Native ])
    | "smallest" -> Ok Runtime.Substitute.Smallest_substitution
    | "adaptive" -> Ok Runtime.Substitute.Adaptive
    | s -> Error (`Msg ("unknown policy: " ^ s))
  in
  let print ppf p =
    Format.fprintf ppf "%s"
      (match p with
      | Runtime.Substitute.Bytecode_only -> "bytecode"
      | Runtime.Substitute.Prefer_accelerators -> "accel"
      | Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Gpu ] -> "gpu"
      | Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Fpga ] -> "fpga"
      | Runtime.Substitute.Prefer_devices _ -> "devices"
      | Runtime.Substitute.Smallest_substitution -> "smallest"
      | Runtime.Substitute.Adaptive -> "adaptive")
  in
  Arg.conv (parse, print)

let positive_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "must be at least 1 (got %d)" n))
    | None -> Error (`Msg ("not an integer: " ^ s))
  in
  Arg.conv (parse, Format.pp_print_int)

let fifo_capacity_arg =
  Arg.(
    value
    & opt (some positive_int_conv) None
    & info [ "fifo-capacity" ] ~docv:"N"
        ~doc:"task-graph FIFO capacity, at least 1 (default 16)")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Lime source file")

(* --- fault injection --------------------------------------------------- *)

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject-faults" ] ~docv:"SPEC"
        ~doc:
          "inject deterministic device faults, e.g. $(b,gpu:*:always), \
           $(b,fpga:Dsp*:p=0.25,seed=42), $(b,wire:pcie:at=0/2); the \
           runtime retries with backoff and re-substitutes down to \
           bytecode (see docs/FAULT_TOLERANCE.md)")

let retries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-retries" ] ~docv:"N"
        ~doc:"device-launch retries before re-substitution (default 2)")

let fuse_arg =
  Arg.(
    value
    & opt bool true
    & info [ "fuse" ] ~docv:"BOOL"
        ~doc:
          "collapse maximal fusible filter runs into single cross-filter \
           kernels, so a fused segment crosses the wire boundary once and \
           streams its result home (default $(b,true); $(b,false) compiles \
           and plans per-stage segments only; see docs/FUSION.md)")

let replan_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "replan" ] ~docv:"FACTOR"
        ~doc:
          "arm online re-planning: a device launch whose measured modeled \
           service time exceeds the cost model's prediction by more than \
           $(docv) demotes the device and re-substitutes the segment \
           mid-run (see docs/PLACEMENT.md)")

let setup_faults = function
  | None -> ()
  | Some spec -> (
    match Support.Fault.parse_spec spec with
    | Ok schedule -> Support.Fault.install schedule
    | Error msg ->
      prerr_endline ("bad --inject-faults spec: " ^ msg);
      exit 2)

(* --- tracing / profiling ---------------------------------------------- *)

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:
           "record an execution trace and write Chrome trace_event JSON \
            to $(docv) (open in Perfetto or about:tracing)")

let profile_arg =
  Arg.(value & flag & info [ "profile" ]
         ~doc:
           "print a profile report: span timings with p50/p95/p99, channel \
            occupancy and boundary traffic, plus the metrics snapshot")

(* Install the ring sink before anything compiles so the compiler-phase
   spans land in the trace too. *)
let setup_tracing ~trace ~profile =
  if trace <> None || profile then
    Support.Trace.set_sink (Support.Trace.ring ())

let finish_tracing ~trace ~profile metrics_snapshot =
  let sink = Support.Trace.current () in
  (match trace with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Support.Trace.Chrome.to_json ~process_name:"lmc" sink);
    close_out oc;
    Printf.printf "trace: wrote %s (%d event(s), %d dropped)\n" path
      (Support.Trace.event_count sink)
      (Support.Trace.dropped sink));
  if profile then begin
    print_string (Support.Trace.Profile.report sink);
    Option.iter
      (fun m -> Format.printf "%a@." Runtime.Metrics.pp m)
      metrics_snapshot
  end

(* --- observe report ---------------------------------------------------- *)

let report_flag =
  Arg.(value & flag & info [ "report" ]
         ~doc:
           "after the run, print the trace-driven introspection report: \
            wall-time attribution, per-device utilization, the critical \
            path and predicted-vs-observed drift (same analysis as \
            $(b,lmc report))")

let store_path_arg =
  Arg.(value & opt string "lm.profiles"
       & info [ "profile-store" ] ~docv:"FILE"
           ~doc:
             "persistent cost-profile store; content-hashed entries let a \
              warm run skip recalibration")

let metrics_export_arg =
  Arg.(
    value
    & opt (some (enum [ ("json", `Json); ("text", `Text) ])) None
    & info [ "metrics-export" ] ~docv:"FMT"
        ~doc:
          "print the final metrics snapshot as $(b,json) (registry samples \
           plus the substitution list) or $(b,text) (OpenMetrics \
           exposition)")

let export_metrics fmt (m : Runtime.Metrics.snapshot) =
  match fmt with
  | None -> ()
  | Some `Json -> print_endline (Runtime.Metrics.to_json m)
  | Some `Text -> print_string (Runtime.Metrics.to_text m)

(* The drift-prediction closure for one compiled program: launches
   observed in the trace join against the persistent profile store,
   calibrating on miss, so a warm store answers without re-measuring. *)
let drift_predict ~store_path compiled =
  let store = Placement.Profile.load store_path in
  let ctx = Placement.Calibrate.create ~profile_store:store compiled in
  let predict ~uid ~device ~n =
    Placement.Calibrate.predictor ctx ~uid ~device ~n
  in
  (predict, fun () -> Placement.Profile.save store)

(* Analyze the current ring sink. The sink is nulled first so the drift
   join's own calibration runs cannot pollute the trace under
   analysis. *)
let inline_report ~json ~store_path session =
  let sink = Support.Trace.current () in
  let events = Support.Trace.events sink in
  let dropped = Support.Trace.dropped sink in
  Support.Trace.set_sink Support.Trace.null;
  let predict, save_store = drift_predict ~store_path (Lm.compiled session) in
  let report = Observe.Report.analyze ~predict ~dropped events in
  save_store ();
  if json then print_endline (Observe.Report.render_json report)
  else print_string (Observe.Report.render report)

(* --- compile ---------------------------------------------------------- *)

let emit_artifacts dir (store : Runtime.Store.t)
    (manifest : Runtime.Artifact.manifest) =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sanitize s =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> c
        | _ -> '_')
      s
  in
  List.iter
    (fun (e : Runtime.Artifact.manifest_entry) ->
      match Runtime.Store.find_on store ~uid:e.me_uid ~device:e.me_device with
      | Some (Runtime.Artifact.Gpu_kernel g) ->
        let path = Filename.concat dir (sanitize e.me_uid ^ ".cl") in
        let oc = open_out path in
        output_string oc g.ga_opencl;
        close_out oc;
        Printf.printf "wrote %s\n" path
      | Some (Runtime.Artifact.Fpga_module f) ->
        let path = Filename.concat dir (sanitize e.me_uid ^ ".v") in
        let oc = open_out path in
        output_string oc f.fa_verilog;
        close_out oc;
        Printf.printf "wrote %s\n" path
      | Some (Runtime.Artifact.Native_binary n) ->
        let path = Filename.concat dir (sanitize e.me_uid ^ ".c") in
        let oc = open_out path in
        output_string oc n.na_c;
        close_out oc;
        Printf.printf "wrote %s\n" path
      | None -> ())
    manifest.entries

let compile_cmd =
  let emit =
    Arg.(value & opt (some string) None & info [ "emit" ] ~docv:"DIR"
           ~doc:"write the OpenCL and Verilog artifacts into $(docv)")
  in
  let action file emit =
    handle_compile_errors (fun () ->
        let compiled = Liquid_metal.Compiler.compile ~file (read_file file) in
        let manifest = Liquid_metal.Compiler.manifest compiled in
        Format.printf "%a" Runtime.Artifact.pp_manifest manifest;
        Printf.printf "compiled functions (bytecode): %d\n"
          (Ir.String_map.cardinal compiled.unit_.u_funcs);
        List.iter
          (fun (phase, s) -> Printf.printf "  %-18s %8.2f ms\n" phase (1000.0 *. s))
          compiled.phase_seconds;
        Option.iter
          (fun dir -> emit_artifacts dir compiled.store manifest)
          emit)
  in
  Cmd.v (Cmd.info "compile" ~doc:"compile a Lime file with every backend")
    Term.(const action $ file_arg $ emit)

(* --- run -------------------------------------------------------------- *)

let run_cmd =
  let entry =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"ENTRY"
           ~doc:"entry point, e.g. Bitflip.taskFlip")
  in
  let args =
    Arg.(value & pos_right 1 string [] & info [] ~docv:"ARGS"
           ~doc:"arguments (42, 3.5, true, 101b, int:1,2,3, float:1,2.5)")
  in
  let policy =
    Arg.(value & opt policy_conv Runtime.Substitute.Prefer_accelerators
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:
               "substitution policy: bytecode, accel, gpu, fpga, native, \
                smallest, adaptive")
  in
  let verbose =
    Arg.(value & flag & info [ "metrics" ] ~doc:"print execution metrics")
  in
  let action file entry args policy fifo_capacity verbose faults max_retries
      replan_factor fuse trace profile report metrics_export =
    handle_compile_errors (fun () ->
        setup_tracing ~trace ~profile:(profile || report);
        let session =
          Lm.load ~policy ?fifo_capacity ?max_retries ?replan_factor ~fuse
            (read_file file)
        in
        setup_faults faults;
        let values = List.map parse_value args in
        let result = Lm.run session entry values in
        Printf.printf "%s\n" (Lm.show result);
        (match Lm.last_plan session with
        | Some plan -> Printf.printf "plan: %s\n" plan
        | None -> ());
        let m = Lm.metrics session in
        if verbose then
          Printf.printf
            "metrics: %d VM instructions, %d GPU kernel(s) (%.1f us), %d FPGA \
             run(s) (%.1f us), %d+%d crossings (%d+%d bytes)\n"
            m.vm_instructions m.gpu_kernels
            (m.gpu_kernel_ns /. 1000.0)
            m.fpga_runs (m.fpga_ns /. 1000.0) m.marshal.crossings_to_device
            m.marshal.crossings_to_host m.marshal.bytes_to_device
            m.marshal.bytes_to_host;
        if faults <> None then
          Printf.printf
            "faults: %d fault(s), %d retry(s), %d resubstitution(s)\n"
            m.device_faults m.retries m.resubstitutions;
        if replan_factor <> None then
          Printf.printf "replans: %d online re-plan(s)\n" m.replans;
        export_metrics metrics_export m;
        finish_tracing ~trace ~profile (Some m);
        if report then
          inline_report ~json:false ~store_path:"lm.profiles" session;
        Support.Fault.clear ())
  in
  Cmd.v
    (Cmd.info "run" ~doc:"compile and co-execute an entry point")
    Term.(
      const action $ file_arg $ entry $ args $ policy $ fifo_capacity_arg
      $ verbose $ faults_arg $ retries_arg $ replan_arg $ fuse_arg $ trace_arg
      $ profile_arg $ report_flag $ metrics_export_arg)

(* --- disasm ----------------------------------------------------------- *)

let disasm_cmd =
  let fn =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FUNCTION"
           ~doc:"function key (default: all), e.g. Bitflip.flip")
  in
  let action file fn =
    handle_compile_errors (fun () ->
        let compiled = Liquid_metal.Compiler.compile ~file (read_file file) in
        let funcs = compiled.unit_.u_funcs in
        match fn with
        | Some key -> (
          match Ir.String_map.find_opt key funcs with
          | Some code -> print_string (Bytecode.Compile.disassemble code)
          | None ->
            prerr_endline ("no function named " ^ key);
            exit 1)
        | None ->
          Ir.String_map.iter
            (fun _ code -> print_string (Bytecode.Compile.disassemble code))
            funcs)
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"print bytecode disassembly")
    Term.(const action $ file_arg $ fn)

(* --- workloads --------------------------------------------------------- *)

let workloads_cmd =
  let workload_name =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"workload to run (omit to list the suite)")
  in
  let size =
    Arg.(value & opt (some int) None & info [ "size" ] ~docv:"N"
           ~doc:"problem size (defaults to the workload's own)")
  in
  let policy =
    Arg.(value & opt policy_conv Runtime.Substitute.Prefer_accelerators
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"substitution policy (as for run)")
  in
  let action name size policy fifo_capacity faults max_retries replan_factor
      fuse trace profile report metrics_export =
    match (name : string option) with
    | None ->
      List.iter
        (fun (w : Workloads.t) ->
          Printf.printf "%-14s %s\n" w.name w.description)
        Workloads.all
    | Some name ->
      handle_compile_errors (fun () ->
          let w =
            try Workloads.find name
            with Not_found ->
              prerr_endline ("unknown workload: " ^ name);
              exit 1
          in
          setup_tracing ~trace ~profile:(profile || report);
          let size = Option.value size ~default:w.default_size in
          let session =
            Lm.load ~policy ?fifo_capacity ?max_retries ?replan_factor ~fuse
              w.source
          in
          setup_faults faults;
          let t0 = Unix.gettimeofday () in
          let result = Lm.run session w.entry (w.args ~size) in
          let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
          (match w.validate with
          | Some validate -> (
            match validate ~size result with
            | Ok () -> Printf.printf "result: validated (size %d)\n" size
            | Error msg -> failwith msg)
          | None -> Printf.printf "result: computed (size %d)\n" size);
          (match Lm.last_plan session with
          | Some plan -> Printf.printf "plan: %s\n" plan
          | None -> ());
          let m = Lm.metrics session in
          Printf.printf
            "metrics: %d VM insns, %d native insns, %d gpu kernel(s), %d \
             fpga run(s); wall %.1f ms\n"
            m.vm_instructions m.native_instructions m.gpu_kernels m.fpga_runs
            wall_ms;
          if faults <> None then
            Printf.printf
              "faults: %d fault(s), %d retry(s), %d resubstitution(s)\n"
              m.device_faults m.retries m.resubstitutions;
          if replan_factor <> None then
            Printf.printf "replans: %d online re-plan(s)\n" m.replans;
          export_metrics metrics_export m;
          finish_tracing ~trace ~profile (Some m);
          if report then
            inline_report ~json:false ~store_path:"lm.profiles" session;
          Support.Fault.clear ())
  in
  Cmd.v
    (Cmd.info "workloads" ~doc:"list or run the benchmark workloads")
    Term.(
      const action $ workload_name $ size $ policy $ fifo_capacity_arg
      $ faults_arg $ retries_arg $ replan_arg $ fuse_arg $ trace_arg
      $ profile_arg $ report_flag $ metrics_export_arg)

(* --- plan -------------------------------------------------------------- *)

let plan_cmd =
  let target =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET"
           ~doc:"workload name (see $(b,lmc workloads)) or Lime source file")
  in
  let n =
    Arg.(value & opt (some positive_int_conv) None & info [ "n" ] ~docv:"N"
           ~doc:
             "stream length to plan for (default: the workload's size, or \
              256 for files)")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"print the plan report as a JSON object")
  in
  let sweep =
    Arg.(
      value
      & opt ~vopt:(Some "64..65536") (some string) None
      & info [ "sweep" ] ~docv:"LO..HI"
          ~doc:
            "print the multi-stream-length crossover table instead of a \
             single-length plan: the predicted best placement per stream \
             length over a powers-of-two sweep (default $(b,64..65536)), \
             with the lengths where the winner flips called out")
  in
  let parse_sweep spec =
    let fail () =
      prerr_endline
        ("bad --sweep range: " ^ spec ^ " (expected LO..HI, e.g. 64..65536)");
      exit 2
    in
    match String.index_opt spec '.' with
    | Some i
      when i + 1 < String.length spec && spec.[i + 1] = '.' ->
      let lo = String.sub spec 0 i in
      let hi = String.sub spec (i + 2) (String.length spec - i - 2) in
      (match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi when lo >= 1 && hi >= lo ->
        Placement.Planner.sweep_lengths ~lo ~hi ()
      | _ -> fail ())
    | _ -> fail ()
  in
  let action target n json store_path fuse sweep =
    handle_compile_errors (fun () ->
        let source, default_n =
          match Workloads.find target with
          | w -> (w.Workloads.source, w.Workloads.default_size)
          | exception Not_found ->
            if Sys.file_exists target then (read_file target, 256)
            else begin
              prerr_endline ("unknown workload or file: " ^ target);
              exit 1
            end
        in
        let compiled =
          Liquid_metal.Compiler.compile ~file:target ~fuse source
        in
        match sweep with
        | Some spec ->
          let ns = parse_sweep spec in
          let store = Placement.Profile.load store_path in
          let ctx = Placement.Calibrate.create ~profile_store:store compiled in
          let tables = Placement.Planner.crossover ctx ~ns in
          Placement.Profile.save store;
          if json then
            print_endline (Placement.Planner.render_crossover_json tables)
          else print_string (Placement.Planner.render_crossover tables)
        | None ->
          let n = Option.value n ~default:default_n in
          let report =
            Placement.Planner.run ~profile_path:store_path ~n compiled
          in
          if json then print_endline (Placement.Planner.render_json report)
          else print_string (Placement.Planner.render report))
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "profile-guided placement planning: calibrate device cost models, \
          predict per-candidate makespans and report the argmin placement \
          with a rationale (see docs/PLACEMENT.md); with $(b,--sweep), the \
          stream-length crossover table instead")
    Term.(
      const action $ target $ n $ json $ store_path_arg $ fuse_arg $ sweep)

(* --- report ------------------------------------------------------------ *)

let report_cmd =
  let target =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"TARGET"
           ~doc:
             "workload name (see $(b,lmc workloads)) or Lime source file; \
              optional with $(b,--from-trace) (without it the offline \
              report has no drift predictions)")
  in
  let entry =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"ENTRY"
           ~doc:"entry point when TARGET is a source file")
  in
  let args =
    Arg.(value & pos_right 1 string [] & info [] ~docv:"ARGS"
           ~doc:"entry arguments (as for $(b,lmc run))")
  in
  let size =
    Arg.(value & opt (some int) None & info [ "size" ] ~docv:"N"
           ~doc:"workload problem size (defaults to the workload's own)")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"print the report as a JSON object")
  in
  let from_trace =
    Arg.(value & opt (some file) None & info [ "from-trace" ] ~docv:"FILE"
           ~doc:
             "analyze a saved Chrome trace (as written by $(b,lmc run \
              --trace)) instead of running anything; give TARGET too to \
              join drift predictions from its compiled program")
  in
  let policy =
    Arg.(value & opt policy_conv Runtime.Substitute.Prefer_accelerators
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"substitution policy (as for run)")
  in
  let action target entry args size json from_trace store_path policy
      fifo_capacity faults max_retries replan_factor =
    handle_compile_errors (fun () ->
        match from_trace with
        | Some path -> (
          let predict, save_store, drift_note =
            match target with
            | None ->
              ( None,
                (fun () -> ()),
                Some
                  "no TARGET given — pass the workload or source file \
                   alongside --from-trace to join predictions from its \
                   profile store" )
            | Some tgt ->
              let source =
                match Workloads.find tgt with
                | w -> w.Workloads.source
                | exception Not_found ->
                  if Sys.file_exists tgt then read_file tgt
                  else begin
                    prerr_endline ("unknown workload or file: " ^ tgt);
                    exit 1
                  end
              in
              let compiled =
                Liquid_metal.Compiler.compile ~file:tgt source
              in
              let p, save = drift_predict ~store_path compiled in
              (Some p, save, None)
          in
          match
            Observe.Report.of_chrome_json ?predict ?drift_note
              (read_file path)
          with
          | Ok report ->
            save_store ();
            if json then print_endline (Observe.Report.render_json report)
            else print_string (Observe.Report.render report)
          | Error msg ->
            prerr_endline ("bad trace file " ^ path ^ ": " ^ msg);
            exit 1)
        | None -> (
          match target with
          | None ->
            prerr_endline "report: TARGET or --from-trace required";
            exit 2
          | Some tgt ->
            let source, entry, values =
              match Workloads.find tgt with
              | w ->
                let size = Option.value size ~default:w.Workloads.default_size in
                (w.Workloads.source, w.Workloads.entry, w.Workloads.args ~size)
              | exception Not_found ->
                if not (Sys.file_exists tgt) then begin
                  prerr_endline ("unknown workload or file: " ^ tgt);
                  exit 1
                end;
                (match entry with
                | Some e -> (read_file tgt, e, List.map parse_value args)
                | None ->
                  prerr_endline "report: source files need an ENTRY point";
                  exit 2)
            in
            (* Ring sink first so the compiler phases land in the trace. *)
            Support.Trace.set_sink (Support.Trace.ring ());
            let session =
              Lm.load ~policy ?fifo_capacity ?max_retries ?replan_factor
                source
            in
            setup_faults faults;
            let _result = Lm.run session entry values in
            Support.Fault.clear ();
            inline_report ~json ~store_path session))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "trace-driven introspection: run a workload (or read a saved \
          trace) and report wall-time attribution by bucket, per-device \
          utilization and idle gaps, the critical path with its top \
          gates, and predicted-vs-observed drift per (chain, device) \
          against the placement profile store (see docs/OBSERVABILITY.md)")
    Term.(
      const action $ target $ entry $ args $ size $ json $ from_trace
      $ store_path_arg $ policy $ fifo_capacity_arg $ faults_arg
      $ retries_arg $ replan_arg)

(* --- dump-ir ----------------------------------------------------------- *)

let dump_ir_cmd =
  let fn =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FUNCTION"
           ~doc:"function key (default: whole program incl. task graphs)")
  in
  let action file fn =
    handle_compile_errors (fun () ->
        let prog =
          Lime_ir.Opt.optimize
            (Lime_ir.Lower.lower
               (Lime_types.Typecheck.check
                  (Lime_syntax.Parser.parse ~file (read_file file))))
        in
        match fn with
        | Some key -> (
          match Ir.find_func prog key with
          | Some f -> print_string (Lime_ir.Printer.func_to_string f)
          | None ->
            prerr_endline ("no function named " ^ key);
            exit 1)
        | None -> print_string (Lime_ir.Printer.program_to_string prog))
  in
  Cmd.v
    (Cmd.info "dump-ir" ~doc:"print the optimized IR")
    Term.(const action $ file_arg $ fn)

(* --- analyze ----------------------------------------------------------- *)

let analyze_cmd =
  let target =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET"
           ~doc:"workload name or Lime source file")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"print the diagnostics as a JSON object")
  in
  let fifo_capacity =
    Arg.(value & opt positive_int_conv 16 & info [ "fifo-capacity" ] ~docv:"N"
           ~doc:
             "FIFO capacity assumed by the task-graph lint (matches the \
              runtime's default; per-firing bursts above it warn)")
  in
  let action tgt json fifo_capacity fuse =
    handle_compile_errors (fun () ->
        let source =
          match Workloads.find tgt with
          | w -> w.Workloads.source
          | exception Not_found ->
            if Sys.file_exists tgt then read_file tgt
            else begin
              prerr_endline ("unknown workload or file: " ^ tgt);
              exit 1
            end
        in
        let prog =
          Lime_ir.Opt.optimize
            (Lime_ir.Lower.lower
               (Lime_types.Typecheck.check
                  (Lime_syntax.Parser.parse ~file:tgt source)))
        in
        let report = Analysis.Report.analyze ~fifo_capacity ~fuse prog in
        let diags = report.Analysis.Report.diags in
        if json then print_endline (Analysis.Report.to_json diags)
        else begin
          Analysis.Report.render Format.std_formatter diags;
          print_endline (Analysis.Report.summary_line diags)
        end;
        if Analysis.Report.error_count diags > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "run the static analyses (purity/effects, relational value \
          ranges and array bounds, algebraic combiner properties, \
          fusability, task-graph deadlock lint) on a workload or source \
          file and print diagnostics")
    Term.(const action $ target $ json $ fifo_capacity $ fuse_arg)

(* --- serve ------------------------------------------------------------- *)

let parse_kv_list ~what spec =
  List.filter_map
    (fun part ->
      if part = "" then None
      else
        match String.index_opt part '=' with
        | Some i ->
          Some
            ( String.sub part 0 i,
              String.sub part (i + 1) (String.length part - i - 1) )
        | None ->
          prerr_endline (what ^ ": expected NAME=VALUE, got " ^ part);
          exit 2)
    (String.split_on_char ',' spec)

let serve_cmd =
  let jobs_file =
    Arg.(value & opt (some file) None & info [ "jobs" ] ~docv:"FILE"
           ~doc:
             "scripted job file ($(b,tenant NAME weight=W [quota=Q]) and \
              $(b,job TENANT WORKLOAD [size=N] [at=NS] [count=K] \
              [every=NS]) directives, see docs/SERVE.md); replaces the \
              synthetic load")
  in
  let tenants =
    Arg.(value & opt string "gold=3,silver=2,bronze=1"
         & info [ "tenants" ] ~docv:"SPEC"
             ~doc:"synthetic tenant table as NAME=WEIGHT,...")
  in
  let jobs_per_tenant =
    Arg.(value & opt positive_int_conv 8 & info [ "jobs-per-tenant" ] ~docv:"N"
           ~doc:"synthetic jobs submitted by each tenant")
  in
  let workloads =
    Arg.(value & opt string "saxpy" & info [ "workloads" ] ~docv:"NAMES"
           ~doc:
             "comma-separated workload names each synthetic tenant cycles \
              through (see $(b,lmc workloads))")
  in
  let size =
    Arg.(value & opt positive_int_conv 256 & info [ "size" ] ~docv:"N"
           ~doc:"synthetic workload problem size")
  in
  let interarrival =
    Arg.(value & opt float 50_000.0 & info [ "interarrival" ] ~docv:"NS"
           ~doc:
             "mean open-loop interarrival gap per synthetic tenant, in \
              modeled nanoseconds (jittered deterministically per tenant)")
  in
  let quota =
    Arg.(value & opt (some positive_int_conv) None & info [ "quota" ] ~docv:"N"
           ~doc:
             "per-tenant admission quota for the synthetic load: arrivals \
              beyond $(docv) outstanding jobs are rejected (default \
              unlimited)")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ]
           ~doc:"synthetic arrival-jitter seed")
  in
  let slots =
    Arg.(value & opt (some string) None & info [ "slots" ] ~docv:"SPEC"
           ~doc:
             "concurrent occupancy windows per device as DEV=N,... over \
              gpu/fpga/native/vm (default one each); a device at 0 takes \
              no jobs")
  in
  let quantum =
    Arg.(value & opt float 1_000.0 & info [ "quantum" ] ~docv:"NS"
           ~doc:"WDRR quantum per unit of tenant weight (modeled ns)")
  in
  let batch_window =
    Arg.(value & opt float 10_000.0 & info [ "batch-window" ] ~docv:"NS"
           ~doc:
             "dispatches of the same (workload, size, device) within \
              $(docv) coalesce into one occupancy window")
  in
  let batch_max =
    Arg.(value & opt positive_int_conv 4 & info [ "batch-max" ] ~docv:"N"
           ~doc:"max jobs per coalesced occupancy window")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"print the serve report as a JSON object")
  in
  let action jobs_file tenants jobs_per_tenant workloads size interarrival
      quota seed slots quantum batch_window batch_max json trace report
      faults store_path =
    handle_compile_errors (fun () ->
        setup_tracing ~trace ~profile:report;
        let load =
          match jobs_file with
          | Some path -> (
            try Serve.Job.parse_file path
            with Serve.Job.Parse_error m ->
              prerr_endline ("bad job file " ^ path ^ ": " ^ m);
              exit 2)
          | None ->
            let tenants =
              List.map
                (fun (name, v) ->
                  match int_of_string_opt v with
                  | Some w when w >= 1 -> (name, w)
                  | _ ->
                    prerr_endline
                      ("--tenants: weight must be a positive integer: " ^ v);
                    exit 2)
                (parse_kv_list ~what:"--tenants" tenants)
            in
            let workloads =
              List.filter (fun w -> w <> "")
                (String.split_on_char ',' workloads)
            in
            Serve.Job.synthetic ?quota ~workloads ~size ~jobs_per_tenant
              ~interarrival_ns:interarrival ~seed tenants
        in
        let config =
          {
            Serve.Engine.default_config with
            Serve.Engine.c_quantum_ns = quantum;
            c_batch_window_ns = batch_window;
            c_batch_max = batch_max;
            c_profile_path = store_path;
          }
        in
        let config =
          match slots with
          | None -> config
          | Some spec ->
            let slots =
              List.map
                (fun (name, v) ->
                  match int_of_string_opt v with
                  | Some n when n >= 0 -> (name, n)
                  | _ ->
                    prerr_endline ("--slots: bad count for " ^ name);
                    exit 2)
                (parse_kv_list ~what:"--slots" spec)
            in
            { config with Serve.Engine.c_slots = slots }
        in
        setup_faults faults;
        let result =
          try Serve.Engine.run ~config load
          with Serve.Engine.Serve_error m ->
            prerr_endline ("serve: " ^ m);
            exit 1
        in
        Support.Fault.clear ();
        if json then print_endline (Serve.Engine.render_json result)
        else print_string (Serve.Engine.render result);
        (match trace with
        | None -> ()
        | Some path ->
          let sink = Support.Trace.current () in
          let oc = open_out path in
          output_string oc
            (Support.Trace.Chrome.to_json ~process_name:"lmc serve" sink);
          close_out oc;
          Printf.printf "trace: wrote %s (%d event(s), %d dropped)\n" path
            (Support.Trace.event_count sink)
            (Support.Trace.dropped sink));
        if report then begin
          let sink = Support.Trace.current () in
          let events = Support.Trace.events sink in
          let dropped = Support.Trace.dropped sink in
          Support.Trace.set_sink Support.Trace.null;
          let obs = Observe.Report.analyze ~dropped events in
          if json then print_endline (Observe.Report.render_json obs)
          else print_string (Observe.Report.render obs)
        end)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "multi-tenant job scheduling: admit a scripted or synthetic \
          open-loop load of concurrent jobs over the shared device pool, \
          schedule with per-tenant weighted fairness, quotas, data-aware \
          placement and batching, run to drain, and print per-tenant \
          throughput and latency percentiles (see docs/SERVE.md)")
    Term.(
      const action $ jobs_file $ tenants $ jobs_per_tenant $ workloads $ size
      $ interarrival $ quota $ seed $ slots $ quantum $ batch_window
      $ batch_max $ json $ trace_arg $ report_flag $ faults_arg
      $ store_path_arg)

let () =
  let doc = "the Liquid Metal compiler and runtime (DAC 2012 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "lmc" ~version:"1.0.0" ~doc)
          [
            compile_cmd; run_cmd; disasm_cmd; dump_ir_cmd; workloads_cmd;
            analyze_cmd; plan_cmd; report_cmd; serve_cmd;
          ]))
