module Ir = Lime_ir.Ir

type compiled = {
  unit_ : Bytecode.Compile.unit_;
  store : Runtime.Store.t;
  ir : Ir.program;
  lowered : Lime_ir.Lower_mapreduce.lowered Ir.String_map.t;
  report : Analysis.Report.t;
  phase_seconds : (string * float) list;
}

let timed ?args phases name f =
  Support.Trace.with_span ?args ~cat:"compiler" name (fun () ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      phases := (name, Unix.gettimeofday () -. t0) :: !phases;
      r)

(* A backend phase additionally records how many artifacts it produced
   (span arg [artifacts]), read off the store before and after. *)
let timed_backend phases store name f =
  let before = Runtime.Store.artifact_count store in
  let sp = Support.Trace.begin_span ~cat:"compiler" name in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  phases := (name, Unix.gettimeofday () -. t0) :: !phases;
  Support.Trace.end_span
    ~args:
      [
        ( "artifacts",
          Support.Trace.Int (Runtime.Store.artifact_count store - before) );
      ]
    sp;
  r

(* Contiguous subchains of a run of filters, longest first — the
   runtime's substitution prefers larger, so larger artifacts are the
   interesting ones, but every size exists for the smaller policies. *)
let subchains (run : Ir.filter_info list) =
  let arr = Array.of_list run in
  let n = Array.length arr in
  let out = ref [] in
  for len = 1 to n do
    for start = 0 to n - len do
      out := Array.to_list (Array.sub arr start len) :: !out
    done
  done;
  !out

(* Maximal runs of relocatable filters satisfying [suitable], paired
   with per-filter exclusion reasons for the rest. *)
let relocatable_runs ~suitable (filters : Ir.filter_info list) =
  let rec go acc current = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | (f : Ir.filter_info) :: rest -> (
      if not f.relocatable then
        go (if current = [] then acc else List.rev current :: acc) [] rest
      else
        match suitable f with
        | Ok () -> go acc (f :: current) rest
        | Error _ ->
          go (if current = [] then acc else List.rev current :: acc) [] rest)
  in
  go [] [] filters

let gpu_backend ~effects (prog : Ir.program) (store : Runtime.Store.t) =
  (* Map and reduce sites. *)
  List.iter
    (fun site ->
      match site with
      | `Map (m : Ir.map_site) -> (
        match Gpu.Suitability.check_fn ~effects prog m.map_fn with
        | Gpu.Suitability.Suitable ->
          Runtime.Store.add store
            (Runtime.Artifact.Gpu_kernel
               {
                 ga_uid = m.map_uid;
                 ga_kind = Runtime.Artifact.G_map m;
                 ga_opencl = Gpu.Opencl_gen.map_kernel_text prog m;
               })
        | Gpu.Suitability.Excluded reason ->
          Runtime.Store.record_exclusion store ~uid:m.map_uid
            ~device:Runtime.Artifact.Gpu ~reason)
      | `Reduce (r : Ir.reduce_site) -> (
        match Gpu.Suitability.check_fn ~effects prog r.red_fn with
        | Gpu.Suitability.Suitable ->
          Runtime.Store.add store
            (Runtime.Artifact.Gpu_kernel
               {
                 ga_uid = r.red_uid;
                 ga_kind = Runtime.Artifact.G_reduce r;
                 ga_opencl = Gpu.Opencl_gen.reduce_kernel_text prog r;
               })
        | Gpu.Suitability.Excluded reason ->
          Runtime.Store.record_exclusion store ~uid:r.red_uid
            ~device:Runtime.Artifact.Gpu ~reason))
    (Ir.kernel_sites prog);
  (* Filter chains of the task graphs: the GPU runs pure (static)
     filters only. *)
  let gpu_suitable (f : Ir.filter_info) =
    match f.target with
    | Ir.F_instance _ -> Error "stateful filters do not map to OpenCL kernels"
    | Ir.F_static key -> (
      match Gpu.Suitability.check_fn ~effects prog key with
      | Gpu.Suitability.Suitable -> Ok ()
      | Gpu.Suitability.Excluded reason -> Error reason)
  in
  Ir.String_map.iter
    (fun _ (gt : Ir.graph_template) ->
      let filters =
        List.filter_map
          (function Ir.N_filter f -> Some f | Ir.N_source _ | Ir.N_sink _ -> None)
          gt.gt_nodes
      in
      (* Record exclusions for relocatable-but-unsuitable filters. *)
      List.iter
        (fun (f : Ir.filter_info) ->
          if f.relocatable then
            match gpu_suitable f with
            | Ok () -> ()
            | Error reason ->
              Runtime.Store.record_exclusion store ~uid:f.uid
                ~device:Runtime.Artifact.Gpu ~reason)
        filters;
      List.iter
        (fun run ->
          List.iter
            (fun chain ->
              let uid = Runtime.Artifact.chain_uid chain in
              let keys =
                List.map
                  (fun (f : Ir.filter_info) ->
                    match f.target with
                    | Ir.F_static key -> key
                    | Ir.F_instance (cls, m) -> cls ^ "." ^ m)
                  chain
              in
              let first = List.hd chain in
              let last = List.nth chain (List.length chain - 1) in
              Runtime.Store.add store
                (Runtime.Artifact.Gpu_kernel
                   {
                     ga_uid = uid;
                     ga_kind = Runtime.Artifact.G_filter_chain chain;
                     ga_opencl =
                       Gpu.Opencl_gen.filter_kernel_text prog ~uid keys
                         ~input:first.Ir.input ~output:last.Ir.output;
                   }))
            (subchains run))
        (relocatable_runs ~suitable:gpu_suitable filters))
    prog.Ir.templates

let fpga_backend ~effects (prog : Ir.program) (store : Runtime.Store.t) =
  (* One analysis memo for the whole backend: every subchain of a run
     shares the same filters, so without it each callee is
     structurally re-walked O(n^2) times. The effect summaries
     (shared with the GPU backend) reject impure functions before any
     walk. *)
  (* Kernel sites are not synthesized — a lowered worker consumes
     whole array chunks, and the RTL substrate streams scalars — so no
     FPGA artifact (or exclusion: the absence is structural, not a
     property of the function) is recorded for them. *)
  let cache = Rtl.Synth.make_cache () in
  let fpga_suitable (f : Ir.filter_info) =
    match Rtl.Synth.check_filter ~effects ~cache prog f with
    | Rtl.Synth.Suitable -> Ok ()
    | Rtl.Synth.Excluded reason -> Error reason
  in
  Ir.String_map.iter
    (fun _ (gt : Ir.graph_template) ->
      let filters =
        List.filter_map
          (function Ir.N_filter f -> Some f | Ir.N_source _ | Ir.N_sink _ -> None)
          gt.gt_nodes
      in
      List.iter
        (fun (f : Ir.filter_info) ->
          if f.relocatable then
            match fpga_suitable f with
            | Ok () -> ()
            | Error reason ->
              Runtime.Store.record_exclusion store ~uid:f.uid
                ~device:Runtime.Artifact.Fpga ~reason)
        filters;
      List.iter
        (fun run ->
          List.iter
            (fun chain ->
              let uid = Runtime.Artifact.chain_uid chain in
              let pipeline =
                Rtl.Synth.pipeline_of_chain ~effects ~cache prog ~name:uid
                  (List.map (fun f -> f, None) chain)
              in
              Runtime.Store.add store
                (Runtime.Artifact.Fpga_module
                   {
                     fa_uid = uid;
                     fa_filters = chain;
                     fa_verilog = Rtl.Verilog_gen.pipeline_text prog pipeline;
                     fa_pipeline = pipeline;
                   }))
            (subchains run))
        (relocatable_runs ~suitable:fpga_suitable filters))
    prog.Ir.templates

(* "In the case of native binaries, the compiler generates C code and
   builds shared libraries that are dynamically loaded by the Liquid
   Metal runtime" (paper section 5). C places no constraint on the IR,
   so every relocatable chain gets a native artifact. *)
let native_backend (prog : Ir.program) (store : Runtime.Store.t) =
  (* Map and reduce sites: the lowered worker filter compiles to C like
     any other chain, so every kernel site gets a native fallback one
     notch above interpreted bytecode. *)
  List.iter
    (fun site ->
      let kind =
        match site with
        | `Map m -> Lime_ir.Lower_mapreduce.K_map m
        | `Reduce r -> Lime_ir.Lower_mapreduce.K_reduce r
      in
      let worker = Lime_ir.Lower_mapreduce.worker_filter kind in
      Runtime.Store.add store
        (Runtime.Artifact.Native_binary
           {
             na_uid = worker.Ir.uid;
             na_filters = [ worker ];
             na_c =
               Native_cpu.C_gen.chain_source_text prog ~uid:worker.Ir.uid
                 [ worker ];
           }))
    (Ir.kernel_sites prog);
  Ir.String_map.iter
    (fun _ (gt : Ir.graph_template) ->
      let filters =
        List.filter_map
          (function Ir.N_filter f -> Some f | Ir.N_source _ | Ir.N_sink _ -> None)
          gt.gt_nodes
      in
      List.iter
        (fun run ->
          List.iter
            (fun chain ->
              let uid = Runtime.Artifact.chain_uid chain in
              Runtime.Store.add store
                (Runtime.Artifact.Native_binary
                   {
                     na_uid = uid;
                     na_filters = chain;
                     na_c = Native_cpu.C_gen.chain_source_text prog ~uid chain;
                   }))
            (subchains run))
        (relocatable_runs ~suitable:(fun _ -> Ok ()) filters))
    prog.Ir.templates

(* Register device artifacts for the synthetic fused filters: one
   OpenCL kernel and one fully-pipelined RTL module per fused run. No
   fused native artifact is emitted — the native backend already
   compiles a whole chain into a single shared library with one JNI
   round trip, so fusion adds nothing there. The fused filter is also
   recorded in the store's fusion registry so bytecode plans execute
   the run as one segment. *)
let fused_backend ~effects (prog : Ir.program) (store : Runtime.Store.t)
    (fusions : Lime_ir.Fuse.fused list) =
  List.iter
    (fun (fz : Lime_ir.Fuse.fused) ->
      let f = fz.Lime_ir.Fuse.fu_filter in
      let uid = f.Ir.uid in
      Runtime.Store.add_fusion store
        ~chain:(Runtime.Artifact.chain_uid fz.Lime_ir.Fuse.fu_members)
        f;
      (match Gpu.Suitability.check_fn ~effects prog uid with
      | Gpu.Suitability.Suitable ->
        Runtime.Store.add store
          (Runtime.Artifact.Gpu_kernel
             {
               ga_uid = uid;
               ga_kind = Runtime.Artifact.G_filter_chain [ f ];
               ga_opencl =
                 Gpu.Opencl_gen.filter_kernel_text prog ~uid [ uid ]
                   ~input:f.Ir.input ~output:f.Ir.output;
             })
      | Gpu.Suitability.Excluded reason ->
        Runtime.Store.record_exclusion store ~uid
          ~device:Runtime.Artifact.Gpu ~reason);
      let cache = Rtl.Synth.make_cache () in
      match Rtl.Synth.check_filter ~effects ~cache prog f with
      | Rtl.Synth.Suitable -> (
        match
          Rtl.Synth.pipeline_of_chain ~effects ~cache prog ~name:uid
            ~pipelined:true
            [ f, None ]
        with
        | pipeline ->
          Runtime.Store.add store
            (Runtime.Artifact.Fpga_module
               {
                 fa_uid = uid;
                 fa_filters = [ f ];
                 fa_verilog = Rtl.Verilog_gen.pipeline_text prog pipeline;
                 fa_pipeline = pipeline;
               })
        | exception
            (Rtl.Netlist.Synthesis_error reason
            | Rtl.Verilog_gen.Unsynthesizable reason) ->
          Runtime.Store.record_exclusion store ~uid
            ~device:Runtime.Artifact.Fpga ~reason)
      | Rtl.Synth.Excluded reason ->
        Runtime.Store.record_exclusion store ~uid
          ~device:Runtime.Artifact.Fpga ~reason)
    fusions

let compile ?(file = "<lime>") ?(fuse = true) source : compiled =
  let phases = ref [] in
  let ast = timed phases "parse" (fun () -> Lime_syntax.Parser.parse ~file source) in
  let tast = timed phases "typecheck" (fun () -> Lime_types.Typecheck.check ast) in
  let prog = timed phases "lower" (fun () -> Lime_ir.Lower.lower tast) in
  (* the paper's "shallow optimizations" (section 3) *)
  let prog = timed phases "optimize" (fun () -> Lime_ir.Opt.optimize prog) in
  (* Static analysis over the optimized IR: effect inference (shared
     with the GPU backend below), value ranges, task-graph lint. *)
  let report = timed phases "analyze" (fun () -> Analysis.Report.analyze prog) in
  (* Cross-filter fusion: collapse each maximal fusible run the
     analysis proved into one synthetic filter, then re-analyze so the
     fused bodies get their own effect summaries and bounds proofs
     (composition carries the members' proofs: the fused body contains
     the same accesses under the same guards). Templates are
     untouched, so the diagnostics of the re-analysis match the first
     pass plus any fused-body findings. *)
  let prog, fusions, report =
    if not fuse then prog, [], report
    else
      let rr =
        Analysis.Fusability.runs prog report.Analysis.Report.effects
      in
      match rr.Analysis.Fusability.rr_runs with
      | [] -> prog, [], report
      | runs ->
        let prog, fusions =
          timed phases "fuse" (fun () ->
              Lime_ir.Fuse.fuse_program prog
                (List.map
                   (fun (r : Analysis.Fusability.run) ->
                     r.Analysis.Fusability.fr_members)
                   runs))
        in
        let report =
          timed phases "analyze-fused" (fun () ->
              Analysis.Report.analyze prog)
        in
        prog, fusions, report
  in
  let unit_ =
    (* The analysis and the backends walk the same program value, so
       the per-instruction bounds proofs carry over by identity. *)
    timed phases "bytecode-backend" (fun () ->
        Bytecode.Compile.compile_program
          ~proven:(Analysis.Report.prover report)
          prog)
  in
  let store = Runtime.Store.create () in
  timed_backend phases store "native-backend" (fun () ->
      native_backend prog store);
  timed_backend phases store "gpu-backend" (fun () ->
      gpu_backend ~effects:report.Analysis.Report.effects prog store);
  timed_backend phases store "fpga-backend" (fun () ->
      fpga_backend ~effects:report.Analysis.Report.effects prog store);
  if fusions <> [] then
    timed_backend phases store "fuse-backend" (fun () ->
        fused_backend ~effects:report.Analysis.Report.effects prog store
          fusions);
  let lowered = Lime_ir.Lower_mapreduce.lower_program prog in
  { unit_; store; ir = prog; lowered; report; phase_seconds = List.rev !phases }

let manifest (c : compiled) = Runtime.Store.manifest c.store

let engine ?policy ?fuse ?gpu_device ?fifo_capacity ?chunk_elements
    ?max_retries ?cost_model ?replan_factor ?map_chunks ?reduce_chunks
    (c : compiled) =
  Runtime.Exec.create ?policy ?fuse ?gpu_device ?fifo_capacity
    ?chunk_elements ?max_retries ?cost_model ?replan_factor ?map_chunks
    ?reduce_chunks c.unit_ c.store
