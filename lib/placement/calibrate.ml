module Ir = Lime_ir.Ir
module I = Lime_ir.Interp
module V = Wire.Value
module Artifact = Runtime.Artifact
module Metrics = Runtime.Metrics
module Exec = Runtime.Exec
module Boundary = Wire.Boundary

(* Device cost calibration.

   A profile records the modeled cost of launching one (chain, device)
   pair as [overhead + per_elem * n]. Where the chain's element type
   has a synthetic generator the numbers are *measured*: the chain is
   microbenchmarked through the real execution path — VM dispatch for
   bytecode, [Exec.calibrate_batch] (full boundary marshaling + device
   model) for artifacts — at two stream sizes, and the two points give
   the linear fit. Stateful chains are measured too: the calibrator
   fabricates receiver objects from the IR class metadata (default
   fields, then the constructor over synthetic arguments), fresh for
   every benchmark run. Only chains whose element or constructor types
   have no generator fall back to an *analytic* profile derived from
   bytecode instruction counts and the device constants; the entry is
   marked accordingly.

   All costs are deterministic modeled nanoseconds (never wall time),
   so profiles are stable across machines and runs — which is what
   lets the on-disk store be reused warm. *)

type ctx = {
  cx_compiled : Liquid_metal.Compiler.compiled;
  cx_store : Profile.store;
  cx_engine : Exec.t;
      (** scratch engine for microbenchmarks: default device models,
          private metrics *)
  cx_vm : Bytecode.Vm.program;  (** the VM microbenchmark's program *)
  cx_fresh : (string, unit) Hashtbl.t;
      (** keys this context calibrated itself: re-looking one up is
          neither a store hit nor a recalibration *)
  mutable cx_hits : int;
  mutable cx_calibrated : int;
}

(* The scratch engine is created with the default device models; the
   analytic fallback must quote the same constants. *)
let fpga_clock_ns = 4.0
let gpu_device = Gpu.Device.gtx580

let create ?profile_store (compiled : Liquid_metal.Compiler.compiled) =
  let store =
    match profile_store with Some s -> s | None -> Profile.load "lm.profiles"
  in
  {
    cx_compiled = compiled;
    cx_store = store;
    cx_engine = Liquid_metal.Compiler.engine compiled;
    cx_vm = Bytecode.Vm.prepare compiled.unit_;
    cx_fresh = Hashtbl.create 32;
    cx_hits = 0;
    cx_calibrated = 0;
  }

let store ctx = ctx.cx_store
let compiled ctx = ctx.cx_compiled
let hits ctx = ctx.cx_hits
let calibrated ctx = ctx.cx_calibrated

let fn_key (f : Ir.filter_info) =
  match f.Ir.target with
  | Ir.F_static key -> key
  | Ir.F_instance (cls, m) -> cls ^ "." ^ m

(* Deterministic synthetic elements for a scalar port type; [None]
   when the type has no obvious generator (the chain then gets an
   analytic profile). Values stay small so clamp/offset-style filters
   exercise their arithmetic without overflow traps. *)
let synth_value (ty : Ir.ty) i : V.t option =
  match ty with
  | Ir.I32 -> Some (V.Int (V.norm32 ((i * 7) + 3)))
  | Ir.F32 -> Some (V.Float (V.f32 ((float_of_int i *. 0.5) +. 1.0)))
  | Ir.Bool -> Some (V.Bool (i mod 2 = 0))
  | Ir.Bit -> Some (V.Bit (i mod 2 = 1))
  | Ir.Enum _ | Ir.Arr _ | Ir.Obj _ | Ir.Graph | Ir.Unit -> None

let bytes_per_elem (ty : Ir.ty) =
  match ty with
  | Ir.I32 | Ir.F32 -> 4.0
  | Ir.Bool | Ir.Bit -> 1.0
  | _ -> 4.0

(* A single-filter chain whose UID names a lowered kernel site is a
   map/reduce *worker*: its per-element work is one application of the
   site's function. *)
let worker_site ctx (chain : Ir.filter_info list) =
  match chain with
  | [ f ] ->
    Ir.String_map.find_opt f.Ir.uid
      ctx.cx_compiled.Liquid_metal.Compiler.lowered
  | _ -> None

let chain_insns ctx (chain : Ir.filter_info list) =
  match worker_site ctx chain with
  | Some lw ->
    (* Kernel-site bodies frequently *are* loops (matmul's dot product,
       nbody's force accumulation); a flat instruction count would
       underestimate their per-element cost by the trip count and
       invert the device ordering, so workers use the loop- and
       call-aware estimate. *)
    Lime_ir.Lower_mapreduce.weighted_insns
      ctx.cx_compiled.Liquid_metal.Compiler.ir
      lw.Lime_ir.Lower_mapreduce.lw_fn
  | None ->
    List.fold_left
      (fun acc f ->
        match
          Ir.String_map.find_opt (fn_key f)
            ctx.cx_compiled.Liquid_metal.Compiler.unit_.Bytecode.Compile.u_funcs
        with
        | Some code -> acc + Array.length code.Bytecode.Compile.c_insns
        | None -> acc + 16)
      0 chain

(* --- content-hashed keys ---------------------------------------------- *)

let device_name = function
  | None -> "vm"
  | Some a -> Artifact.device_name (Artifact.device a)

(* The generated code the profile is valid for: the artifact's source
   text, or the bytecode shape (per-filter instruction counts) for the
   VM — any edit to a filter body changes both. *)
let content_of ctx (artifact : Artifact.t option) chain =
  match artifact with
  | Some (Artifact.Gpu_kernel g) -> g.Artifact.ga_opencl
  | Some (Artifact.Fpga_module f) -> f.Artifact.fa_verilog
  | Some (Artifact.Native_binary nb) -> nb.Artifact.na_c
  | None ->
    String.concat ";"
      (List.map
         (fun f ->
           Printf.sprintf "%s=%d" (fn_key f) (chain_insns ctx [ f ]))
         chain)

(* The device-model constants a measurement depends on: boundary
   latency/bandwidth samples plus the GPU and FPGA parameters. Bump
   any of these and the old profiles go stale automatically. *)
let params_of ctx (artifact : Artifact.t option) =
  let m = Exec.metrics ctx.cx_engine in
  let sample b = Printf.sprintf "%h/%h" (Boundary.transfer_ns b 0) (Boundary.transfer_ns b 4096) in
  match artifact with
  | None -> Printf.sprintf "vm=%h" Metrics.cpu_ns_per_instruction
  | Some (Artifact.Native_binary _) ->
    Printf.sprintf "native=%h jni=%s" Metrics.native_ns_per_instruction
      (sample (Metrics.native_boundary m))
  | Some (Artifact.Gpu_kernel _) ->
    Printf.sprintf "gpu=%s lanes=%d launch=%h pcie=%s" gpu_device.Gpu.Device.name
      (Gpu.Device.total_lanes gpu_device)
      gpu_device.Gpu.Device.launch_overhead_ns
      (sample (Metrics.boundary m))
  | Some (Artifact.Fpga_module _) ->
    Printf.sprintf "clock=%h pcie=%s" fpga_clock_ns (sample (Metrics.boundary m))

let key_of ctx artifact chain =
  Profile.key ~device:(device_name artifact)
    ~chain:(Artifact.chain_uid chain)
    ~content:(content_of ctx artifact chain)
    ~params:(params_of ctx artifact)

(* --- receiver fabrication --------------------------------------------- *)

(* Fabricate a receiver object for an instance filter so stateful
   chains can be *measured* rather than estimated: allocate the class
   with default field values, then run its constructor with synthetic
   scalar arguments (mirroring [Interp]'s [R_newobj] semantics).
   [None] when the class is unknown, a constructor argument type has
   no generator, or the constructor traps — the chain then falls back
   to the analytic profile. *)
let fabricate_receiver ctx (cls : string) : I.v option =
  let prog = ctx.cx_compiled.Liquid_metal.Compiler.ir in
  match Ir.String_map.find_opt cls prog.Ir.classes with
  | None -> None
  | Some meta ->
    let fields =
      Array.of_list
        (List.map (fun (_, ty) -> I.default_value ty) meta.Ir.cm_fields)
    in
    let obj = I.Obj { I.obj_class = cls; obj_fields = fields } in
    (match meta.Ir.cm_ctor with
    | None -> Some obj
    | Some ctor -> (
      match Ir.find_func prog ctor with
      | None -> None
      | Some fn -> (
        let ctor_args =
          List.fold_right
            (fun (p : Ir.var) acc ->
              match acc with
              | None -> None
              | Some args -> (
                match synth_value p.Ir.v_ty p.Ir.v_id with
                | Some v -> Some (I.Prim v :: args)
                | None -> None))
            (List.tl fn.Ir.fn_params)
            (Some [])
        in
        match ctor_args with
        | None -> None
        | Some args -> (
          try
            ignore (I.call prog ctor (obj :: args));
            Some obj
          with I.Runtime_error _ -> None))))

(* One fabricated receiver slot per filter ([None] for static
   filters); [None] overall when any instance filter cannot be
   fabricated. *)
let fabricate_receivers ctx (chain : Ir.filter_info list) :
    I.v option list option =
  List.fold_right
    (fun (f : Ir.filter_info) acc ->
      match acc with
      | None -> None
      | Some rs -> (
        match f.Ir.target with
        | Ir.F_static _ -> Some (None :: rs)
        | Ir.F_instance (cls, _) -> (
          match fabricate_receiver ctx cls with
          | Some r -> Some (Some r :: rs)
          | None -> None)))
    chain (Some [])

(* --- measurement ------------------------------------------------------- *)

let calibration_sizes = (32, 96)

(* Linear fit through two measured points. *)
let fit (n1, c1) (n2, c2) =
  let per_elem = Float.max 0.0 ((c2 -. c1) /. float_of_int (n2 - n1)) in
  let overhead = Float.max 0.0 (c1 -. (per_elem *. float_of_int n1)) in
  (per_elem, overhead)

let measure_artifact ctx (artifact : Artifact.t) chain ~input_ty =
  let bench n =
    let xs =
      List.init n (fun i -> Option.get (synth_value input_ty i))
    in
    (* Fresh receivers per bench call: a stateful launch mutates its
       receivers, and the two-point fit needs both runs to start from
       the same state. Receivers are only passed when some filter is
       stateful — [Exec.calibrate_batch] aligns the list with the
       *artifact's* chain, which for fused artifacts is the single
       fused (all-static) filter. *)
    let receivers =
      match fabricate_receivers ctx chain with
      | Some rs when List.exists Option.is_some rs -> Some rs
      | _ -> None
    in
    let before = Exec.modeled_ns ctx.cx_engine in
    ignore (Exec.calibrate_batch ?receivers ctx.cx_engine artifact xs);
    Exec.modeled_ns ctx.cx_engine -. before
  in
  let n1, n2 = calibration_sizes in
  fit (n1, bench n1) (n2, bench n2)

(* The VM microbenchmark: run synthetic elements through the chain's
   filter functions on the bytecode VM and charge the executed
   instructions to the CPU model. Per-element cost only — the
   interpreter has no launch overhead and no boundary. Instance
   filters run against fabricated receivers, matching the engine's
   [receiver; element] calling convention. *)
let measure_vm ctx chain ~receivers ~input_ty =
  let samples = 8 in
  let executed = ref 0 in
  for i = 0 to samples - 1 do
    let x = ref (Option.get (synth_value input_ty i)) in
    List.iter2
      (fun f receiver ->
        let args =
          match receiver with
          | Some r -> [ r; I.Prim !x ]
          | None -> [ I.Prim !x ]
        in
        let r = Bytecode.Vm.run ctx.cx_vm (fn_key f) args in
        executed := !executed + r.Bytecode.Vm.executed;
        x := I.prim_exn r.Bytecode.Vm.value)
      chain receivers
  done;
  let per_elem =
    float_of_int !executed /. float_of_int samples
    *. Metrics.cpu_ns_per_instruction
  in
  (per_elem, 0.0)

(* --- the analytic fallback --------------------------------------------- *)

(* Mirrors the engine's static estimate: instruction counts under the
   per-device ns/insn constants, plus launch overhead and boundary
   latency as the fixed cost and boundary bandwidth as a per-element
   cost. Used when a chain cannot be microbenchmarked (stateful
   receivers, non-scalar ports). *)
let analytic ctx (artifact : Artifact.t option) chain ~input_ty =
  let m = Exec.metrics ctx.cx_engine in
  let insns = float_of_int (chain_insns ctx chain) in
  let eb = bytes_per_elem input_ty in
  let latency b = Boundary.transfer_ns b 0 in
  let per_byte b = (Boundary.transfer_ns b 4096 -. latency b) /. 4096.0 in
  (* Fused kernels stream their result back (no return-trip latency);
     the fused FPGA pipeline additionally runs at initiation interval
     1, paying the chain depth once as fill latency. Mirrors the
     engine's [estimate_cost]. *)
  let fused =
    match artifact with
    | Some (Artifact.Gpu_kernel g) -> Artifact.is_fused_uid g.Artifact.ga_uid
    | Some (Artifact.Fpga_module f) -> Artifact.is_fused_uid f.Artifact.fa_uid
    | _ -> false
  in
  match artifact with
  | None -> (insns *. Metrics.cpu_ns_per_instruction, 0.0)
  | Some (Artifact.Native_binary _) ->
    let b = Metrics.native_boundary m in
    ( (insns *. Metrics.native_ns_per_instruction) +. (2.0 *. per_byte b *. eb),
      2.0 *. latency b )
  | Some (Artifact.Gpu_kernel _) ->
    let b = Metrics.boundary m in
    let lanes = float_of_int (Gpu.Device.total_lanes gpu_device) in
    ( Gpu.Device.cycles_to_ns gpu_device (insns /. lanes)
      +. (2.0 *. per_byte b *. eb),
      ((if fused then 1.0 else 2.0) *. latency b)
      +. gpu_device.Gpu.Device.launch_overhead_ns )
  | Some (Artifact.Fpga_module _) ->
    let b = Metrics.boundary m in
    if fused then
      let fill = Float.max 1.0 (insns /. 4.0) in
      ( fpga_clock_ns +. (2.0 *. per_byte b *. eb),
        latency b +. ((fill +. 4.0) *. fpga_clock_ns) )
    else
      ( (3.0 *. fpga_clock_ns) +. (2.0 *. per_byte b *. eb),
        (2.0 *. latency b)
        +. (3.0 *. float_of_int (List.length chain) *. fpga_clock_ns) )

(* --- the profile entry ------------------------------------------------- *)

let profile ctx (artifact : Artifact.t option) (chain : Ir.filter_info list) :
    Profile.entry =
  let key = key_of ctx artifact chain in
  match Profile.find ctx.cx_store key with
  | Some e ->
    if not (Hashtbl.mem ctx.cx_fresh key) then ctx.cx_hits <- ctx.cx_hits + 1;
    e
  | None ->
    let input_ty =
      match chain with f :: _ -> f.Ir.input | [] -> Ir.Unit
    in
    let receivers = fabricate_receivers ctx chain in
    let measurable =
      chain <> [] && receivers <> None && synth_value input_ty 0 <> None
    in
    (* Measurement probes are runtime infrastructure, not application
       launches: run them with fault injection suspended so an
       installed schedule neither kills calibration (the probes bypass
       the failure protocol) nor silently spends its budget here. *)
    let (per_elem, overhead), source =
      Support.Fault.without (fun () ->
          if not measurable then
            (analytic ctx artifact chain ~input_ty, Profile.Analytic)
          else
            match artifact with
            | None ->
              ( measure_vm ctx chain ~receivers:(Option.get receivers)
                  ~input_ty,
                Profile.Measured )
            | Some a -> (measure_artifact ctx a chain ~input_ty, Profile.Measured))
    in
    let e =
      {
        Profile.pr_key = key;
        pr_device = device_name artifact;
        pr_per_elem_ns = per_elem;
        pr_overhead_ns = overhead;
        pr_bytes_per_elem = bytes_per_elem input_ty;
        pr_source = source;
        pr_label = Artifact.chain_uid chain;
      }
    in
    Profile.add ctx.cx_store e;
    Hashtbl.replace ctx.cx_fresh key ();
    ctx.cx_calibrated <- ctx.cx_calibrated + 1;
    e

(* --- launch prediction (the drift report's join key) ------------------- *)

let artifact_chain (a : Artifact.t) =
  match a with
  | Artifact.Gpu_kernel { ga_kind = Artifact.G_filter_chain fs; _ } -> Some fs
  | Artifact.Gpu_kernel { ga_kind = Artifact.G_map m; _ } ->
    (* map/reduce kernels calibrate as their lowered worker chain *)
    Some [ Lime_ir.Lower_mapreduce.(worker_filter (K_map m)) ]
  | Artifact.Gpu_kernel { ga_kind = Artifact.G_reduce r; _ } ->
    Some [ Lime_ir.Lower_mapreduce.(worker_filter (K_reduce r)) ]
  | Artifact.Fpga_module f -> Some f.Artifact.fa_filters
  | Artifact.Native_binary n -> Some n.Artifact.na_filters

let device_of_name = function
  | "gpu" -> Some Artifact.Gpu
  | "fpga" -> Some Artifact.Fpga
  | "native" -> Some Artifact.Native
  | _ -> None

(* Predicted modeled ns for one launch of [n] elements of chain [uid]
   on [device] (names as they appear in `launch` trace spans), plus the
   profile source. [None] when the artifact does not exist or is
   quarantined; map/reduce kernels calibrate as their lowered worker
   chain. Misses calibrate through the store, so offline analysis
   against a warm store never re-measures. *)
let predictor ctx ~uid ~device ~n =
  match device_of_name device with
  | None -> None
  | Some dev -> (
    match
      Runtime.Store.find_on ctx.cx_compiled.Liquid_metal.Compiler.store ~uid
        ~device:dev
    with
    | None -> None
    | Some a -> (
      match artifact_chain a with
      | None -> None
      | Some chain ->
        let e = profile ctx (Some a) chain in
        Some (Profile.predict e ~n, Profile.source_name e.Profile.pr_source)))
