module Ir = Lime_ir.Ir
module I = Lime_ir.Interp
module Lmr = Lime_ir.Lower_mapreduce
module V = Wire.Value
module Codec = Wire.Codec
module Boundary = Wire.Boundary
module Trace = Support.Trace

exception Engine_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Engine_error s)) fmt

type cost_model =
  n:int -> Artifact.t option -> Ir.filter_info list -> float

type t = {
  unit_ : Bytecode.Compile.unit_;
  store_ : Store.t;
  mutable policy_ : Substitute.policy;
  fuse_ : bool;
      (** plan with fused artifacts and the fusion registry (default);
          fault recovery re-plans with fusion off to unfuse a faulted
          run per stage *)
  gpu_device : Gpu.Device.t;
  vm : Bytecode.Vm.program;
      (** the program's bytecode, specialised for the VM function by
          function on first call *)
  simt : Gpu.Simt.program;
      (** the program's device functions, compiled once for the SIMT
          simulator on first launch *)
  fpga_clock_ns : int;
  fifo_capacity : int;
  schedule : Scheduler.mode;
  metrics_ : Metrics.t;
  model_divergence : bool;
  chunk_elements : int option;
      (** device-launch granularity; [None] batches the whole stream *)
  max_retries : int;
      (** device-launch retries after a fault, before re-substitution *)
  retry_backoff_ns : float;  (** base of the exponential backoff *)
  mutable last_plan_ : string option;
  mutable cost_model_ : cost_model option;
      (** calibrated per-segment cost predictor (e.g. from
          [Placement]); when absent, the built-in static
          [estimate_cost] stands in *)
  replan_factor : float option;
      (** online re-planning: when a device segment's measured modeled
          service time exceeds the prediction by more than this
          factor, demote the artifact and re-substitute mid-run *)
  observed_ : (string, float) Hashtbl.t;
      (** per-artifact observed per-element cost (ns), recorded when a
          launch underperforms its model; overrides the prediction in
          subsequent planning *)
  steady_cache_ : (string, int list option) Hashtbl.t;
      (** solved steady-state step budgets per (template, plan,
          stream-shape) key, so repeated [Exec] runs of the same graph
          skip rebuilding and re-solving the rate graph *)
  lower_mapreduce : bool;
      (** execute map/reduce sites through the lowered
          scatter/worker/gather task graph instead of the legacy
          whole-array GPU hook *)
  mr_sites : Lmr.lowered Ir.String_map.t;
      (** the program's kernel sites, lowered, keyed by site UID *)
  map_chunks : int option;  (** forced scatter width for map sites *)
  reduce_chunks : int option;
      (** forced scatter width for reduce sites (chunked combining
          reassociates the fold — off by default unless the algebraic
          analysis proves the combiner associative) *)
  assoc_memo_ : (string, bool) Hashtbl.t;
      (** memoized [Analysis.Algebra.is_assoc_comm] verdicts per
          combiner function key *)
}

let create ?(policy = Substitute.Prefer_accelerators) ?(fuse = true)
    ?(gpu_device = Gpu.Device.gtx580) ?(fpga_clock_ns = 4)
    ?(fifo_capacity = 16) ?(schedule = Scheduler.Round_robin) ?boundary
    ?(model_divergence = true) ?chunk_elements ?(max_retries = 2)
    ?(retry_backoff_ns = 1000.0) ?cost_model ?replan_factor
    ?(lower_mapreduce = true) ?map_chunks ?reduce_chunks unit_ store_ =
  (* Validate at the boundary: [Actor.Channel.create] would otherwise
     raise [Invalid_argument] from deep inside graph construction. *)
  if fifo_capacity < 1 then
    fail "fifo_capacity must be at least 1 (got %d)" fifo_capacity;
  {
    unit_;
    store_;
    policy_ = policy;
    fuse_ = fuse;
    gpu_device;
    vm = Bytecode.Vm.prepare unit_;
    simt = Gpu.Simt.prepare unit_.Bytecode.Compile.u_program;
    fpga_clock_ns;
    fifo_capacity;
    schedule;
    metrics_ = Metrics.create ?boundary ();
    model_divergence;
    chunk_elements;
    max_retries;
    retry_backoff_ns;
    last_plan_ = None;
    cost_model_ = cost_model;
    replan_factor;
    observed_ = Hashtbl.create 16;
    steady_cache_ = Hashtbl.create 16;
    lower_mapreduce;
    mr_sites =
      (if lower_mapreduce then
         Lmr.lower_program unit_.Bytecode.Compile.u_program
       else Ir.String_map.empty);
    map_chunks;
    reduce_chunks;
    assoc_memo_ = Hashtbl.create 8;
  }

let set_policy t p = t.policy_ <- p
let policy t = t.policy_
let fusing t = t.fuse_
let set_cost_model t f = t.cost_model_ <- Some f
let observed_costs t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.observed_ []
let schedule t = t.schedule
let metrics t = t.metrics_
let store t = t.store_
let program t = t.unit_.Bytecode.Compile.u_program
let last_plan t = t.last_plan_

(* --- wire helpers ---------------------------------------------------- *)

let rec wire_ty_of_value (v : V.t) : Codec.ty =
  match v with
  | V.Unit -> Codec.W_unit
  | V.Bool _ -> Codec.W_bool
  | V.Int _ -> Codec.W_int
  | V.Float _ -> Codec.W_float
  | V.Bit _ -> Codec.W_bit
  | V.Enum { enum; _ } -> Codec.W_enum enum
  | V.Bits _ -> Codec.W_bits
  | V.Int_array _ -> Codec.W_array Codec.W_int
  | V.Float_array _ -> Codec.W_array Codec.W_float
  | V.Bool_array _ -> Codec.W_array Codec.W_bool
  | V.Array [||] -> Codec.W_array Codec.W_int
  | V.Array a -> (
    match wire_ty_of_value a.(0) with
    | Codec.W_bit -> Codec.W_bits_boxed
    | elt -> Codec.W_array elt)
  | V.Tuple vs -> Codec.W_tuple (List.map wire_ty_of_value vs)

let pack_stream (elt : Ir.ty) (xs : V.t list) : V.t =
  let n = List.length xs in
  let arr = I.new_array elt n in
  List.iteri (fun i x -> I.array_set arr i x) xs;
  I.freeze arr

let unpack_stream (v : V.t) : V.t list =
  List.init (I.array_length v) (fun i -> I.array_get v i)

(* --- receiver-state snapshots ----------------------------------------- *)

(* A device launch over a stateful chain mutates receiver objects
   (register files, accumulators) in place. To retry a launch after a
   mid-flight fault — e.g. the result is lost crossing back to the
   host — the runtime must first rewind that state, or the retry would
   double-apply it and diverge from the bytecode reference. A snapshot
   deep-copies every mutable leaf; restore writes the copies back into
   the original object graph (in place, because the filter closures
   alias the original receivers). *)

let rec copy_value (v : V.t) : V.t =
  match v with
  | V.Int_array a -> V.Int_array (Array.copy a)
  | V.Float_array a -> V.Float_array (Array.copy a)
  | V.Bool_array a -> V.Bool_array (Array.copy a)
  | V.Array a -> V.Array (Array.map copy_value a)
  | V.Tuple vs -> V.Tuple (List.map copy_value vs)
  | ( V.Unit | V.Bool _ | V.Int _ | V.Float _ | V.Bit _ | V.Enum _
    | V.Bits _ ) as v ->
    v

let rec snapshot_v (v : I.v) : I.v =
  match v with
  | I.Prim p -> I.Prim (copy_value p)
  | I.Obj o -> I.Obj { o with I.obj_fields = Array.map snapshot_v o.I.obj_fields }
  | I.Graph_handle _ -> v

let rec restore_v ~(snap : I.v) ~(into : I.v) : unit =
  match snap, into with
  | I.Obj s, I.Obj o ->
    Array.iteri
      (fun i sv ->
        match sv, o.I.obj_fields.(i) with
        | I.Obj _, (I.Obj _ as ov) -> restore_v ~snap:sv ~into:ov
        | _ -> o.I.obj_fields.(i) <- snapshot_v sv)
      s.I.obj_fields
  | _ -> ()

(* --- device dispatch -------------------------------------------------- *)

(* Ship a value to the device through the full Figure-3 path and hand
   back the device-side copy. *)
let ship_to_device ?boundary t (v : V.t) : V.t =
  let b = Option.value boundary ~default:(Metrics.boundary t.metrics_) in
  let ty = wire_ty_of_value v in
  let native = Boundary.to_device b ty v in
  Boundary.Native.to_value native

(* Mirror path: pack the device result densely, cross, deserialize.
   [streaming] is the fused-segment return: the producer overlaps the
   transfer with compute, so the crossing pays bandwidth only (see
   {!Wire.Boundary.to_host}). *)
let ship_to_host ?boundary ?streaming t (v : V.t) : V.t =
  let b = Option.value boundary ~default:(Metrics.boundary t.metrics_) in
  let ty = wire_ty_of_value v in
  let native = Boundary.native_of_value ty v in
  Boundary.to_host ?streaming b native

let gpu_allowed t =
  List.mem Artifact.Gpu (Substitute.device_order t.policy_)

(* Total modeled time accumulated so far: the interpreter under the
   CPU model plus every device kernel, native segment and boundary
   crossing. Deltas around a launch give the measured service time the
   re-planner compares against its prediction. *)
let modeled_ns t =
  Metrics.modeled_cpu_ns t.metrics_ +. Metrics.modeled_accelerator_ns t.metrics_

(* Every device launch runs inside a `launch` span carrying the element
   count up front and, at close, the modeled service-time delta — the
   observation the drift report joins against profile-store
   predictions. A faulted attempt still closes its span (tagged), so
   the timeline shows the retry, but drift skips it. *)
let with_launch_span t ~elements name f =
  if not (Trace.enabled ()) then f ()
  else begin
    let sp =
      Trace.begin_span ~cat:"launch"
        ~args:[ "elements", Trace.Int elements ]
        name
    in
    let before = modeled_ns t in
    match f () with
    | r ->
      Trace.end_span
        ~args:[ "modeled_ns", Trace.Float (modeled_ns t -. before) ]
        sp;
      r
    | exception e ->
      Trace.end_span
        ~args:
          [
            "modeled_ns", Trace.Float (modeled_ns t -. before);
            "faulted", Trace.Bool true;
          ]
        sp;
      raise e
  end

let run_gpu_map t (site : Ir.map_site) (args : I.v list) : I.v =
  let host_args = List.map I.prim_exn args in
  let elements =
    match host_args with
    | a :: _ -> ( try I.array_length a with _ -> 1)
    | [] -> 0
  in
  with_launch_span t ~elements ("gpu:" ^ site.map_uid) (fun () ->
      let dev_args = List.map (ship_to_device t) host_args in
      let result, timing =
        Gpu.Simt.run_map ~device:t.gpu_device
          ~model_divergence:t.model_divergence t.simt site dev_args
      in
      Metrics.add_gpu_kernel t.metrics_ ~ns:timing.Gpu.Simt.kernel_ns;
      Metrics.add_substitution t.metrics_ site.map_uid Artifact.Gpu;
      I.Prim (ship_to_host t result))

let run_gpu_reduce t (site : Ir.reduce_site) (arg : I.v) : I.v =
  let elements = try I.array_length (I.prim_exn arg) with _ -> 1 in
  with_launch_span t ~elements ("gpu:" ^ site.red_uid) (fun () ->
      let dev_arg = ship_to_device t (I.prim_exn arg) in
      let result, timing =
        Gpu.Simt.run_reduce ~device:t.gpu_device
          ~model_divergence:t.model_divergence t.simt site dev_arg
      in
      Metrics.add_gpu_kernel t.metrics_ ~ns:timing.Gpu.Simt.kernel_ns;
      Metrics.add_substitution t.metrics_ site.red_uid Artifact.Gpu;
      I.Prim (ship_to_host t result))

(* --- task-graph co-execution ------------------------------------------ *)

(* Pair each template node with its dynamic operands. *)
let bind_operands (template : Ir.graph_template) (ops : I.v list) =
  let take k ops =
    let rec go k acc = function
      | rest when k = 0 -> List.rev acc, rest
      | x :: rest -> go (k - 1) (x :: acc) rest
      | [] -> fail "graph template operand underflow"
    in
    go k [] ops
  in
  let nodes, rest =
    List.fold_left
      (fun (acc, ops) node ->
        let mine, ops = take (Ir.tnode_operand_count node) ops in
        (node, mine) :: acc, ops)
      ([], ops) template.Ir.gt_nodes
  in
  if rest <> [] then fail "graph template operand overflow";
  List.rev nodes

type bound_graph = {
  bg_uid : string;  (* the graph template's UID: the schedule-cache key *)
  bg_source : V.t;  (* source array *)
  bg_rate : int;
  bg_filters : (Ir.filter_info * I.v option) list;
  bg_sink : V.t;  (* destination array *)
}

let bound_graph_of template ops : bound_graph =
  match bind_operands template ops with
  | (Ir.N_source _, [ arr; rate ]) :: rest -> (
    let rate = match I.prim_exn rate with V.Int r -> r | _ -> 1 in
    let rec split fs = function
      | [ (Ir.N_sink _, [ dest ]) ] -> List.rev fs, dest
      | (Ir.N_filter f, []) :: rest -> split ((f, None) :: fs) rest
      | (Ir.N_filter f, [ recv ]) :: rest -> split ((f, Some recv) :: fs) rest
      | _ -> fail "malformed graph template"
    in
    let fs, dest = split [] rest in
    {
      bg_uid = template.Ir.gt_uid;
      bg_source = I.prim_exn arr;
      bg_rate = rate;
      bg_filters = fs;
      bg_sink = I.prim_exn dest;
    })
  | _ -> fail "malformed graph template"

let filter_fn_key (f : Ir.filter_info) =
  match f.target with
  | Ir.F_static key -> key
  | Ir.F_instance (cls, m) -> cls ^ "." ^ m

(* One bytecode filter actor: every element application is a VM call,
   charged to the CPU model. *)
let bytecode_filter_actor t ((f : Ir.filter_info), receiver) inp out =
  let key = filter_fn_key f in
  let span_name = "bc:" ^ f.uid in
  let apply x =
    Trace.with_span ~cat:"vm" span_name (fun () ->
        let args =
          match receiver with
          | Some r -> [ r; I.Prim x ]
          | None -> [ I.Prim x ]
        in
        let r = Bytecode.Vm.run t.vm key args in
        Metrics.add_vm_instructions t.metrics_ r.Bytecode.Vm.executed;
        I.prim_exn r.Bytecode.Vm.value)
  in
  Actor.filter ~name:span_name ~f:apply inp out

(* Fault aliasing for fused segments: specs written against the
   pre-fusion segment names (each member uid, and the plain chain uid)
   keep firing on the fused segment, so injection campaigns survive
   fusion; a "fuse" instant marks the launch on the timeline. *)
let fused_prelude t ~device uid =
  let members = Artifact.fused_members uid in
  Support.Fault.check_any ~device
    (uid :: String.concat "+" members :: members);
  Metrics.add_fused_launch t.metrics_;
  if Trace.enabled () then
    Trace.instant ~cat:"fuse"
      ~args:
        [
          "device", Trace.Str device;
          "stages", Trace.Int (List.length members);
        ]
      uid

(* A GPU-substituted segment: batch the stream across the boundary and
   run the fused elementwise kernel. A cross-filter fused segment
   ([Artifact.is_fused_uid]) additionally streams its result home —
   the kernel writes back as it computes, so the return crossing pays
   bandwidth only. *)
let gpu_batch t (artifact : Artifact.gpu_artifact)
    (filters : (Ir.filter_info * I.v option) list) (xs : V.t list) : V.t list =
  let chain_filters =
    match artifact.ga_kind with
    | Artifact.G_filter_chain fs -> fs
    | Artifact.G_map _ | Artifact.G_reduce _ ->
      fail "artifact %s is not a filter chain" artifact.ga_uid
  in
  let chain = List.map filter_fn_key chain_filters in
  let input_ty = (List.hd chain_filters).Ir.input in
  let output_ty =
    (List.nth chain_filters (List.length chain_filters - 1)).Ir.output
  in
  ignore filters;
  let fused = Artifact.is_fused_uid artifact.ga_uid in
  if fused then fused_prelude t ~device:"gpu" artifact.ga_uid;
  with_launch_span t ~elements:(List.length xs) ("gpu:" ^ artifact.ga_uid)
    (fun () ->
      let packed = pack_stream input_ty xs in
      let dev_input = ship_to_device t packed in
      let result, timing =
        Gpu.Simt.run_filter_chain ~device:t.gpu_device
          ~model_divergence:t.model_divergence ~uid:artifact.ga_uid t.simt
          ~chain ~output_ty dev_input
      in
      Metrics.add_gpu_kernel t.metrics_ ~ns:timing.Gpu.Simt.kernel_ns;
      unpack_stream (ship_to_host ~streaming:fused t result))

(* An FPGA-substituted segment: synthesize the pipeline (stateful
   receivers become register files) and run it in the RTL simulator. *)
let fpga_batch t (artifact : Artifact.fpga_artifact)
    (filters : (Ir.filter_info * I.v option) list) (xs : V.t list) : V.t list =
  let fused = Artifact.is_fused_uid artifact.fa_uid in
  if fused then fused_prelude t ~device:"fpga" artifact.fa_uid;
  with_launch_span t ~elements:(List.length xs) ("fpga:" ^ artifact.fa_uid)
    (fun () ->
      let pipeline =
        if fused then
          (* the fused module is fully pipelined (II = 1): the composed
             datapath behind a shift register, one element per cycle *)
          Rtl.Synth.pipeline_of_chain (program t) ~name:artifact.fa_uid
            ~fifo_depth:t.fifo_capacity ~pipelined:true
            (List.map (fun f -> f, None) artifact.fa_filters)
        else
          Rtl.Synth.pipeline_of_chain (program t) ~name:artifact.fa_uid
            ~fifo_depth:t.fifo_capacity filters
      in
      let input_ty = Rtl.Netlist.input_ty pipeline in
      let packed = pack_stream input_ty xs in
      let dev_input = unpack_stream (ship_to_device t packed) in
      let outputs, stats = Rtl.Sim.run (program t) pipeline dev_input in
      Metrics.add_fpga_run t.metrics_ ~cycles:stats.Rtl.Sim.cycles
        ~ns:(float_of_int (stats.Rtl.Sim.cycles * t.fpga_clock_ns));
      let out_packed = pack_stream (Rtl.Netlist.output_ty pipeline) outputs in
      unpack_stream (ship_to_host ~streaming:fused t out_packed))

(* A native-substituted segment: the chain runs as a compiled shared
   library loaded into the process (paper section 5). Functionally the
   code is the same bytecode (identical results); the cost model
   charges the compiled-C rate, and marshaling crosses the cheap
   JNI-only boundary rather than PCIe. *)
let native_batch t (artifact : Artifact.native_artifact)
    (filters : (Ir.filter_info * I.v option) list) (xs : V.t list) : V.t list =
  Support.Fault.check ~device:"native" ~segment:artifact.na_uid;
  let nb = Metrics.native_boundary t.metrics_ in
  let input_ty = (List.hd artifact.na_filters).Ir.input in
  let output_ty =
    (List.nth artifact.na_filters (List.length artifact.na_filters - 1))
      .Ir.output
  in
  with_launch_span t ~elements:(List.length xs) ("native:" ^ artifact.na_uid)
    (fun () ->
      let packed = pack_stream input_ty xs in
      let dev_input = unpack_stream (ship_to_device ~boundary:nb t packed) in
      let apply x ((f : Ir.filter_info), receiver) =
        let args =
          match receiver with
          | Some r -> [ r; I.Prim x ]
          | None -> [ I.Prim x ]
        in
        let r = Bytecode.Vm.run t.vm (filter_fn_key f) args in
        Metrics.add_native_instructions t.metrics_ r.Bytecode.Vm.executed;
        I.prim_exn r.Bytecode.Vm.value
      in
      let outputs =
        List.map (fun x -> List.fold_left apply x filters) dev_input
      in
      unpack_stream
        (ship_to_host ~boundary:nb t (pack_stream output_ty outputs)))

let batch_of_artifact t (artifact : Artifact.t) pairs xs =
  match artifact with
  | Artifact.Gpu_kernel g -> gpu_batch t g pairs xs
  | Artifact.Fpga_module f -> fpga_batch t f pairs xs
  | Artifact.Native_binary n -> native_batch t n pairs xs

(* Cost model for adaptive placement (paper section 7, future work:
   "runtime introspection and adaptation of the task-graph partitioning
   so that tasks run where they are best suited"). Static code size
   stands in for per-element dynamic instructions; [n] is the observed
   stream length. *)
let estimate_cost t ~n (artifact : Artifact.t option)
    (chain : Ir.filter_info list) : float =
  let nf = float_of_int n in
  let chain_insns =
    List.fold_left
      (fun acc f ->
        match Ir.String_map.find_opt (filter_fn_key f) t.unit_.Bytecode.Compile.u_funcs with
        | Some code -> acc + Array.length code.Bytecode.Compile.c_insns
        | None -> acc + 16)
      0 chain
    |> float_of_int
  in
  let elem_bytes = 4.0 in
  match artifact with
  | None ->
    (* interpreted bytecode, no boundary *)
    nf *. chain_insns *. Metrics.cpu_ns_per_instruction
  | Some (Artifact.Native_binary _) ->
    let b = Metrics.native_boundary t.metrics_ in
    (2.0 *. Boundary.transfer_ns b (int_of_float (nf *. elem_bytes)))
    +. (nf *. chain_insns *. Metrics.native_ns_per_instruction)
  | Some (Artifact.Gpu_kernel g) ->
    let b = Metrics.boundary t.metrics_ in
    let lanes = float_of_int (Gpu.Device.total_lanes t.gpu_device) in
    let bytes = int_of_float (nf *. elem_bytes) in
    let return_ns =
      (* a fused kernel streams its result home: bandwidth only *)
      if Artifact.is_fused_uid g.Artifact.ga_uid then
        Boundary.streaming_transfer_ns b bytes
      else Boundary.transfer_ns b bytes
    in
    Boundary.transfer_ns b bytes +. return_ns
    +. t.gpu_device.Gpu.Device.launch_overhead_ns
    +. Gpu.Device.cycles_to_ns t.gpu_device (nf *. chain_insns /. lanes)
  | Some (Artifact.Fpga_module f) ->
    let b = Metrics.boundary t.metrics_ in
    let bytes = int_of_float (nf *. elem_bytes) in
    if Artifact.is_fused_uid f.Artifact.fa_uid then
      (* fully pipelined fused module: one element per cycle after the
         fill latency, result streamed home at bandwidth cost *)
      let latency = Float.max 1.0 (chain_insns /. 4.0) in
      let cycles = nf +. latency +. 4.0 in
      Boundary.transfer_ns b bytes
      +. Boundary.streaming_transfer_ns b bytes
      +. (cycles *. float_of_int t.fpga_clock_ns)
    else
      (* ~3 cycles per element per unpipelined stage, pipelined overlap *)
      let cycles = nf *. 3.0 +. (3.0 *. float_of_int (List.length chain)) in
      (2.0 *. Boundary.transfer_ns b bytes)
      +. (cycles *. float_of_int t.fpga_clock_ns)

let observed_key (a : Artifact.t) =
  Artifact.uid a ^ "@" ^ Artifact.device_name (Artifact.device a)

(* The cost used for planning: the calibrated model when one is
   installed (falling back to the static estimate), overridden by any
   observed per-element cost recorded when that artifact underperformed
   — [max] so a demotion can only make an artifact less attractive. *)
let effective_cost t ~n (artifact : Artifact.t option)
    (chain : Ir.filter_info list) : float =
  let base =
    match t.cost_model_ with
    | Some f -> f ~n artifact chain
    | None -> estimate_cost t ~n artifact chain
  in
  match artifact with
  | None -> base
  | Some a -> (
    match Hashtbl.find_opt t.observed_ (observed_key a) with
    | Some per_elem -> Float.max base (per_elem *. float_of_int n)
    | None -> base)

let plan_for ?(force_adaptive = false) ?fuse t ~n filters_info =
  let fuse = Option.value fuse ~default:t.fuse_ in
  match t.policy_ with
  | Substitute.Adaptive ->
    Substitute.plan_adaptive ~fuse ~cost:(effective_cost t ~n) t.store_
      filters_info
  | _ when force_adaptive ->
    (* online re-planning under a manual policy: the observed costs
       must be honored or the re-plan would pick the same device *)
    Substitute.plan_adaptive ~fuse ~cost:(effective_cost t ~n) t.store_
      filters_info
  | _ -> Substitute.plan ~fuse t.policy_ t.store_ filters_info

(* --- the failure protocol ---------------------------------------------- *)

(* The paper's safety invariant — "every task always has a CPU
   implementation" (the frontend lowers the whole program to bytecode)
   — makes device artifacts optimizations, never requirements. The
   protocol that enforces it at runtime:

     1. a device launch that raises {!Support.Fault.Device_fault} is
        retried up to [max_retries] times, after rewinding receiver
        state and a modeled exponential backoff;
     2. when retries are exhausted the faulty device is quarantined in
        the store and the segment's filters are re-planned under the
        same policy — the re-plan can only choose still-healthy
        devices, and falls out at bytecode;
     3. re-planned device segments get the same protection, so a run
        terminates even when every device model is failing: each
        fallback removes one device, and the bytecode base case cannot
        fault.

   Real device errors ([Gpu.Simt.Device_error],
   [Rtl.Sim.Simulation_error]) are not retried — they indicate a
   broken artifact, not a transient launch failure, and keep
   propagating to the caller. *)

let trace_fault_event name ~uid ~attempt extra =
  if Trace.enabled () then
    Trace.instant ~cat:"fault"
      ~args:([ "segment", Trace.Str uid; "attempt", Trace.Int attempt ] @ extra)
      name

(* Apply one bytecode filter to a whole batch, in stream order —
   element order is what stateful receivers observe, and a linear
   chain makes filter-at-a-time equivalent to the pipelined actor
   schedule. *)
let bytecode_apply_batch t ((f : Ir.filter_info), receiver) xs =
  let key = filter_fn_key f in
  let span_name = "bc:" ^ f.uid in
  List.map
    (fun x ->
      Trace.with_span ~cat:"vm" span_name (fun () ->
          let args =
            match receiver with
            | Some r -> [ r; I.Prim x ]
            | None -> [ I.Prim x ]
          in
          let r = Bytecode.Vm.run t.vm key args in
          Metrics.add_vm_instructions t.metrics_ r.Bytecode.Vm.executed;
          I.prim_exn r.Bytecode.Vm.value))
    xs

(* Run one device segment over a batch with retries; on exhaustion,
   quarantine the device and re-substitute the segment's filters. *)
let rec run_segment_with_recovery t (artifact : Artifact.t)
    (pairs : (Ir.filter_info * I.v option) list) (xs : V.t list) : V.t list =
  let uid = Artifact.uid artifact in
  let device = Artifact.device artifact in
  let receivers = List.filter_map snd pairs in
  let snaps = List.map snapshot_v receivers in
  let rewind () =
    List.iter2 (fun snap into -> restore_v ~snap ~into) snaps receivers
  in
  let rec attempt k =
    match batch_of_artifact t artifact pairs xs with
    | outputs ->
      (* the segment's code and staging buffers are now on the device:
         record residency so a data-aware scheduler (lib/serve) can
         prefer this device for the next job touching the same chain *)
      Store.note_resident t.store_ ~device ~uid;
      outputs
    | exception Support.Fault.Device_fault info ->
      Metrics.add_device_fault t.metrics_;
      rewind ();
      if k < t.max_retries then begin
        let backoff = t.retry_backoff_ns *. (2.0 ** float_of_int k) in
        Metrics.add_retry t.metrics_ ~backoff_ns:backoff;
        trace_fault_event
          ("retry:" ^ Artifact.device_name device)
          ~uid ~attempt:(k + 1)
          [ "backoff_ns", Trace.Float backoff ];
        (* the backoff is modeled, not slept: the span marks where the
           delay sits on the timeline and carries the modeled ns *)
        if Trace.enabled () then
          Trace.end_span
            (Trace.begin_span ~cat:"backoff"
               ~args:
                 [
                   "backoff_ns", Trace.Float backoff;
                   "attempt", Trace.Int (k + 1);
                 ]
               ("backoff:" ^ Artifact.device_name device));
        attempt (k + 1)
      end
      else begin
        Store.quarantine t.store_ ~device ~reason:info.Support.Fault.f_reason;
        Metrics.add_resubstitution t.metrics_;
        trace_fault_event "resubstitute" ~uid ~attempt:k
          [
            "quarantined", Trace.Str (Artifact.device_name device);
            "reason", Trace.Str info.Support.Fault.f_reason;
          ];
        if Artifact.is_fused_uid uid then begin
          (* unfuse: re-plan each stage separately so the segment falls
             back per stage (and ultimately to per-stage bytecode)
             rather than onto another device's fused artifact *)
          Metrics.add_unfuse t.metrics_;
          if Trace.enabled () then
            Trace.instant ~cat:"unfuse"
              ~args:
                [
                  "device", Trace.Str (Artifact.device_name device);
                  "stages", Trace.Int (List.length pairs);
                ]
              uid;
          run_resubstituted ~fuse:false t pairs xs
        end
        else run_resubstituted t pairs xs
      end
  in
  attempt 0

(* Re-plan a failed (or demoted) segment's filters against the
   quarantined store and execute the new plan inline over the
   collected batch. [force_adaptive] is the online re-planning path:
   plan by effective cost even under a manual policy, so the observed
   underperformance actually changes the placement. [fuse:false] is
   the unfuse path after a fused segment faulted. *)
and run_resubstituted ?force_adaptive ?fuse t
    (pairs : (Ir.filter_info * I.v option) list) (xs : V.t list) : V.t list =
  let filters_info = List.map fst pairs in
  let plan =
    plan_for ?force_adaptive ?fuse t ~n:(List.length xs) filters_info
  in
  let remaining = ref pairs in
  let take n =
    let rec go n acc =
      if n = 0 then List.rev acc
      else
        match !remaining with
        | x :: rest ->
          remaining := rest;
          go (n - 1) (x :: acc)
        | [] -> fail "re-substitution plan misaligned with segment"
    in
    go n []
  in
  List.fold_left
    (fun vals segment ->
      match segment with
      | Substitute.S_bytecode fs ->
        (* a fused filter covers several of the original (filter,
           receiver) pairs but executes as one VM call per element *)
        List.fold_left
          (fun vs (f : Ir.filter_info) ->
            if Artifact.is_fused_uid f.Ir.uid then begin
              ignore (take (List.length (Artifact.fused_members f.Ir.uid)));
              bytecode_apply_batch t (f, None) vs
            end
            else bytecode_apply_batch t (List.hd (take 1)) vs)
          vals fs
      | Substitute.S_device (a, fs) ->
        let pairs' = take (List.length fs) in
        Metrics.add_substitution t.metrics_ (Artifact.chain_uid fs)
          (Artifact.device a);
        run_segment_with_recovery t a pairs' vals)
    xs plan

(* The trace record of one substitution decision: the chosen device
   plus, for each alternative device, whether an artifact existed and
   lost the preference order or was never produced — the "why did my
   chain not run on X" answer. *)
let trace_substitution t ~uid ~filters chosen =
  let chosen_name =
    match chosen with
    | Some d -> Artifact.device_name d
    | None -> "bytecode"
  in
  let rejected =
    List.filter_map
      (fun d ->
        if chosen = Some d then None
        else
          Some
            (Artifact.device_name d ^ ":"
            ^
            match Store.find_on t.store_ ~uid ~device:d with
            | Some _ -> "available"
            | None -> "no-artifact"))
      [ Artifact.Gpu; Artifact.Fpga; Artifact.Native ]
  in
  Trace.instant ~cat:"substitute"
    ~args:
      [
        "device", Trace.Str chosen_name;
        "filters", Trace.Int filters;
        "rejected", Trace.Str (String.concat " " rejected);
      ]
    uid

let run_bound_graph t (bg : bound_graph) : unit =
  let filters_info = List.map fst bg.bg_filters in
  let n = I.array_length bg.bg_source in
  let plan = plan_for t ~n filters_info in
  t.last_plan_ <- Some (Substitute.describe_plan plan);
  (* Record chosen substitutions. *)
  List.iter
    (function
      | Substitute.S_device (a, fs) ->
        let uid = Artifact.chain_uid fs in
        Metrics.add_substitution t.metrics_ uid (Artifact.device a);
        if Trace.enabled () then
          trace_substitution t ~uid ~filters:(List.length fs)
            (Some (Artifact.device a))
      | Substitute.S_bytecode fs ->
        if Trace.enabled () then
          trace_substitution t ~uid:(Artifact.chain_uid fs)
            ~filters:(List.length fs) None)
    plan;
  (* The planned chain's rate signature. Steady-state mode solves its
     SDF balance equations ([Analysis.Rates]) and turns the repetition
     vector into per-actor step budgets plus a schedule-sized FIFO
     capacity, so one sweep drains the whole pipeline without blocked
     probes. Unsolvable graphs (a non-positive rate), empty streams
     and fault-injection runs (re-substitution changes the effective
     rates mid-flight) keep the dynamic round-robin scheduler. *)
  let kinds =
    (`Source
    :: List.concat_map
         (function
           | Substitute.S_bytecode fs -> List.map (fun _ -> `Filter) fs
           | Substitute.S_device _ -> [ `Device ])
         plan)
    @ [ `Sink ]
  in
  (* The solved schedule depends only on the template, the chosen
     plan, the stream shape and the chunk granularity — cache it per
     session so repeated [Exec] runs of the same graph skip rebuilding
     and re-solving the rate graph (common once the planner drives
     repeated solves). Fault-injection runs bypass steady mode (and
     hence the cache) entirely. *)
  let solve_steady_budgets () =
    begin
      let module R = Analysis.Rates in
      let burst_of = function
        | `Source -> bg.bg_rate
        | `Filter | `Sink -> 1
        | `Device -> (
          match t.chunk_elements with Some k -> max k 1 | None -> n)
      in
      let stage = Array.of_list kinds in
      let name i = "s" ^ string_of_int i in
      let edges =
        List.init
          (Array.length stage - 1)
          (fun i ->
            {
              R.e_src = name i;
              e_dst = name (i + 1);
              e_push = Analysis.Interval.of_int (burst_of stage.(i));
              e_pop =
                Analysis.Interval.of_int
                  (match stage.(i + 1) with
                  | `Sink -> 1
                  | k -> burst_of k);
              e_init = 0;
            })
      in
      let g =
        { R.g_actors = List.mapi (fun i _ -> name i) kinds; g_edges = edges }
      in
      match R.solve g with
      | Error _ -> None
      | Ok sched ->
        let reps = Array.of_list (List.map snd sched.R.s_reps) in
        (* Iterations of the steady schedule to move the whole stream:
           the source pushes reps(source) * rate tokens per iteration. *)
        let per_iter = reps.(0) * max bg.bg_rate 1 in
        let iterations = (n + per_iter - 1) / per_iter in
        let budget i kind =
          (* Steps one firing costs in the actor model: sources,
             filters and sinks move one burst per step; a device
             segment collects its pop burst one element per step,
             fires, then emits one element per step. The +4 slack
             absorbs the drain/close steps at end of stream. *)
          let per_firing =
            match kind with
            | `Source | `Filter | `Sink -> 1
            | `Device -> (
              match t.chunk_elements with
              | Some k -> (2 * max k 1) + 1
              | None -> (2 * n) + 1)
          in
          (iterations * reps.(i) * per_firing) + 4
        in
        Some (List.mapi budget kinds)
    end
  in
  let steady_budgets =
    if t.schedule <> Scheduler.Steady_state || n = 0 || Support.Fault.enabled ()
    then None
    else begin
      let key =
        Printf.sprintf "%s|%s|n=%d|rate=%d|chunk=%s" bg.bg_uid
          (Substitute.describe_plan plan)
          n bg.bg_rate
          (match t.chunk_elements with
          | Some k -> string_of_int k
          | None -> "all")
      in
      match Hashtbl.find_opt t.steady_cache_ key with
      | Some cached ->
        Metrics.add_sched_cache_hit t.metrics_;
        cached
      | None ->
        let solved = solve_steady_budgets () in
        Hashtbl.replace t.steady_cache_ key solved;
        solved
    end
  in
  let capacity =
    match steady_budgets with
    | Some _ ->
      (* Size the FIFOs from the schedule so a steady sweep's batched
         bursts fit; the clamp bounds memory on huge streams (the
         sweep then just takes a few extra rounds). *)
      max t.fifo_capacity (min n 4096)
    | None -> t.fifo_capacity
  in
  (* Walk the plan, consuming (filter, receiver) pairs in order. *)
  let remaining = ref bg.bg_filters in
  let take n =
    let rec go n acc =
      if n = 0 then List.rev acc
      else
        match !remaining with
        | x :: rest ->
          remaining := rest;
          go (n - 1) (x :: acc)
        | [] -> fail "substitution plan misaligned with graph"
    in
    go n []
  in
  let channels = ref [] in
  let new_channel () =
    let c = Actor.Channel.create ~capacity in
    channels := (Printf.sprintf "ch%d" (List.length !channels), c) :: !channels;
    c
  in
  let src_ch = new_channel () in
  let elements = unpack_stream bg.bg_source in
  let source = Actor.source ~name:"source" ~rate:bg.bg_rate elements src_ch in
  let actors = ref [ source ] in
  let cur_ch = ref src_ch in
  List.iter
    (fun segment ->
      match segment with
      | Substitute.S_bytecode fs ->
        List.iter
          (fun (f_info : Ir.filter_info) ->
            (* a fused filter consumes its members' (filter, receiver)
               pairs but runs as one actor over the fused function *)
            let pair =
              if Artifact.is_fused_uid f_info.Ir.uid then begin
                ignore
                  (take (List.length (Artifact.fused_members f_info.Ir.uid)));
                f_info, None
              end
              else List.hd (take 1)
            in
            let out = new_channel () in
            actors := bytecode_filter_actor t pair !cur_ch out :: !actors;
            cur_ch := out)
          fs
      | Substitute.S_device (a, fs) ->
        let pairs = take (List.length fs) in
        let out = new_channel () in
        let name =
          Artifact.device_name (Artifact.device a) ^ ":" ^ Artifact.uid a
        in
        (* The launch carries the full failure protocol: retries with
           backoff, then quarantine + re-substitution down to
           bytecode — so a faulty device never wedges the graph.

           With [replan_factor] set it also closes the planning loop:
           each launch's measured modeled service time is compared
           against the cost model's prediction, and a launch that
           underperforms by more than the factor demotes the artifact
           (its observed per-element cost overrides the model) and
           routes the segment's remaining chunks through the mid-run
           re-substitution path. *)
        let demoted = ref false in
        let launch xs =
          if !demoted then run_resubstituted ~force_adaptive:true t pairs xs
          else begin
            let before = modeled_ns t in
            let outputs = run_segment_with_recovery t a pairs xs in
            (match t.replan_factor with
            | Some factor when xs <> [] ->
              let elements = List.length xs in
              let measured = modeled_ns t -. before in
              let predicted = effective_cost t ~n:elements (Some a) fs in
              if predicted > 0.0 && measured > factor *. predicted then begin
                Hashtbl.replace t.observed_ (observed_key a)
                  (measured /. float_of_int elements);
                demoted := true;
                Metrics.add_replan t.metrics_;
                if Trace.enabled () then
                  Trace.instant ~cat:"replan"
                    ~args:
                      [
                        "device",
                          Trace.Str (Artifact.device_name (Artifact.device a));
                        "measured_ns", Trace.Float measured;
                        "predicted_ns", Trace.Float predicted;
                        "factor", Trace.Float factor;
                      ]
                    (Artifact.uid a)
              end
            | _ -> ());
            outputs
          end
        in
        actors :=
          Actor.device_segment ?chunk:t.chunk_elements ~name ~launch !cur_ch
            out
          :: !actors;
        cur_ch := out)
    plan;
  let sink = Actor.sink ~name:"sink" bg.bg_sink !cur_ch in
  actors := sink :: !actors;
  (* Sample every FIFO's occupancy each scheduling round, so the trace
     shows where back-pressure builds up over time. *)
  let sample_channels =
    if not (Trace.enabled ()) then fun _ -> ()
    else
      let named = List.rev !channels in
      fun _round ->
        List.iter
          (fun (name, (c : Actor.Channel.t)) ->
            Trace.counter ("fifo:" ^ name)
              [ "occupancy", float_of_int (Queue.length c.Actor.Channel.q) ])
          named
  in
  Trace.with_span ~cat:"runtime"
    ~args:
      [
        "elements", Trace.Int n;
        "plan", Trace.Str (Substitute.describe_plan plan);
        ( "schedule",
          Trace.Str
            (match steady_budgets with
            | Some _ -> Scheduler.mode_name Scheduler.Steady_state
            | None -> Scheduler.mode_name Scheduler.Round_robin) );
      ]
    "task-graph"
    (fun () ->
      let ordered = List.rev !actors in
      let stats, steady =
        match steady_budgets with
        | Some budgets ->
          ( Scheduler.run_steady ~on_round:sample_channels
              (List.combine ordered budgets),
            true )
        | None -> Scheduler.run ~on_round:sample_channels ordered, false
      in
      Metrics.add_scheduler_run t.metrics_ ~steady
        ~fallback:(t.schedule = Scheduler.Steady_state && not steady)
        ~rounds:stats.Scheduler.rounds ~steps:stats.Scheduler.steps
        ~blocked_steps:stats.Scheduler.blocked_steps)

(* --- lowered map/reduce execution -------------------------------------- *)

(* Kernel sites executed as task graphs ([Lime_ir.Lower_mapreduce]):
   a scatter source splits the array into K chunk descriptors, K
   replicated workers apply the site's function to their chunk on
   whatever device the substitution plan chose, and a gather sink
   reassembles the chunk results (map) or combines the partial folds
   (reduce). This retires the ad-hoc whole-array [run_gpu_map] hook
   path: every policy — including bytecode-only — now routes kernel
   sites through the same plan/actor/steady-state/fault machinery as
   graph templates.

   Cost parity with the legacy single-launch path: arguments cross the
   boundary once (device-side chunk slicing is free, like a kernel
   indexing into an already-resident buffer), chunk launches after the
   first are charged kernel time minus the launch overhead (command
   batching amortizes it), and the assembled result crosses back
   once. *)

(* A contiguous view of a device-resident array: the slicing a kernel
   launch does by offsetting into the buffer. *)
let slice_prim (v : V.t) ~offset ~len : V.t =
  match v with
  | V.Int_array a -> V.Int_array (Array.sub a offset len)
  | V.Float_array a -> V.Float_array (Array.sub a offset len)
  | V.Bool_array a -> V.Bool_array (Array.sub a offset len)
  | V.Array a -> V.Array (Array.sub a offset len)
  | V.Bits b -> V.Bits (Bits.Bitvec.sub b ~pos:offset ~len)
  | v -> fail "cannot slice a %s" (V.type_name v)

type mr_seg = Mr_bytecode | Mr_device of Artifact.t

let mr_seg_of_plan = function
  | [ Substitute.S_device (a, _) ] -> Mr_device a
  | _ -> Mr_bytecode

(* Ship an already-computed result across a boundary with the failure
   protocol. The values are host-visible either way (the crossing is
   marshaling accounting plus a round-trip through the wire codec), so
   on retry exhaustion the transfer is abandoned: quarantine the device
   and answer with the unshipped value rather than losing the run. *)
let mr_ship_home t ?boundary ~uid ~(device : Artifact.device) (v : V.t) : V.t =
  let rec attempt k =
    match ship_to_host ?boundary t v with
    | r -> r
    | exception Support.Fault.Device_fault info ->
      Metrics.add_device_fault t.metrics_;
      if k < t.max_retries then begin
        let backoff = t.retry_backoff_ns *. (2.0 ** float_of_int k) in
        Metrics.add_retry t.metrics_ ~backoff_ns:backoff;
        trace_fault_event
          ("retry:" ^ Artifact.device_name device)
          ~uid ~attempt:(k + 1)
          [ "backoff_ns", Trace.Float backoff ];
        attempt (k + 1)
      end
      else begin
        Store.quarantine t.store_ ~device ~reason:info.Support.Fault.f_reason;
        Metrics.add_resubstitution t.metrics_;
        trace_fault_event "resubstitute" ~uid ~attempt:k
          [
            "quarantined", Trace.Str (Artifact.device_name device);
            "reason", Trace.Str info.Support.Fault.f_reason;
          ];
        v
      end
  in
  attempt 0

(* The shared scatter -> workers -> gather actor graph. [run_chunk ci
   (off, len)] computes chunk [ci]'s result (carrying the full failure
   protocol); [collect ci v] lands it. Steady-state mode solves the
   lowered graph's balance equations — all-ones by construction — and
   runs the whole thing in one budgeted sweep. *)
let run_mr_actors t ~uid ~(bounds : (int * int) list)
    ~(run_chunk : int -> int * int -> V.t) ~(collect : int -> V.t -> unit) :
    unit =
  let k = List.length bounds in
  let cap = t.fifo_capacity in
  let desc_chs = List.init k (fun _ -> Actor.Channel.create ~capacity:cap) in
  let out_chs = List.init k (fun _ -> Actor.Channel.create ~capacity:cap) in
  let scatter =
    let remaining = ref (List.mapi (fun i b -> i, b) bounds) in
    let step () =
      match !remaining with
      | [] ->
        List.iter
          (fun (c : Actor.Channel.t) ->
            if not c.Actor.Channel.closed then Actor.Channel.close c)
          desc_chs;
        Actor.Done
      | (i, (off, len)) :: rest ->
        let ch = List.nth desc_chs i in
        if Actor.Channel.is_full ch then Actor.Blocked
        else begin
          Actor.Channel.push ch (V.Tuple [ V.Int i; V.Int off; V.Int len ]);
          remaining := rest;
          Actor.Progress
        end
    in
    Actor.make ~name:"scatter"
      ~ports:(List.mapi (fun i c -> Printf.sprintf "w%d" i, c) desc_chs)
      step
  in
  let worker i (inp : Actor.Channel.t) (out : Actor.Channel.t) =
    let pending = ref None in
    let step () =
      match !pending with
      | Some v ->
        if Actor.Channel.is_full out then Actor.Blocked
        else begin
          Actor.Channel.push out v;
          pending := None;
          Actor.Progress
        end
      | None -> (
        match Actor.Channel.pop_opt inp with
        | Some (V.Tuple [ V.Int ci; V.Int off; V.Int len ]) ->
          pending := Some (V.Tuple [ V.Int ci; run_chunk ci (off, len) ]);
          Actor.Progress
        | Some _ -> fail "lowered worker: malformed chunk descriptor"
        | None ->
          if Actor.Channel.drained inp then begin
            if not out.Actor.Channel.closed then Actor.Channel.close out;
            Actor.Done
          end
          else Actor.Blocked)
    in
    Actor.make
      ~name:(Printf.sprintf "mrw:%s#%d" uid i)
      ~ports:[ "in", inp; "out", out ]
      step
  in
  let workers =
    List.init k (fun i -> worker i (List.nth desc_chs i) (List.nth out_chs i))
  in
  let gather =
    let step () =
      let popped = ref false in
      List.iter
        (fun c ->
          if not !popped then
            match Actor.Channel.pop_opt c with
            | Some (V.Tuple [ V.Int ci; v ]) ->
              popped := true;
              collect ci v
            | Some _ -> fail "lowered gather: malformed chunk result"
            | None -> ())
        out_chs;
      if !popped then Actor.Progress
      else if List.for_all Actor.Channel.drained out_chs then Actor.Done
      else Actor.Blocked
    in
    Actor.make ~name:"gather"
      ~ports:(List.mapi (fun i c -> Printf.sprintf "w%d" i, c) out_chs)
      step
  in
  let ordered = (scatter :: workers) @ [ gather ] in
  (* Re-substitution changes a fault-injection run's firing pattern
     mid-flight, so those keep round-robin, as in [run_bound_graph]. *)
  let steady =
    t.schedule = Scheduler.Steady_state
    && (not (Support.Fault.enabled ()))
    &&
    match Analysis.Rates.solve (Analysis.Rates.scatter_gather ~workers:k) with
    | Ok _ -> true
    | Error _ -> false
  in
  let stats, ran_steady =
    if steady then
      (* all-ones repetition vector: one descriptor per worker per
         iteration; +1 slack absorbs the close/drain steps *)
      ( Scheduler.run_steady
          ((scatter, k + 1)
          :: (List.map (fun w -> w, 3) workers @ [ gather, k + 1 ])),
        true )
    else Scheduler.run ordered, false
  in
  Metrics.add_scheduler_run t.metrics_ ~steady:ran_steady
    ~fallback:(t.schedule = Scheduler.Steady_state && not ran_steady)
    ~rounds:stats.Scheduler.rounds ~steps:stats.Scheduler.steps
    ~blocked_steps:stats.Scheduler.blocked_steps

(* The per-chunk failure protocol: retry with rewind and backoff, then
   quarantine the chunk's device, drop its shipped argument copies and
   re-plan the worker — remaining chunks (and this one's retry) run on
   the next-best healthy device, bottoming out at bytecode, which
   cannot fault. [seg] is shared across chunks so one quarantine
   redirects the rest of the run. *)
let mr_chunk_with_recovery t ~uid ~n ~(worker : Ir.filter_info)
    ~(seg : mr_seg ref) ~(invalidate : Artifact.device -> unit)
    ~(receivers : I.v list) (compute : unit -> V.t) : V.t =
  let snaps = List.map snapshot_v receivers in
  let rewind () =
    List.iter2 (fun snap into -> restore_v ~snap ~into) snaps receivers
  in
  let rec attempt k =
    match compute () with
    | v -> v
    | exception Support.Fault.Device_fault info -> (
      Metrics.add_device_fault t.metrics_;
      rewind ();
      match !seg with
      | Mr_bytecode ->
        (* bytecode chunks never touch a device or a boundary *)
        raise (Support.Fault.Device_fault info)
      | Mr_device a ->
        let device = Artifact.device a in
        if k < t.max_retries then begin
          let backoff = t.retry_backoff_ns *. (2.0 ** float_of_int k) in
          Metrics.add_retry t.metrics_ ~backoff_ns:backoff;
          trace_fault_event
            ("retry:" ^ Artifact.device_name device)
            ~uid ~attempt:(k + 1)
            [ "backoff_ns", Trace.Float backoff ];
          if Trace.enabled () then
            Trace.end_span
              (Trace.begin_span ~cat:"backoff"
                 ~args:
                   [
                     "backoff_ns", Trace.Float backoff;
                     "attempt", Trace.Int (k + 1);
                   ]
                 ("backoff:" ^ Artifact.device_name device));
          attempt (k + 1)
        end
        else begin
          Store.quarantine t.store_ ~device
            ~reason:info.Support.Fault.f_reason;
          Metrics.add_resubstitution t.metrics_;
          trace_fault_event "resubstitute" ~uid ~attempt:k
            [
              "quarantined", Trace.Str (Artifact.device_name device);
              "reason", Trace.Str info.Support.Fault.f_reason;
            ];
          invalidate device;
          let plan = plan_for t ~n [ worker ] in
          (match plan with
          | [ Substitute.S_device (a', _) ] ->
            Metrics.add_substitution t.metrics_ uid (Artifact.device a')
          | _ -> ());
          seg := mr_seg_of_plan plan;
          attempt 0
        end)
  in
  attempt 0

let mr_record_plan t ~uid plan =
  t.last_plan_ <- Some (Substitute.describe_plan plan);
  List.iter
    (function
      | Substitute.S_device (a, fs) ->
        Metrics.add_substitution t.metrics_ uid (Artifact.device a);
        if Trace.enabled () then
          trace_substitution t ~uid ~filters:(List.length fs)
            (Some (Artifact.device a))
      | Substitute.S_bytecode fs ->
        if Trace.enabled () then
          trace_substitution t ~uid ~filters:(List.length fs) None)
    plan

let mr_span ~uid ~n ~chunks ~plan ~steady f =
  Trace.with_span ~cat:"runtime"
    ~args:
      [
        "elements", Trace.Int n;
        "plan", Trace.Str (Substitute.describe_plan plan);
        "chunks", Trace.Int chunks;
        ( "schedule",
          Trace.Str
            (Scheduler.mode_name
               (if steady then Scheduler.Steady_state
                else Scheduler.Round_robin)) );
      ]
    ("mr:" ^ uid) f

let mr_steady t = t.schedule = Scheduler.Steady_state && not (Support.Fault.enabled ())

(* One lowered map run over a non-empty stream. *)
let run_lowered_map_n t (lw : Lmr.lowered) (site : Ir.map_site)
    (pairs : (I.v * bool) list) (n : int) : I.v =
  let uid = lw.Lmr.lw_uid in
  let worker = lw.Lmr.lw_worker in
  let bounds =
    Lmr.split_bounds ~n
      ~chunks:(Lmr.chunks_for ?override:t.map_chunks ~n lw.Lmr.lw_kind)
  in
  let k = List.length bounds in
  let plan = plan_for t ~n [ worker ] in
  mr_record_plan t ~uid plan;
  Metrics.add_mr_run t.metrics_ ~chunks:k;
  let seg = ref (mr_seg_of_plan plan) in
  (* Device-resident argument copies, shipped once on first use. GPU
     launches ship every argument over the accelerator boundary;
     native ones ship only the mapped arrays over JNI — receivers and
     scalars stay host side, as in [native_batch]. *)
  let gpu_args = ref None in
  let native_args = ref None in
  let gpu_launched = ref false in
  let used_gpu = ref false and used_native = ref false in
  let invalidate = function
    | Artifact.Gpu ->
      gpu_args := None;
      gpu_launched := false
    | Artifact.Native -> native_args := None
    | _ -> ()
  in
  let gpu_ctx () =
    match !gpu_args with
    | Some d -> d
    | None ->
      let d = List.map (fun (a, _) -> ship_to_device t (I.prim_exn a)) pairs in
      gpu_args := Some d;
      d
  in
  let native_ctx () =
    match !native_args with
    | Some d -> d
    | None ->
      let nb = Metrics.native_boundary t.metrics_ in
      let d =
        List.map
          (fun (a, mapped) ->
            if mapped then `Arr (ship_to_device ~boundary:nb t (I.prim_exn a))
            else `Host a)
          pairs
      in
      native_args := Some d;
      d
  in
  let bc_chunk (off, len) =
    Trace.with_span ~cat:"vm" ("bc:" ^ uid) (fun () ->
        let out = I.new_array site.Ir.map_elem_ty len in
        for j = 0 to len - 1 do
          let elt_args =
            List.map
              (fun (a, mapped) ->
                if mapped then I.Prim (I.array_get (I.prim_exn a) (off + j))
                else a)
              pairs
          in
          let r = Bytecode.Vm.run t.vm lw.Lmr.lw_fn elt_args in
          Metrics.add_vm_instructions t.metrics_ r.Bytecode.Vm.executed;
          I.array_set out j (I.prim_exn r.Bytecode.Vm.value)
        done;
        I.freeze out)
  in
  let gpu_chunk (off, len) =
    with_launch_span t ~elements:len ("gpu:" ^ uid) (fun () ->
        let dev = gpu_ctx () in
        let chunk_args =
          List.map2
            (fun d (_, mapped) ->
              if mapped then slice_prim d ~offset:off ~len else d)
            dev pairs
        in
        let result, timing =
          Gpu.Simt.run_map ~device:t.gpu_device
            ~model_divergence:t.model_divergence t.simt site chunk_args
        in
        let overhead = t.gpu_device.Gpu.Device.launch_overhead_ns in
        let ns =
          if !gpu_launched then
            Float.max 0.0 (timing.Gpu.Simt.kernel_ns -. overhead)
          else timing.Gpu.Simt.kernel_ns
        in
        gpu_launched := true;
        used_gpu := true;
        Metrics.add_gpu_kernel t.metrics_ ~ns;
        result)
  in
  let native_chunk (off, len) =
    Support.Fault.check ~device:"native" ~segment:uid;
    with_launch_span t ~elements:len ("native:" ^ uid) (fun () ->
        let shipped = native_ctx () in
        let out = I.new_array site.Ir.map_elem_ty len in
        for j = 0 to len - 1 do
          let elt_args =
            List.map
              (function
                | `Arr d -> I.Prim (I.array_get d (off + j))
                | `Host a -> a)
              shipped
          in
          let r = Bytecode.Vm.run t.vm lw.Lmr.lw_fn elt_args in
          Metrics.add_native_instructions t.metrics_ r.Bytecode.Vm.executed;
          I.array_set out j (I.prim_exn r.Bytecode.Vm.value)
        done;
        used_native := true;
        I.freeze out)
  in
  let receivers =
    List.filter_map
      (fun (a, _) -> match a with I.Obj _ -> Some a | _ -> None)
      pairs
  in
  let run_chunk _ci bound =
    mr_chunk_with_recovery t ~uid ~n ~worker ~seg ~invalidate ~receivers
      (fun () ->
        match !seg with
        | Mr_bytecode -> bc_chunk bound
        | Mr_device (Artifact.Gpu_kernel _) -> gpu_chunk bound
        | Mr_device (Artifact.Native_binary _) -> native_chunk bound
        | Mr_device (Artifact.Fpga_module _) ->
          fail "lowered map %s: no FPGA execution path" uid)
  in
  let staging = I.new_array site.Ir.map_elem_ty n in
  let bound_arr = Array.of_list bounds in
  let collect ci cv =
    let off, len = bound_arr.(ci) in
    for j = 0 to len - 1 do
      I.array_set staging (off + j) (I.array_get cv j)
    done
  in
  mr_span ~uid ~n ~chunks:k ~plan ~steady:(mr_steady t) (fun () ->
      run_mr_actors t ~uid ~bounds ~run_chunk ~collect;
      let result = I.freeze staging in
      let result =
        if !used_gpu then mr_ship_home t ~uid ~device:Artifact.Gpu result
        else if !used_native then
          mr_ship_home t
            ~boundary:(Metrics.native_boundary t.metrics_)
            ~uid ~device:Artifact.Native result
        else result
      in
      I.Prim result)

(* The lowered-map hook: validate exactly what [Vm.eval_map] validates
   and answer [None] on any mismatch, so the VM raises its canonical
   diagnostics ("map needs at least one array argument", "mapped
   arrays have different lengths"). *)
let run_lowered_map t (lw : Lmr.lowered) (site : Ir.map_site)
    (args : I.v list) : I.v option =
  let flags = List.map snd site.Ir.map_args in
  let validated =
    match List.combine args flags with
    | exception Invalid_argument _ -> None
    | pairs -> (
      try
        match
          List.filter_map
            (fun (a, mapped) ->
              if mapped then Some (I.array_length (I.prim_exn a)) else None)
            pairs
        with
        | [] -> None
        | n :: rest when List.for_all (Int.equal n) rest -> Some (pairs, n)
        | _ -> None
      with _ -> None)
  in
  match validated with
  | None -> None
  | Some (_, 0) ->
    (* [eval_map]'s empty-stream result: a frozen empty array *)
    Some (I.Prim (I.freeze (I.new_array site.Ir.map_elem_ty 0)))
  | Some (pairs, n) -> Some (run_lowered_map_n t lw site pairs n)

(* Whether the algebraic analysis proves the combiner associative and
   commutative — the licence for chunked tree combining. Memoized per
   function key: the verdict depends on the combiner alone, and
   [Exec.create] shares one program across every run. *)
let combiner_assoc t (fn_key : string) : bool =
  match Hashtbl.find_opt t.assoc_memo_ fn_key with
  | Some b -> b
  | None ->
    let b = Analysis.Algebra.is_assoc_comm (program t) fn_key in
    Hashtbl.add t.assoc_memo_ fn_key b;
    b

(* One lowered reduce run over a non-empty array. Chunks fold
   left-to-right within themselves (the GPU reduce folds values in
   array order precisely so this stays bit-identical); partials are
   combined on the host pair-wise as a tree. The default is one chunk
   unless the algebraic analysis proves the combiner associative and
   commutative — then regrouping is bit-identical by the reassociation
   contract (docs/ANALYSIS.md) and the reduce chunks like a map;
   [reduce_chunks] still forces a count either way. *)
let run_lowered_reduce_n t (lw : Lmr.lowered) (site : Ir.reduce_site)
    (host : V.t) (n : int) : I.v =
  let uid = lw.Lmr.lw_uid in
  let worker = lw.Lmr.lw_worker in
  let bounds =
    Lmr.split_bounds ~n
      ~chunks:
        (Lmr.chunks_for ?override:t.reduce_chunks
           ~assoc:(combiner_assoc t lw.Lmr.lw_fn)
           ~n lw.Lmr.lw_kind)
  in
  let k = List.length bounds in
  let plan = plan_for t ~n [ worker ] in
  mr_record_plan t ~uid plan;
  Metrics.add_mr_run t.metrics_ ~chunks:k;
  let seg = ref (mr_seg_of_plan plan) in
  let gpu_arg = ref None in
  let native_arg = ref None in
  let gpu_launched = ref false in
  (* which boundary each partial must cross to reach the host combine *)
  let partial_home = Array.make k `Host in
  let invalidate = function
    | Artifact.Gpu ->
      gpu_arg := None;
      gpu_launched := false
    | Artifact.Native -> native_arg := None
    | _ -> ()
  in
  let gpu_ctx () =
    match !gpu_arg with
    | Some d -> d
    | None ->
      let d = ship_to_device t host in
      gpu_arg := Some d;
      d
  in
  let native_ctx () =
    match !native_arg with
    | Some d -> d
    | None ->
      let nb = Metrics.native_boundary t.metrics_ in
      let d = ship_to_device ~boundary:nb t host in
      native_arg := Some d;
      d
  in
  let vm_fold ~account arr (off, len) =
    let acc = ref (I.Prim (I.array_get arr off)) in
    for j = 1 to len - 1 do
      let r =
        Bytecode.Vm.run t.vm lw.Lmr.lw_fn
          [ !acc; I.Prim (I.array_get arr (off + j)) ]
      in
      account r.Bytecode.Vm.executed;
      acc := r.Bytecode.Vm.value
    done;
    I.prim_exn !acc
  in
  let bc_chunk bound =
    Trace.with_span ~cat:"vm" ("bc:" ^ uid) (fun () ->
        vm_fold ~account:(Metrics.add_vm_instructions t.metrics_) host bound)
  in
  let gpu_chunk ci (off, len) =
    with_launch_span t ~elements:len ("gpu:" ^ uid) (fun () ->
        let dev = slice_prim (gpu_ctx ()) ~offset:off ~len in
        let result, timing =
          Gpu.Simt.run_reduce ~device:t.gpu_device
            ~model_divergence:t.model_divergence t.simt site dev
        in
        let overhead = t.gpu_device.Gpu.Device.launch_overhead_ns in
        let ns =
          if !gpu_launched then
            Float.max 0.0 (timing.Gpu.Simt.kernel_ns -. overhead)
          else timing.Gpu.Simt.kernel_ns
        in
        gpu_launched := true;
        partial_home.(ci) <- `Gpu;
        Metrics.add_gpu_kernel t.metrics_ ~ns;
        result)
  in
  let native_chunk ci bound =
    Support.Fault.check ~device:"native" ~segment:uid;
    with_launch_span t ~elements:(snd bound) ("native:" ^ uid) (fun () ->
        let r =
          vm_fold
            ~account:(Metrics.add_native_instructions t.metrics_)
            (native_ctx ()) bound
        in
        partial_home.(ci) <- `Native;
        r)
  in
  let run_chunk ci bound =
    mr_chunk_with_recovery t ~uid ~n ~worker ~seg ~invalidate ~receivers:[]
      (fun () ->
        partial_home.(ci) <- `Host;
        match !seg with
        | Mr_bytecode -> bc_chunk bound
        | Mr_device (Artifact.Gpu_kernel _) -> gpu_chunk ci bound
        | Mr_device (Artifact.Native_binary _) -> native_chunk ci bound
        | Mr_device (Artifact.Fpga_module _) ->
          fail "lowered reduce %s: no FPGA execution path" uid)
  in
  let partials = Array.make k None in
  let collect ci v = partials.(ci) <- Some v in
  mr_span ~uid ~n ~chunks:k ~plan ~steady:(mr_steady t) (fun () ->
      run_mr_actors t ~uid ~bounds ~run_chunk ~collect;
      (* Device partials come home batched: one packed readback per
         boundary rather than one crossing per chunk, the same
         single-transfer shape as the map path's gathered result — at
         K > 1 a per-partial crossing would charge K boundary
         latencies where the legacy whole-array reduce pays one. *)
      let resolved = Array.make k None in
      let ship_batch ?boundary ~(device : Artifact.device) sel =
        let group =
          List.filter_map
            (fun ci ->
              match partials.(ci) with
              | Some v when partial_home.(ci) = sel -> Some (ci, v)
              | _ -> None)
            (List.init k Fun.id)
        in
        match group with
        | [] -> ()
        | [ (ci, v) ] ->
          resolved.(ci) <- Some (mr_ship_home t ?boundary ~uid ~device v)
        | group ->
          let buf = I.new_array site.Ir.red_elem_ty (List.length group) in
          List.iteri (fun j (_, v) -> I.array_set buf j v) group;
          let shipped = mr_ship_home t ?boundary ~uid ~device (I.freeze buf) in
          List.iteri
            (fun j (ci, _) -> resolved.(ci) <- Some (I.array_get shipped j))
            group
      in
      Array.iteri
        (fun ci p ->
          match p, partial_home.(ci) with
          | Some v, `Host -> resolved.(ci) <- Some v
          | _ -> ())
        partials;
      ship_batch ~device:Artifact.Gpu `Gpu;
      ship_batch
        ~boundary:(Metrics.native_boundary t.metrics_)
        ~device:Artifact.Native `Native;
      let part ci =
        match resolved.(ci) with
        | Some v -> v
        | None -> fail "lowered reduce %s: chunk %d produced no partial" uid ci
      in
      (* Pair-wise tree combine of the per-chunk partials, the same
         shape a device-side reduction uses. For a proven-associative
         combiner this is bit-identical to the sequential fold; a
         forced [reduce_chunks] opted into reassociation already. *)
      let combine a b =
        let r =
          Trace.with_span ~cat:"vm" ("bc:" ^ uid) (fun () ->
              Bytecode.Vm.run t.vm lw.Lmr.lw_fn [ a; b ])
        in
        Metrics.add_vm_instructions t.metrics_ r.Bytecode.Vm.executed;
        r.Bytecode.Vm.value
      in
      let rec pair_round = function
        | a :: b :: rest -> combine a b :: pair_round rest
        | tail -> tail
      in
      let rec tree = function
        | [] -> fail "lowered reduce %s: no partials" uid
        | [ v ] -> v
        | vs -> tree (pair_round vs)
      in
      tree (List.init k (fun ci -> I.Prim (part ci))))

let run_lowered_reduce t (lw : Lmr.lowered) (site : Ir.reduce_site)
    (arg : I.v) : I.v option =
  match (try Some (I.prim_exn arg, I.array_length (I.prim_exn arg)) with _ -> None)
  with
  | None | Some (_, 0) ->
    (* malformed or empty: the VM raises its canonical diagnostics
       ("reduce of an empty array") *)
    None
  | Some (host, n) -> Some (run_lowered_reduce_n t lw site host n)

(* --- VM hooks ---------------------------------------------------------- *)

(* The hook-path version of the failure protocol: a faulting GPU
   map/reduce launch is retried with backoff, and on exhaustion the
   device is quarantined and the hook answers [None] — the VM then
   interprets the site inline, which is exactly the bytecode
   fallback. *)
let hook_with_recovery t ~uid (f : unit -> I.v) : I.v option =
  let rec attempt k =
    match f () with
    | r -> Some r
    | exception Support.Fault.Device_fault info ->
      Metrics.add_device_fault t.metrics_;
      if k < t.max_retries then begin
        let backoff = t.retry_backoff_ns *. (2.0 ** float_of_int k) in
        Metrics.add_retry t.metrics_ ~backoff_ns:backoff;
        trace_fault_event "retry:gpu" ~uid ~attempt:(k + 1)
          [ "backoff_ns", Trace.Float backoff ];
        if Trace.enabled () then
          Trace.end_span
            (Trace.begin_span ~cat:"backoff"
               ~args:
                 [
                   "backoff_ns", Trace.Float backoff;
                   "attempt", Trace.Int (k + 1);
                 ]
               "backoff:gpu");
        attempt (k + 1)
      end
      else begin
        Store.quarantine t.store_ ~device:Artifact.Gpu
          ~reason:info.Support.Fault.f_reason;
        Metrics.add_resubstitution t.metrics_;
        trace_fault_event "resubstitute" ~uid ~attempt:k
          [
            "quarantined", Trace.Str "gpu";
            "reason", Trace.Str info.Support.Fault.f_reason;
          ];
        None
      end
  in
  attempt 0

let hooks t : Bytecode.Vm.hooks =
  (* The legacy direct-dispatch path (--no-lower-mapreduce): a
     whole-array GPU launch when the policy allows it, inline VM
     interpretation otherwise. Kept as the differential baseline the
     lowered path is proven bit-identical against. *)
  let legacy_map desc args =
    if not (gpu_allowed t) then None
    else
      let uid = desc.Bytecode.Insn.bm_uid in
      match Store.find_on t.store_ ~uid ~device:Artifact.Gpu with
      | Some (Artifact.Gpu_kernel { ga_kind = Artifact.G_map site; _ }) ->
        hook_with_recovery t ~uid (fun () -> run_gpu_map t site args)
      | Some _ | None -> None
  in
  let legacy_reduce desc arg =
    if not (gpu_allowed t) then None
    else
      let uid = desc.Bytecode.Insn.br_uid in
      match Store.find_on t.store_ ~uid ~device:Artifact.Gpu with
      | Some (Artifact.Gpu_kernel { ga_kind = Artifact.G_reduce site; _ }) ->
        hook_with_recovery t ~uid (fun () -> run_gpu_reduce t site arg)
      | Some _ | None -> None
  in
  {
    Bytecode.Vm.on_map =
      (fun desc args ->
        let uid = desc.Bytecode.Insn.bm_uid in
        match
          if t.lower_mapreduce then Ir.String_map.find_opt uid t.mr_sites
          else None
        with
        | Some ({ Lmr.lw_kind = Lmr.K_map site; _ } as lw) ->
          run_lowered_map t lw site args
        | Some _ | None -> legacy_map desc args);
    on_reduce =
      (fun desc arg ->
        let uid = desc.Bytecode.Insn.br_uid in
        match
          if t.lower_mapreduce then Ir.String_map.find_opt uid t.mr_sites
          else None
        with
        | Some ({ Lmr.lw_kind = Lmr.K_reduce site; _ } as lw) ->
          run_lowered_reduce t lw site arg
        | Some _ | None -> legacy_reduce desc arg);
    on_run_graph =
      Some
        (fun template ops ~blocking ->
          (* start() and finish() both run the graph to completion in
             this cooperative runtime; see DESIGN.md section 5. *)
          ignore blocking;
          run_bound_graph t (bound_graph_of template ops);
          true);
  }

(* The whole entry-point invocation runs under one `run` root span:
   the report layer anchors critical-path and attribution analysis on
   these roots (self-time is host bytecode interpretation). *)
let call t key args =
  Trace.with_span ~cat:"run" ("run:" ^ key) (fun () ->
      let r = Bytecode.Vm.run ~hooks:(hooks t) t.vm key args in
      Metrics.add_vm_instructions t.metrics_ r.Bytecode.Vm.executed;
      r.Bytecode.Vm.value)

(* --- calibration entry (used by Placement) ----------------------------- *)

let artifact_chain (a : Artifact.t) =
  match a with
  | Artifact.Gpu_kernel { ga_kind = Artifact.G_filter_chain fs; _ } -> Some fs
  | Artifact.Gpu_kernel _ -> None
  | Artifact.Fpga_module f -> Some f.Artifact.fa_filters
  | Artifact.Native_binary n -> Some n.Artifact.na_filters

(* One raw device launch over a synthetic batch, full boundary path
   included — the microbenchmark the placement calibrator wraps in
   [modeled_ns] deltas. Static chains run receiverless; stateful
   chains pass fabricated receiver objects via [receivers] (one
   [option] per filter, in chain order), built by the calibrator from
   the IR's class declarations. *)
let calibrate_batch ?receivers t (artifact : Artifact.t) (xs : V.t list) :
    V.t list =
  match artifact_chain artifact with
  | None ->
    fail "calibrate_batch: artifact %s is not a filter chain"
      (Artifact.uid artifact)
  | Some fs ->
    let pairs =
      match receivers with
      | Some rs when List.length rs = List.length fs -> List.combine fs rs
      | Some _ ->
        fail "calibrate_batch: receiver list misaligned with chain %s"
          (Artifact.uid artifact)
      | None -> List.map (fun f -> f, None) fs
    in
    batch_of_artifact t artifact pairs xs
