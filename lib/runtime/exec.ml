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
      (** the same bytecode, specialised for the SIMT simulator's work
          items on first launch *)
  fifo_capacity : int;
  metrics_ : Metrics.t;
  chunk_elements : int option;
      (** device-launch granularity; [None] batches the whole stream *)
  max_retries : int;
      (** device-launch retries after a fault, before re-substitution *)
  mutable last_plan_ : string option;
  mutable cost_model_ : cost_model option;
      (** calibrated per-segment cost predictor (e.g. from
          [Placement]); when absent, the analytic model
          ([analytic_cost]) stands in *)
  replan_factor : float option;
      (** online re-planning: when a device segment's measured modeled
          service time exceeds the prediction by more than this
          factor, demote the artifact and re-substitute mid-run *)
  observed_ : (string, float) Hashtbl.t;
      (** per-artifact observed per-element cost (ns), recorded when a
          launch underperforms its model; overrides the prediction in
          subsequent planning *)
  steady_cache_ : (string, int list option) Hashtbl.t;
      (** solved step budgets per (template, plan, stream-shape) key,
          so repeated [Exec] runs of the same graph skip rebuilding and
          re-solving the rate graph *)
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
    ?(gpu_device = Gpu.Device.gtx580) ?(fifo_capacity = 16) ?chunk_elements
    ?(max_retries = 2) ?cost_model ?replan_factor ?map_chunks ?reduce_chunks
    unit_ store_ =
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
    simt = Gpu.Simt.prepare unit_;
    fifo_capacity;
    metrics_ = Metrics.create ();
    chunk_elements;
    max_retries;
    last_plan_ = None;
    cost_model_ = cost_model;
    replan_factor;
    observed_ = Hashtbl.create 16;
    steady_cache_ = Hashtbl.create 16;
    mr_sites = Lmr.lower_program unit_.Bytecode.Compile.u_program;
    map_chunks;
    reduce_chunks;
    assoc_memo_ = Hashtbl.create 8;
  }

let set_policy t p = t.policy_ <- p
let fusing t = t.fuse_
let set_cost_model t f = t.cost_model_ <- Some f
let observed_costs t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.observed_ []
let gpu_device t = t.gpu_device
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

(* The rewind of a launch's [receivers] to their state now. *)
let rewinder (receivers : I.v list) =
  let snaps = List.map snapshot_v receivers in
  fun () -> List.iter2 (fun snap into -> restore_v ~snap ~into) snaps receivers

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

(* --- task-graph co-execution ------------------------------------------ *)

let filter_fn_key (f : Ir.filter_info) =
  match f.target with
  | Ir.F_static key -> key
  | Ir.F_instance (cls, m) -> cls ^ "." ^ m

(* Filters by function key, each with its receiver for an instance
   filter. *)
let vm_filters (filters : (Ir.filter_info * I.v option) list) =
  List.map (fun (f, receiver) -> filter_fn_key f, receiver) filters

(* A bytecode filter's per-element function, charged to the CPU model,
   under a "bc:" span. *)
let bytecode_apply t (((f : Ir.filter_info), _) as pair) =
  let chain = Bytecode.Vm.chain t.vm (vm_filters [ pair ]) in
  let charge = Metrics.add_vm_instructions t.metrics_ in
  let span_name = "bc:" ^ f.uid in
  fun x ->
    Trace.with_span ~cat:"vm" span_name (fun () -> Bytecode.Vm.apply chain charge x)

let bytecode_filter_actor t (((f : Ir.filter_info), _) as pair) inp out =
  Actor.filter ~name:("bc:" ^ f.uid) ~f:(bytecode_apply t pair) inp out

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
let gpu_batch t (artifact : Artifact.gpu_artifact) (xs : V.t list) : V.t list =
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
  let fused = Artifact.is_fused_uid artifact.ga_uid in
  if fused then fused_prelude t ~device:"gpu" artifact.ga_uid;
  with_launch_span t ~elements:(List.length xs) ("gpu:" ^ artifact.ga_uid)
    (fun () ->
      let packed = pack_stream input_ty xs in
      let dev_input = ship_to_device t packed in
      let result, timing =
        Gpu.Simt.run_filter_chain ~device:t.gpu_device ~uid:artifact.ga_uid
          t.simt ~chain ~output_ty dev_input
      in
      Metrics.add_gpu_kernel t.metrics_ ~ns:timing.Gpu.Simt.kernel_ns;
      unpack_stream (ship_to_host ~streaming:fused t result))

(* An FPGA-substituted segment: bind the artifact's synthesized
   pipeline to the segment's receivers (stateful receivers become
   register files) and the engine's FIFO depth, and run it in the RTL
   simulator. A fused module's single stage has no receiver. Its
   stages evaluate on the engine's VM and charge nothing there: the
   FPGA model charges the simulated cycles instead. *)
let fpga_batch t (artifact : Artifact.fpga_artifact)
    (filters : (Ir.filter_info * I.v option) list) (xs : V.t list) : V.t list =
  let fused = Artifact.is_fused_uid artifact.fa_uid in
  if fused then fused_prelude t ~device:"fpga" artifact.fa_uid;
  with_launch_span t ~elements:(List.length xs) ("fpga:" ^ artifact.fa_uid)
    (fun () ->
      let synthesized = artifact.fa_pipeline in
      let stages =
        if fused then synthesized.Rtl.Netlist.pl_stages
        else
          List.map2
            (fun (st : Rtl.Netlist.stage) (_, receiver) ->
              { st with st_state = receiver })
            synthesized.pl_stages filters
      in
      let pipeline =
        { synthesized with pl_stages = stages; pl_fifo_depth = t.fifo_capacity }
      in
      let input_ty = Rtl.Netlist.input_ty pipeline in
      let packed = pack_stream input_ty xs in
      let dev_input = unpack_stream (ship_to_device t packed) in
      let chains =
        List.map
          (fun (st : Rtl.Netlist.stage) ->
            st, Bytecode.Vm.chain t.vm [ st.st_fn, st.st_state ])
          stages
      in
      let eval (st : Rtl.Netlist.stage) x =
        Bytecode.Vm.apply (List.assq st chains) ignore x
      in
      let outputs, stats = Rtl.Sim.run ~eval pipeline dev_input in
      Metrics.add_fpga_run t.metrics_ ~cycles:stats.Rtl.Sim.cycles
        ~ns:(float_of_int (stats.Rtl.Sim.cycles * Rtl.Sim.clock_ns));
      let out_packed = pack_stream (Rtl.Netlist.output_ty pipeline) outputs in
      unpack_stream (ship_to_host ~streaming:fused t out_packed))

(* A chunk's fresh output array as a value: flat arrays are already
   one, so only bit and boxed arrays pay [I.freeze]'s copy. *)
let frozen (out : V.t) : V.t =
  match out with
  | V.Int_array _ | V.Float_array _ | V.Bool_array _ -> out
  | _ -> I.freeze out

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
      let dev_input = ship_to_device ~boundary:nb t packed in
      let outputs = I.new_array output_ty (I.array_length dev_input) in
      Bytecode.Vm.apply_all t.vm (vm_filters filters)
        (Metrics.add_native_instructions t.metrics_)
        dev_input ~into:outputs;
      unpack_stream (ship_to_host ~boundary:nb t (frozen outputs)))

let batch_of_artifact t (artifact : Artifact.t) pairs xs =
  match artifact with
  | Artifact.Gpu_kernel g -> gpu_batch t g xs
  | Artifact.Fpga_module f -> fpga_batch t f pairs xs
  | Artifact.Native_binary n -> native_batch t n pairs xs

(* --- the analytic cost model -------------------------------------------- *)

(* Cost-driven placement (paper section 7, future work: "runtime
   introspection and adaptation of the task-graph partitioning so that
   tasks run where they are best suited"). Static code size stands in
   for per-element dynamic instructions, except for a kernel-site
   worker: its body frequently *is* a loop (matmul's dot product,
   nbody's force accumulation), and a flat count would underestimate
   it by the trip count and invert the device ordering, so it takes
   the loop- and call-aware estimate. *)
let chain_insns t (chain : Ir.filter_info list) =
  let site =
    match chain with
    | [ f ] -> Ir.String_map.find_opt f.Ir.uid t.mr_sites
    | _ -> None
  in
  match site with
  | Some lw -> Lmr.weighted_insns (program t) lw.Lmr.lw_fn
  | None ->
    List.fold_left
      (fun acc f ->
        match
          Ir.String_map.find_opt (filter_fn_key f)
            t.unit_.Bytecode.Compile.u_funcs
        with
        | Some code -> acc + Array.length code.Bytecode.Compile.c_insns
        | None -> acc + 16)
      0 chain

let elem_bytes (chain : Ir.filter_info list) =
  match chain with
  | { Ir.input = Ir.Bool | Ir.Bit; _ } :: _ -> 1.0
  | _ -> 4.0

(* Instruction counts under the per-device ns/insn constants, plus
   launch overhead and boundary latency as the fixed cost and boundary
   bandwidth as a per-element cost. A fused kernel streams its result
   home (no return-trip latency); the fused FPGA pipeline also runs at
   initiation interval 1, paying the chain depth once as fill
   latency. *)
let analytic_cost t (artifact : Artifact.t option)
    (chain : Ir.filter_info list) : float * float =
  let insns = float_of_int (chain_insns t chain) in
  let eb = elem_bytes chain in
  let latency b = Boundary.transfer_ns b 0 in
  let per_byte b = (Boundary.transfer_ns b 4096 -. latency b) /. 4096.0 in
  let clock = float_of_int Rtl.Sim.clock_ns in
  match artifact with
  | None -> (insns *. Metrics.cpu_ns_per_instruction, 0.0)
  | Some (Artifact.Native_binary _) ->
    let b = Metrics.native_boundary t.metrics_ in
    ( (insns *. Metrics.native_ns_per_instruction) +. (2.0 *. per_byte b *. eb),
      2.0 *. latency b )
  | Some (Artifact.Gpu_kernel g) ->
    let b = Metrics.boundary t.metrics_ in
    let lanes = float_of_int (Gpu.Device.total_lanes t.gpu_device) in
    ( Gpu.Device.cycles_to_ns t.gpu_device (insns /. lanes)
      +. (2.0 *. per_byte b *. eb),
      ((if Artifact.is_fused_uid g.Artifact.ga_uid then 1.0 else 2.0)
      *. latency b)
      +. t.gpu_device.Gpu.Device.launch_overhead_ns )
  | Some (Artifact.Fpga_module f) ->
    let b = Metrics.boundary t.metrics_ in
    if Artifact.is_fused_uid f.Artifact.fa_uid then
      let fill = Float.max 1.0 (insns /. 4.0) in
      ( clock +. (2.0 *. per_byte b *. eb),
        latency b +. ((fill +. 4.0) *. clock) )
    else
      ( (3.0 *. clock) +. (2.0 *. per_byte b *. eb),
        (2.0 *. latency b)
        +. (3.0 *. float_of_int (List.length chain) *. clock) )

let observed_key (a : Artifact.t) =
  Artifact.uid a ^ "@" ^ Artifact.device_name (Artifact.device a)

(* The cost used for planning: the calibrated model when one is
   installed (falling back to the analytic model), overridden by any
   observed per-element cost recorded when that artifact underperformed
   — [max] so a demotion can only make an artifact less attractive. *)
let effective_cost t ~n (artifact : Artifact.t option)
    (chain : Ir.filter_info list) : float =
  let base =
    match t.cost_model_ with
    | Some f -> f ~n artifact chain
    | None ->
      let per_elem, overhead = analytic_cost t artifact chain in
      overhead +. (per_elem *. float_of_int n)
  in
  match artifact with
  | None -> base
  | Some a -> (
    match Hashtbl.find_opt t.observed_ (observed_key a) with
    | Some per_elem -> Float.max base (per_elem *. float_of_int n)
    | None -> base)

(* [force_adaptive] is online re-planning under a manual policy: the
   observed costs must be honored or the re-plan would pick the same
   device. *)
let plan_for ?(force_adaptive = false) ?fuse t ~n filters_info =
  Substitute.plan
    ~fuse:(Option.value fuse ~default:t.fuse_)
    ~cost:(effective_cost t ~n)
    (if force_adaptive then Substitute.Adaptive else t.policy_)
    t.store_ filters_info

(* How a plan runs a chain's (filter, receiver) pairs: every filter of
   a bytecode segment on the VM, each with its pair, and every device
   segment with the pairs of its filters. A fused bytecode filter
   consumes its members' pairs and runs without a receiver. *)
type step =
  | On_vm of (Ir.filter_info * I.v option)
  | On_device of
      Artifact.t * Ir.filter_info list * (Ir.filter_info * I.v option) list

let plan_steps plan (pairs : (Ir.filter_info * I.v option) list) : step list =
  let rec take n acc pairs =
    if n = 0 then List.rev acc, pairs
    else
      match pairs with
      | x :: rest -> take (n - 1) (x :: acc) rest
      | [] -> fail "substitution plan misaligned with its filters"
  in
  let on_vm (steps, pairs) (f : Ir.filter_info) =
    if Artifact.is_fused_uid f.Ir.uid then
      let _, pairs =
        take (List.length (Artifact.fused_members f.Ir.uid)) [] pairs
      in
      On_vm (f, None) :: steps, pairs
    else
      let mine, pairs = take 1 [] pairs in
      On_vm (List.hd mine) :: steps, pairs
  in
  let add acc = function
    | Substitute.S_bytecode fs -> List.fold_left on_vm acc fs
    | Substitute.S_device (a, fs) ->
      let steps, pairs = acc in
      let mine, pairs = take (List.length fs) [] pairs in
      On_device (a, fs, mine) :: steps, pairs
  in
  List.rev (fst (List.fold_left add ([], pairs) plan))

(* --- the failure protocol ---------------------------------------------- *)

(* The paper's safety invariant — "every task always has a CPU
   implementation" (the frontend lowers the whole program to bytecode)
   — makes device artifacts optimizations, never requirements. The
   protocol that enforces it at runtime, [with_recovery]:

     1. a device launch that raises {!Support.Fault.Device_fault} is
        retried up to [max_retries] times, after rewinding receiver
        state and a modeled exponential backoff;
     2. when retries are exhausted the faulty device is quarantined in
        the store and the caller falls back: a graph segment is
        re-planned under the same policy (stage by stage, if it was
        fused), a lowered chunk re-plans its worker, and a lowered
        result's trip home is abandoned. A re-plan can only choose
        still-healthy devices, and falls out at bytecode;
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

(* The base of the modeled exponential backoff, in ns. *)
let retry_backoff_ns = 1000.0

(* Run [f] on [device] under the protocol: every fault is counted and
   [rewind] runs; attempt [k] then retries after a backoff of
   [retry_backoff_ns * 2^k] modeled ns, and once [max_retries] are
   spent the device is quarantined and [exhausted ()] answers
   instead. *)
let with_recovery t ~uid ~(device : Artifact.device) ?(rewind = ignore)
    ~exhausted f =
  let name = Artifact.device_name device in
  let rec attempt k =
    match f () with
    | r -> r
    | exception Support.Fault.Device_fault info ->
      Metrics.add_device_fault t.metrics_;
      rewind ();
      if k < t.max_retries then begin
        let backoff = retry_backoff_ns *. (2.0 ** float_of_int k) in
        Metrics.add_retry t.metrics_ ~backoff_ns:backoff;
        trace_fault_event ("retry:" ^ name) ~uid ~attempt:(k + 1)
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
               ("backoff:" ^ name));
        attempt (k + 1)
      end
      else begin
        Store.quarantine t.store_ ~device ~reason:info.Support.Fault.f_reason;
        Metrics.add_resubstitution t.metrics_;
        trace_fault_event "resubstitute" ~uid ~attempt:k
          [
            "quarantined", Trace.Str name;
            "reason", Trace.Str info.Support.Fault.f_reason;
          ];
        exhausted ()
      end
  in
  attempt 0

(* Run one device segment over a batch with retries; on exhaustion,
   re-substitute the segment's filters. *)
let rec run_segment_with_recovery t (artifact : Artifact.t)
    (pairs : (Ir.filter_info * I.v option) list) (xs : V.t list) : V.t list =
  let uid = Artifact.uid artifact in
  let device = Artifact.device artifact in
  with_recovery t ~uid ~device
    ~rewind:(rewinder (List.filter_map snd pairs))
    ~exhausted:(fun () ->
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
      else run_resubstituted t pairs xs)
    (fun () ->
      let outputs = batch_of_artifact t artifact pairs xs in
      (* the segment's code and staging buffers are now on the device:
         record residency so a data-aware scheduler (lib/serve) can
         prefer this device for the next job touching the same chain *)
      Store.note_resident t.store_ ~device ~uid;
      outputs)

(* Re-plan a failed (or demoted) segment's filters against the
   quarantined store and execute the new plan inline over the
   collected batch. [force_adaptive] is the online re-planning path:
   plan by effective cost even under a manual policy, so the observed
   underperformance actually changes the placement. [fuse:false] is
   the unfuse path after a fused segment faulted. *)
and run_resubstituted ?force_adaptive ?fuse t
    (pairs : (Ir.filter_info * I.v option) list) (xs : V.t list) : V.t list =
  let plan =
    plan_for ?force_adaptive ?fuse t ~n:(List.length xs) (List.map fst pairs)
  in
  List.fold_left
    (fun vals -> function
      | On_vm pair ->
        (* One filter at a time over the whole batch, in stream order:
           element order is what stateful receivers observe, and a
           linear chain makes this equivalent to the pipelined actor
           schedule. *)
        List.map (bytecode_apply t pair) vals
      | On_device (a, fs, pairs) ->
        Metrics.add_substitution t.metrics_ (Artifact.chain_uid fs)
          (Artifact.device a);
        run_segment_with_recovery t a pairs vals)
    xs (plan_steps plan pairs)

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

(* Record a chosen plan: the engine's last plan, a counted
   substitution per device segment, and a trace record per segment. A
   kernel site's worker chain is one filter whose uid is the site's,
   so graph segments and kernel sites record alike. Answers the plan's
   description, rendered once per run. *)
let record_plan t plan =
  let described = Substitute.describe_plan plan in
  t.last_plan_ <- Some described;
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
  described

let run_bound_graph t (g : Bytecode.Vm.graph) : unit =
  let n = I.array_length g.g_source in
  let plan = plan_for t ~n (List.map fst g.g_filters) in
  let described = record_plan t plan in
  let steps = plan_steps plan g.g_filters in
  (* The planned chain's rate signature. Its SDF balance equations
     ([Analysis.Rates]) give a repetition vector, which becomes
     per-actor step budgets plus a schedule-sized FIFO capacity, so one
     sweep drains the whole pipeline without blocked probes. A
     re-substituted device segment keeps its actor and its rates, so a
     fault cannot make the budgets wrong. Only a chain with no solution
     (a non-positive source rate, which wedges) steps every actor once
     per round. *)
  let kinds =
    (`Source
    :: List.map (function On_vm _ -> `Filter | On_device _ -> `Device) steps)
    @ [ `Sink ]
  in
  let solve_budgets () =
    let burst_of = function
      | `Source -> g.g_rate
      | `Filter | `Sink -> 1
      | `Device -> (
        match t.chunk_elements with Some k -> max k 1 | None -> max n 1)
    in
    (* Steps one firing costs in the actor model: sources, filters and
       sinks move one burst per step; a device segment collects its pop
       burst one element per step, fires, then emits one element per
       step. The +4 slack absorbs the drain/close steps at end of
       stream. *)
    let budget kind firings =
      let per_firing =
        match kind with
        | `Source | `Filter | `Sink -> 1
        | `Device -> (2 * burst_of `Device) + 1
      in
      (firings * per_firing) + 4
    in
    Option.map (List.map2 budget kinds)
      (Analysis.Rates.chain_firings ~n (List.map burst_of kinds))
  in
  (* The solved budgets depend only on the template, the chosen plan,
     the stream shape and the chunk granularity — cache them per
     session so repeated [Exec] runs of the same graph skip rebuilding
     and re-solving the rate graph. *)
  let budgets =
    let key =
      Printf.sprintf "%s|%s|n=%d|rate=%d|chunk=%s" g.g_uid described n
        g.g_rate
        (match t.chunk_elements with
        | Some k -> string_of_int k
        | None -> "all")
    in
    match Hashtbl.find_opt t.steady_cache_ key with
    | Some cached ->
      Metrics.add_sched_cache_hit t.metrics_;
      cached
    | None ->
      let solved = solve_budgets () in
      Hashtbl.replace t.steady_cache_ key solved;
      solved
  in
  (* Size the FIFOs from the schedule so a sweep's batched bursts fit;
     the clamp bounds memory on huge streams (the sweep then just takes
     a few extra rounds). *)
  let capacity = max t.fifo_capacity (min n 4096) in
  let channels = ref [] in
  let new_channel () =
    let c = Actor.Channel.create ~capacity in
    channels := (Printf.sprintf "ch%d" (List.length !channels), c) :: !channels;
    c
  in
  let src_ch = new_channel () in
  let elements = unpack_stream g.g_source in
  let source = Actor.source ~name:"source" ~rate:g.g_rate elements src_ch in
  let actors = ref [ source ] in
  let cur_ch = ref src_ch in
  List.iter
    (function
      | On_vm pair ->
        let out = new_channel () in
        actors := bytecode_filter_actor t pair !cur_ch out :: !actors;
        cur_ch := out
      | On_device (a, fs, pairs) ->
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
    steps;
  let sink = Actor.sink ~name:"sink" g.g_sink !cur_ch in
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
    ~args:[ "elements", Trace.Int n; "plan", Trace.Str described ]
    "task-graph"
    (fun () ->
      let ordered = List.rev !actors in
      let stats =
        Scheduler.run ~on_round:sample_channels
          (match budgets with
          | Some budgets -> List.combine ordered budgets
          | None -> List.map (fun a -> a, 1) ordered)
      in
      Metrics.add_scheduler_run t.metrics_ ~rounds:stats.Scheduler.rounds
        ~steps:stats.Scheduler.steps
        ~blocked_steps:stats.Scheduler.blocked_steps)

(* --- lowered map/reduce execution -------------------------------------- *)

(* Kernel sites executed as task graphs ([Lime_ir.Lower_mapreduce]):
   a scatter source splits the array into K chunk descriptors, K
   replicated workers apply the site's function to their chunk on
   whatever device the substitution plan chose, and a gather sink
   collects the chunk results. One executor ([run_kernel_site]) runs
   map and reduce sites alike; a kind supplies only what differs
   ([kernel]). Every policy — including bytecode-only — routes kernel
   sites through the same plan/actor/steady-state/fault machinery as
   graph templates.

   Chunking costs what one whole-array launch would: arguments cross
   the boundary once (device-side chunk slicing is free, like a kernel
   indexing into an already-resident buffer), chunk launches after the
   first are charged kernel time minus the launch overhead (command
   batching amortizes it), and the results cross back in one batched
   crossing per boundary. *)

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

(* Ship an already-computed result home from [device] with the
   failure protocol. The values are host-visible either way (the
   crossing is marshaling accounting plus a round-trip through the
   wire codec), so on retry exhaustion the transfer is abandoned:
   quarantine the device and answer with the unshipped value rather
   than losing the run. *)
let mr_ship_home t ~uid ~(device : Artifact.device) (v : V.t) : V.t =
  let boundary =
    match device with
    | Artifact.Native -> Metrics.native_boundary t.metrics_
    | _ -> Metrics.boundary t.metrics_
  in
  with_recovery t ~uid ~device
    ~exhausted:(fun () -> v)
    (fun () -> ship_to_host ~boundary t v)

(* The shared scatter -> workers -> gather actor graph. [run_chunk ci
   (off, len)] computes chunk [ci]'s result (carrying the full failure
   protocol); [collect ci v] lands it. Every edge moves one descriptor
   per firing, so the repetition vector is all ones, and the graph runs
   in one budgeted sweep. *)
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
  (* Budgets follow the all-ones repetition vector: one descriptor per
     worker per iteration, +1 slack for the close/drain steps. A
     re-planned chunk runs inside its worker's firing, so a fault
     leaves the firing pattern as it is. *)
  let stats =
    Scheduler.run
      ((scatter, k + 1)
      :: (List.map (fun w -> w, 3) workers @ [ gather, k + 1 ]))
  in
  Metrics.add_scheduler_run t.metrics_ ~rounds:stats.Scheduler.rounds
    ~steps:stats.Scheduler.steps ~blocked_steps:stats.Scheduler.blocked_steps

(* What a kind of kernel site adds to the one executor. A site's
   operands are its arguments, each with whether it is a mapped array
   (a reduce has one); a chunk is its [(offset, length)] bounds. *)
type kernel = {
  k_vm : charge:(int -> unit) -> (I.v * bool) list -> int * int -> V.t;
      (** a chunk as one VM launch: a map, or a left fold. The bytecode
          and native paths differ only in what they [charge]. *)
  k_simt : (I.v * bool) list -> int * int -> V.t * Gpu.Simt.timing;
      (** a chunk as one SIMT launch over the device-resident operands *)
  k_pack : V.t list -> V.t;
      (** several chunk results, in chunk order, as one crossing *)
  k_unpack : V.t -> int -> V.t list;
      (** a crossing of [m] chunk results, as pieces for [k_combine] *)
  k_combine : V.t list -> I.v;
      (** the pieces at home, in chunk order, into the site's value *)
}

(* One lowered kernel-site run over a non-empty stream of [n] elements
   in [chunks] chunks: plan the worker, run the actor graph, recover
   each chunk, and bring the results home. *)
let run_kernel_site t (lw : Lmr.lowered) ~n ~chunks (kind : kernel)
    (operands : (I.v * bool) list) : I.v =
  let uid = lw.Lmr.lw_uid in
  let worker = lw.Lmr.lw_worker in
  let bounds = Lmr.split_bounds ~n ~chunks in
  let k = List.length bounds in
  let plan = plan_for t ~n [ worker ] in
  let described = record_plan t plan in
  Metrics.add_mr_run t.metrics_ ~chunks:k;
  let seg = ref (mr_seg_of_plan plan) in
  (* Device-resident operand copies, shipped on a device's first chunk
     and dropped when it is quarantined. The GPU gets every argument
     over the accelerator boundary; native code gets the mapped arrays
     over JNI, and receivers and scalars stay host side, as in
     [native_batch]. *)
  let gpu_ops = ref None and native_ops = ref None in
  let gpu_launched = ref false in
  let resident cell ship =
    match !cell with
    | Some ops -> ops
    | None ->
      let ops = List.map ship operands in
      cell := Some ops;
      ops
  in
  let gpu_chunk (off, len) =
    with_launch_span t ~elements:len ("gpu:" ^ uid) (fun () ->
        let ops =
          resident gpu_ops (fun (a, mapped) ->
              I.Prim (ship_to_device t (I.prim_exn a)), mapped)
        in
        let result, timing = kind.k_simt ops (off, len) in
        let overhead = t.gpu_device.Gpu.Device.launch_overhead_ns in
        let ns =
          if !gpu_launched then
            Float.max 0.0 (timing.Gpu.Simt.kernel_ns -. overhead)
          else timing.Gpu.Simt.kernel_ns
        in
        gpu_launched := true;
        Metrics.add_gpu_kernel t.metrics_ ~ns;
        result)
  in
  let native_chunk (off, len) =
    Support.Fault.check ~device:"native" ~segment:uid;
    with_launch_span t ~elements:len ("native:" ^ uid) (fun () ->
        let nb = Metrics.native_boundary t.metrics_ in
        let ops =
          resident native_ops (fun (a, mapped) ->
              if mapped then
                I.Prim (ship_to_device ~boundary:nb t (I.prim_exn a)), mapped
              else a, mapped)
        in
        kind.k_vm ~charge:(Metrics.add_native_instructions t.metrics_) ops
          (off, len))
  in
  let receivers =
    List.filter_map
      (fun (a, _) -> match a with I.Obj _ -> Some a | _ -> None)
      operands
  in
  (* each chunk's result, and the device that computed it ([Cpu] for
     bytecode) *)
  let results = Array.make k V.Unit in
  let homes = Array.make k Artifact.Cpu in
  (* The per-chunk failure protocol: retry with rewind and backoff,
     then quarantine the chunk's device, drop its operand copies and
     re-plan the worker — remaining chunks (and this one's retry) run
     on the next-best healthy device, bottoming out at bytecode, which
     cannot fault. [seg] is shared across chunks so one quarantine
     redirects the rest of the run. *)
  let run_chunk ci bound =
    let rewind = rewinder receivers in
    let rec launch () =
      match !seg with
      | Mr_bytecode ->
        Trace.with_span ~cat:"vm" ("bc:" ^ uid) (fun () ->
            kind.k_vm ~charge:(Metrics.add_vm_instructions t.metrics_)
              operands bound)
      | Mr_device a ->
        let device = Artifact.device a in
        with_recovery t ~uid ~device ~rewind
          ~exhausted:(fun () ->
            (match device with
            | Artifact.Gpu ->
              gpu_ops := None;
              gpu_launched := false
            | Artifact.Native -> native_ops := None
            | _ -> ());
            let plan = plan_for t ~n [ worker ] in
            (match plan with
            | [ Substitute.S_device (a', _) ] ->
              Metrics.add_substitution t.metrics_ uid (Artifact.device a')
            | _ -> ());
            seg := mr_seg_of_plan plan;
            launch ())
          (fun () ->
            match a with
            | Artifact.Gpu_kernel _ -> gpu_chunk bound
            | Artifact.Native_binary _ -> native_chunk bound
            | Artifact.Fpga_module _ ->
              fail "kernel site %s: no FPGA execution path" uid)
    in
    let v = launch () in
    homes.(ci) <-
      (match !seg with
      | Mr_bytecode -> Artifact.Cpu
      | Mr_device a -> Artifact.device a);
    v
  in
  Trace.with_span ~cat:"runtime"
    ~args:
      [
        "elements", Trace.Int n;
        "plan", Trace.Str described;
        "chunks", Trace.Int k;
      ]
    ("mr:" ^ uid)
    (fun () ->
      run_mr_actors t ~uid ~bounds ~run_chunk ~collect:(fun ci v ->
          results.(ci) <- v);
      (* The trip home: each chunk's result crosses home from the
         device that computed it, and a bytecode chunk's does not
         cross. Chunks run in index order and a quarantined device
         takes no later chunk, so the chunks one device computed are
         consecutive; each such run crosses in one batched crossing,
         one per boundary, where per-chunk crossings would charge a
         latency each. *)
      let rec home ci pieces =
        if ci = k then kind.k_combine (List.rev pieces)
        else
          let device = homes.(ci) in
          let rec run_end j =
            if j < k && homes.(j) = device then run_end (j + 1) else j
          in
          let stop = run_end ci in
          let run = List.init (stop - ci) (fun j -> results.(ci + j)) in
          let arrived =
            match device, run with
            | Artifact.Cpu, _ -> run
            | _, [ v ] -> [ mr_ship_home t ~uid ~device v ]
            | _ ->
              kind.k_unpack
                (mr_ship_home t ~uid ~device (kind.k_pack run))
                (stop - ci)
          in
          home stop (List.rev_append arrived pieces)
      in
      home 0 [])

(* A map's chunk results concatenated in chunk order, one blit per
   chunk for flat arrays. *)
let concat_chunks (elem : Ir.ty) = function
  | [ v ] -> v
  | vs ->
    let out =
      I.new_array elem (List.fold_left (fun n v -> n + I.array_length v) 0 vs)
    in
    let place off v =
      let len = I.array_length v in
      (match out, v with
      | V.Int_array o, V.Int_array a -> Array.blit a 0 o off len
      | V.Float_array o, V.Float_array a -> Array.blit a 0 o off len
      | V.Bool_array o, V.Bool_array a -> Array.blit a 0 o off len
      | _ ->
        for j = 0 to len - 1 do
          I.array_set out (off + j) (I.array_get v j)
        done);
      off + len
    in
    ignore (List.fold_left place 0 vs);
    frozen out

(* One lowered map run over a non-empty stream. Chunk results come
   home as slices of the result: a batched crossing is their
   concatenation, and stays one piece. *)
let run_lowered_map_n t (lw : Lmr.lowered) (site : Ir.map_site)
    (pairs : (I.v * bool) list) (n : int) : I.v =
  let elem = site.Ir.map_elem_ty in
  run_kernel_site t lw ~n
    ~chunks:(Lmr.chunks_for ?override:t.map_chunks ~n lw.Lmr.lw_kind)
    {
      k_vm =
        (fun ~charge ops (off, len) ->
          Bytecode.Vm.map t.vm lw.Lmr.lw_fn ~elem ops ~off ~len charge);
      k_simt =
        (fun ops (offset, len) ->
          Gpu.Simt.run_map ~device:t.gpu_device t.simt site
            (List.map
               (fun (a, mapped) ->
                 let d = I.prim_exn a in
                 if mapped then slice_prim d ~offset ~len else d)
               ops));
      k_pack = concat_chunks elem;
      k_unpack = (fun v _ -> [ v ]);
      k_combine = (fun vs -> I.Prim (concat_chunks elem vs));
    }
    pairs

(* The lowered-map hook: validate exactly what the VM's inline map validates
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
    (* the VM's inline map's empty-stream result: a frozen empty array *)
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
   array order precisely so this stays bit-identical); partials come
   home packed as one array per crossing and are combined on the host
   pair-wise as a tree. The default is one chunk unless the algebraic
   analysis proves the combiner associative and commutative — then
   regrouping is bit-identical by the reassociation contract
   (docs/ANALYSIS.md) and the reduce chunks like a map;
   [reduce_chunks] still forces a count either way. *)
let run_lowered_reduce_n t (lw : Lmr.lowered) (site : Ir.reduce_site)
    (host : V.t) (n : int) : I.v =
  let uid = lw.Lmr.lw_uid in
  let fn = lw.Lmr.lw_fn and elem = site.Ir.red_elem_ty in
  let array_of ops = I.prim_exn (fst (List.hd ops)) in
  let pack vs =
    let buf = I.new_array elem (List.length vs) in
    List.iteri (I.array_set buf) vs;
    I.freeze buf
  in
  (* The same shape a device-side reduction uses. For a
     proven-associative combiner this is bit-identical to the
     sequential fold; a forced [reduce_chunks] opted into
     reassociation already. *)
  let combine a b =
    Trace.with_span ~cat:"vm" ("bc:" ^ uid) (fun () ->
        Bytecode.Vm.fold t.vm fn (pack [ a; b ]) ~off:0 ~len:2
          (Metrics.add_vm_instructions t.metrics_))
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
  run_kernel_site t lw ~n
    ~chunks:
      (Lmr.chunks_for ?override:t.reduce_chunks
         ~assoc:(combiner_assoc t lw.Lmr.lw_fn)
         ~n lw.Lmr.lw_kind)
    {
      k_vm =
        (fun ~charge ops (off, len) ->
          Bytecode.Vm.fold t.vm fn (array_of ops) ~off ~len charge);
      k_simt =
        (fun ops (offset, len) ->
          Gpu.Simt.run_reduce ~device:t.gpu_device t.simt site
            (slice_prim (array_of ops) ~offset ~len));
      k_pack = pack;
      k_unpack = (fun v m -> List.init m (I.array_get v));
      k_combine = (fun vs -> I.Prim (tree vs));
    }
    [ I.Prim host, true ]

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

(* Every kernel site runs lowered. A hook answers [None] only on
   malformed or empty input; the VM then interprets the site inline and
   raises its canonical diagnostic. *)
let hooks t : Bytecode.Vm.hooks =
  {
    Bytecode.Vm.on_map =
      (fun desc args ->
        match Ir.String_map.find_opt desc.Bytecode.Insn.bm_uid t.mr_sites with
        | Some ({ Lmr.lw_kind = Lmr.K_map site; _ } as lw) ->
          run_lowered_map t lw site args
        | Some _ | None -> None);
    on_reduce =
      (fun desc arg ->
        match Ir.String_map.find_opt desc.Bytecode.Insn.br_uid t.mr_sites with
        | Some ({ Lmr.lw_kind = Lmr.K_reduce site; _ } as lw) ->
          run_lowered_reduce t lw site arg
        | Some _ | None -> None);
    on_run_graph =
      Some
        (fun template ops ~blocking ->
          (* start() and finish() both run the graph to completion in
             this cooperative runtime; see DESIGN.md section 5. *)
          ignore blocking;
          run_bound_graph t (Bytecode.Vm.bind_graph template ops);
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
