module Ir = Lime_ir.Ir
module I = Lime_ir.Interp
module V = Wire.Value
module Vm = Bytecode.Vm
module Insn = Bytecode.Insn

exception Device_error = Vm.Device_error

let fail fmt = Format.kasprintf (fun s -> raise (Device_error s)) fmt

type timing = {
  items : int;
  compute_cycles : float;
  mem_bytes : int;
  kernel_ns : float;
  avg_divergence_groups : float;
}

let elem_bytes = function
  | Ir.I32 | Ir.F32 | Ir.Enum _ | Ir.Bool -> 4
  | Ir.Bit -> 1
  | Ir.Arr _ | Ir.Obj _ | Ir.Graph | Ir.Unit -> 4

(* The device's cycle table, over the bytecode a work item runs. *)
let binop_cycles = function
  | Ir.Add_i | Ir.Sub_i | Ir.Shl_i | Ir.Shr_i | Ir.And_i | Ir.Or_i | Ir.Xor_i
  | Ir.And_b | Ir.Or_b | Ir.Xor_b | Ir.And_bit | Ir.Or_bit | Ir.Xor_bit
  | Ir.Eq | Ir.Neq
  | Ir.Lt_i | Ir.Leq_i | Ir.Gt_i | Ir.Geq_i
  | Ir.Lt_f | Ir.Leq_f | Ir.Gt_f | Ir.Geq_f
  | Ir.Add_f | Ir.Sub_f | Ir.Mul_f ->
    1
  | Ir.Mul_i -> 2
  | Ir.Div_i | Ir.Rem_i | Ir.Rem_f -> 20
  | Ir.Div_f -> 10

(* Every unary operator, array length and conditional branch costs a
   cycle; every array access 4 cycles and 4 bytes; each function entry
   (the kernel's own included) 2, and an intrinsic its special-function
   cycles. *)
let weights : Vm.weights =
  {
    cycles =
      (function
      | Insn.BINOP op -> binop_cycles op
      | Insn.UNOP _ | Insn.ALEN | Insn.JMPF _ -> 1
      | Insn.ALOAD | Insn.ALOAD_U | Insn.ASTORE | Insn.ASTORE_U -> 4
      | _ -> 0);
    bytes =
      (function Insn.ALOAD | Insn.ALOAD_U | Insn.ASTORE | Insn.ASTORE_U -> 4 | _ -> 0);
    entry = 2;
    intrinsic = Lime_ir.Intrinsics.device_cycles;
  }

(* One engine's device program, and the counters of the work item in
   flight: launches on an engine run one at a time. *)
type program = { vm : Vm.program; lane : Vm.lane }

let prepare unit_ =
  let lane = { Vm.mem_bytes = 0; branch_sig = 0 } in
  { vm = Vm.prepare_device weights lane unit_; lane }

(* Per-item traces of one launch: cycles and branch signature per work
   item, memory traffic summed, and the next item's index. *)
type trace = {
  tr_cycles : float array;
  tr_sigs : int array;
  mutable tr_mem_bytes : int;
  mutable tr_next : int;
}

let reset_lane t =
  t.lane.mem_bytes <- 0;
  t.lane.branch_sig <- 0

(* A launch's trace, its lane reset for the first work item. *)
let new_trace t n =
  reset_lane t;
  { tr_cycles = Array.make n 0.0; tr_sigs = Array.make n 0; tr_mem_bytes = 0; tr_next = 0 }

(* The launch's per-element callback: record the work item that just
   ran, with its cycles, its branch signature, and its memory traffic
   plus the launch's [io_bytes] per item, then reset the lane for the
   next one. *)
let end_lane t tr ~io_bytes cycles =
  let i = tr.tr_next in
  tr.tr_cycles.(i) <- float_of_int cycles;
  tr.tr_sigs.(i) <- t.lane.branch_sig;
  tr.tr_mem_bytes <- tr.tr_mem_bytes + t.lane.mem_bytes + io_bytes;
  tr.tr_next <- i + 1;
  reset_lane t

(* Aggregate per-item traces into device timing. *)
let aggregate ?(device = Device.gtx580) ~model_divergence (tr : trace) : timing
    =
  let n = Array.length tr.tr_cycles in
  let warp = device.Device.lanes_per_warp in
  let warps = (n + warp - 1) / max warp 1 in
  (* a warp's distinct branch signatures, each with its max cycles *)
  let group_sig = Array.make warp 0 and group_max = Array.make warp 0.0 in
  let total_cycles = ref 0.0 in
  let total_groups = ref 0 in
  for w = 0 to warps - 1 do
    let lo = w * warp in
    let hi = min (lo + warp) n - 1 in
    if model_divergence then begin
      (* Divergent signatures serialize: the warp pays the max cost of
         each distinct control-flow group. *)
      let groups = ref 0 in
      for i = lo to hi do
        let sg = tr.tr_sigs.(i) and c = tr.tr_cycles.(i) in
        let g = ref 0 in
        while !g < !groups && group_sig.(!g) <> sg do
          incr g
        done;
        if !g = !groups then begin
          group_sig.(!g) <- sg;
          group_max.(!g) <- c;
          incr groups
        end
        else group_max.(!g) <- Float.max group_max.(!g) c
      done;
      for g = 0 to !groups - 1 do
        total_cycles := !total_cycles +. group_max.(g)
      done;
      total_groups := !total_groups + !groups
    end
    else begin
      let m = ref 0.0 in
      for i = lo to hi do
        if tr.tr_cycles.(i) > !m then m := tr.tr_cycles.(i)
      done;
      total_cycles := !total_cycles +. !m;
      incr total_groups
    end
  done;
  let mem_bytes = tr.tr_mem_bytes in
  (* Warps spread across SMs; memory traffic is bandwidth-limited. *)
  let compute_ns =
    Device.cycles_to_ns device (!total_cycles /. float_of_int device.Device.sms)
  in
  let bw_bytes_per_ns = device.Device.mem_bandwidth_gbps /. 1.0 in
  let mem_ns = float_of_int mem_bytes /. bw_bytes_per_ns in
  {
    items = n;
    compute_cycles = !total_cycles;
    mem_bytes;
    kernel_ns = Float.max compute_ns mem_ns +. device.Device.launch_overhead_ns;
    avg_divergence_groups =
      (if warps = 0 then 1.0 else float_of_int !total_groups /. float_of_int warps);
  }

(* Device-model telemetry: each simulated kernel launch becomes a span
   (category ["gpu"]) whose end carries the item count and modeled
   kernel time. Free when tracing is off. *)
let traced kind name (f : unit -> V.t * timing) =
  if not (Support.Trace.enabled ()) then f ()
  else
    let sp =
      Support.Trace.begin_span ~cat:"gpu"
        ~args:[ "kind", Support.Trace.Str kind ]
        name
    in
    match f () with
    | (_, t) as r ->
      Support.Trace.end_span
        ~args:
          [
            "items", Support.Trace.Int t.items;
            "kernel_ns", Support.Trace.Float t.kernel_ns;
          ]
        sp;
      r
    | exception e ->
      Support.Trace.end_span sp;
      raise e

let run_map ?(device = Device.gtx580) ?(model_divergence = true) t
    (site : Ir.map_site) (args : V.t list) : V.t * timing =
  Support.Fault.check ~device:"gpu" ~segment:site.map_uid;
  traced "map" site.map_uid @@ fun () ->
  let pairs = List.combine args (List.map snd site.map_args) in
  let lengths =
    List.filter_map
      (fun (a, mapped) -> if mapped then Some (I.array_length a) else None)
      pairs
  in
  let n =
    match lengths with
    | [] -> fail "map kernel without array arguments"
    | n :: rest ->
      if List.exists (fun m -> m <> n) rest then
        fail "mapped arrays have different lengths";
      n
  in
  (* input reads + output write *)
  let io_bytes =
    List.fold_left
      (fun acc (_, mapped) -> if mapped then acc + 4 else acc)
      (elem_bytes site.map_elem_ty) pairs
  in
  let tr = new_trace t n in
  let result =
    Vm.map t.vm site.map_fn ~elem:site.map_elem_ty
      (List.map (fun (a, mapped) -> I.Prim a, mapped) pairs)
      ~off:0 ~len:n (end_lane t tr ~io_bytes)
  in
  result, aggregate ~device ~model_divergence tr

let run_reduce ?(device = Device.gtx580) t (site : Ir.reduce_site) (arg : V.t)
    : V.t * timing =
  Support.Fault.check ~device:"gpu" ~segment:site.red_uid;
  traced "reduce" site.red_uid @@ fun () ->
  (* Tree reductions keep warps uniform; divergence does not apply. *)
  let n = I.array_length arg in
  if n = 0 then fail "reduce of an empty array";
  (* Values fold left (identical to the CPU), but the device timing is
     that of a tree: ~2n/lanes combiner applications worth of cycles
     plus log n synchronization stages. *)
  let cycles = ref 0 in
  let value =
    Vm.fold t.vm site.red_fn arg ~off:0 ~len:n (fun c -> cycles := !cycles + c)
  in
  let cycles = float_of_int !cycles in
  let per_apply = if n > 1 then cycles /. float_of_int (n - 1) else cycles in
  let lanes_total = float_of_int (Device.total_lanes device) in
  let stages = ceil (log (float_of_int (max n 2)) /. log 2.0) in
  let tree_cycles =
    (2.0 *. float_of_int n /. lanes_total *. per_apply) +. (stages *. 20.0)
  in
  let mem_bytes = (n * elem_bytes site.red_elem_ty) + elem_bytes site.red_elem_ty in
  let compute_ns = Device.cycles_to_ns device tree_cycles in
  let mem_ns = float_of_int mem_bytes /. device.Device.mem_bandwidth_gbps in
  let timing =
    {
      items = n;
      compute_cycles = tree_cycles;
      mem_bytes;
      kernel_ns =
        Float.max compute_ns mem_ns +. device.Device.launch_overhead_ns;
      avg_divergence_groups = 1.0;
    }
  in
  value, timing

let run_filter_chain ?(device = Device.gtx580) ?uid t ~(chain : string list)
    ~(output_ty : Ir.ty) (input : V.t) : V.t * timing =
  if chain = [] then fail "empty filter chain";
  let name = Option.value uid ~default:(String.concat "|" chain) in
  (* Fused kernels are fault-checked by the engine's launch prelude
     under their pre-fusion alias names — checking the fused uid here
     too would double-charge one launch. *)
  if not (Lime_ir.Fuse.is_fused_uid name) then
    Support.Fault.check ~device:"gpu" ~segment:name;
  traced "filter-chain" name @@ fun () ->
  let n = I.array_length input in
  let result = I.new_array output_ty n in
  let io_bytes = 4 + elem_bytes output_ty in
  let tr = new_trace t n in
  Vm.apply_all t.vm
    (List.map (fun k -> k, None) chain)
    (end_lane t tr ~io_bytes) input ~into:result;
  I.freeze result, aggregate ~device ~model_divergence:true tr
