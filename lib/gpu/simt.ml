module Ir = Lime_ir.Ir
module I = Lime_ir.Interp
module V = Wire.Value

exception Device_error of string

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

let unop_cycles = function
  | Ir.Neg_i | Ir.Not_b | Ir.Bnot_i | Ir.I2f -> 1.0
  | Ir.Neg_f -> 1.0

let binop_cycles = function
  | Ir.Add_i | Ir.Sub_i | Ir.Shl_i | Ir.Shr_i | Ir.And_i | Ir.Or_i | Ir.Xor_i
  | Ir.And_b | Ir.Or_b | Ir.Xor_b | Ir.And_bit | Ir.Or_bit | Ir.Xor_bit
  | Ir.Eq | Ir.Neq
  | Ir.Lt_i | Ir.Leq_i | Ir.Gt_i | Ir.Geq_i
  | Ir.Lt_f | Ir.Leq_f | Ir.Gt_f | Ir.Geq_f ->
    1.0
  | Ir.Mul_i -> 2.0
  | Ir.Add_f | Ir.Sub_f | Ir.Mul_f -> 1.0
  | Ir.Div_i | Ir.Rem_i -> 20.0
  | Ir.Div_f -> 10.0
  | Ir.Rem_f -> 20.0

let call_overhead = 2.0
let mem_op_cycles = 4.0

exception Return of V.t

(* The charges of the work item in flight. Cycles live in an all-float
   record, which stores the field unboxed, so charging allocates
   nothing. *)
type clock = { mutable cycles : float }
type lane = { mutable mem_bytes : int; mutable branch_sig : int }

(* A compiled device function: the slot-array size, the parameter
   slots and the body, which runs over a bound slot array. *)
type fn_code = {
  fc_key : string;
  fc_slots : int;
  fc_params : int array;
  mutable fc_body : V.t array -> V.t;
}

type callee =
  | Device of fn_code
  | Intrinsic of (V.t list -> V.t) * float
      (** the operation, and its special-function cycles *)
  | Missing of string

(* One engine's compiled kernels. Device functions compile on first
   use into closures over [clock] and [lane]: launches on an engine run
   one at a time, and each resets the counters per work item. *)
type program = {
  prog : Ir.program;
  clock : clock;
  lane : lane;
  fns : (string, callee) Hashtbl.t;
}

let prepare prog =
  {
    prog;
    clock = { cycles = 0.0 };
    lane = { mem_bytes = 0; branch_sig = 0 };
    fns = Hashtbl.create 16;
  }

let start_lane t =
  t.clock.cycles <- 0.0;
  t.lane.mem_bytes <- 0;
  t.lane.branch_sig <- 0

(* An operand read, resolved at compile time to a slot or a constant. *)
let operand o : V.t array -> V.t =
  match o with
  | Ir.O_var v ->
    let i = v.Ir.v_id in
    fun s -> s.(i)
  | Ir.O_const c ->
    let v = I.const_value c in
    fun _ -> v

(* The entry of [c] for the work item in flight, on evaluated
   arguments: the call's charge, its arity check and its argument
   binding. Device calls and launches both go through it. *)
let enter t (c : callee) : V.t array -> V.t =
  match c with
  | Intrinsic (apply, cycles) ->
    fun args ->
      t.clock.cycles <- t.clock.cycles +. cycles;
      (match apply (Array.to_list args) with
      | v -> v
      | exception Lime_ir.Intrinsics.Error m -> fail "%s" m)
  | Missing key -> fun _ -> fail "no device function %s" key
  | Device fc ->
    fun args ->
      let n = Array.length args and params = fc.fc_params in
      if n > Array.length params then
        fail "%s takes %d argument(s), got %d" fc.fc_key (Array.length params) n;
      t.clock.cycles <- t.clock.cycles +. call_overhead;
      let slots = Array.make fc.fc_slots V.Unit in
      for j = 0 to n - 1 do
        slots.(params.(j)) <- args.(j)
      done;
      fc.fc_body slots

(* Look up [key], compiling a device function on first use. Constructs
   the device cannot run, and calls to missing functions, compile to
   code that raises when executed, exactly where an interpreter would. *)
let rec resolve t key : callee =
  match Hashtbl.find_opt t.fns key with
  | Some c -> c
  | None ->
    let fn = Ir.find_func t.prog key in
    let c =
      match fn with
      | _ when Lime_ir.Intrinsics.is_intrinsic key ->
        Intrinsic
          (Lime_ir.Intrinsics.resolve key, Lime_ir.Intrinsics.device_cycles key)
      | None -> Missing key
      | Some fn ->
        Device
          {
            fc_key = key;
            fc_slots = Ir.var_slot_count fn;
            fc_params =
              Array.of_list (List.map (fun (p : Ir.var) -> p.v_id) fn.fn_params);
            fc_body = (fun _ -> fail "%s is still being compiled" key);
          }
    in
    (* Registered before compiling, so recursive calls find it. A
       compile that raises drops every kernel of the engine, so none
       keeps a callee whose body never compiled. *)
    Hashtbl.add t.fns key c;
    (match c, fn with
    | Device fc, Some fn -> (
      match compile_fn t fn with
      | body -> fc.fc_body <- body
      | exception e ->
        Hashtbl.reset t.fns;
        raise e)
    | _ -> ());
    c

(* Each closure charges the lane exactly what executing its
   instruction has always charged, in the same order, so modeled time
   does not change (test/simt.baseline pins it). Bounds proofs are
   resolved here, once per function, into checked or unchecked
   accessors — the device-side counterpart of the unguarded loads and
   stores in the generated OpenCL. *)
and compile_fn t (fn : Ir.func) : V.t array -> V.t =
  let clock = t.clock and lane = t.lane in
  let proven =
    Analysis.Symbolic.fn_prover (Analysis.Symbolic.analyze_fn t.prog fn)
  in
  let rec block (b : Ir.block) : V.t array -> unit =
    match b with
    | [] -> fun _ -> ()
    | [ i ] -> instr i
    | i :: rest ->
      let k = instr i and rest = block rest in
      fun s ->
        k s;
        rest s
  and instr (i : Ir.instr) : V.t array -> unit =
    match i with
    | Ir.I_let (v, r) | Ir.I_set (v, r) ->
      let id = v.Ir.v_id and e = rhs ~unguarded:(proven i) r in
      fun s -> s.(id) <- e s
    | Ir.I_astore (a, idx, x) ->
      let set = if proven i then I.array_set_unchecked else I.array_set in
      let a = operand a and idx = operand idx and x = operand x in
      fun s ->
        clock.cycles <- clock.cycles +. mem_op_cycles;
        (match idx s with
        | V.Int n ->
          let arr = a s in
          lane.mem_bytes <- lane.mem_bytes + 4;
          set arr n (x s)
        | _ -> fail "non-integer index")
    | Ir.I_setfield _ -> fun _ -> fail "field write on the device"
    | Ir.I_if (c, a, b) ->
      let c = operand c and a = block a and b = block b in
      fun s ->
        (match c s with
        | V.Bool true ->
          lane.branch_sig <- (lane.branch_sig * 31) + 1;
          clock.cycles <- clock.cycles +. 1.0;
          a s
        | V.Bool false ->
          lane.branch_sig <- (lane.branch_sig * 31) + 2;
          clock.cycles <- clock.cycles +. 1.0;
          b s
        | _ -> fail "non-boolean condition")
    | Ir.I_while (cond_block, cond_op, body) ->
      let cond_block = block cond_block
      and cond_op = operand cond_op
      and body = block body in
      fun s ->
        let looping = ref true in
        while !looping do
          cond_block s;
          match cond_op s with
          | V.Bool true ->
            lane.branch_sig <- (lane.branch_sig * 31) + 1;
            clock.cycles <- clock.cycles +. 1.0;
            body s
          | V.Bool false ->
            lane.branch_sig <- (lane.branch_sig * 31) + 2;
            clock.cycles <- clock.cycles +. 1.0;
            looping := false
          | _ -> fail "non-boolean loop condition"
        done
    | Ir.I_return (Some o) ->
      let o = operand o in
      fun s -> raise_notrace (Return (o s))
    | Ir.I_return None -> fun _ -> raise_notrace (Return V.Unit)
    | Ir.I_run_graph _ -> fun _ -> fail "nested graph on the device"
    | Ir.I_do r ->
      let e = rhs ~unguarded:(proven i) r in
      fun s -> ignore (e s)
  and rhs ~unguarded (r : Ir.rhs) : V.t array -> V.t =
    match r with
    | Ir.R_op o -> operand o
    | Ir.R_unop (op, a) ->
      let c = unop_cycles op and a = operand a in
      fun s ->
        clock.cycles <- clock.cycles +. c;
        I.eval_unop op (a s)
    | Ir.R_binop (op, a, b) ->
      let c = binop_cycles op and a = operand a and b = operand b in
      fun s ->
        clock.cycles <- clock.cycles +. c;
        I.eval_binop op (a s) (b s)
    | Ir.R_alen a ->
      let a = operand a in
      fun s ->
        clock.cycles <- clock.cycles +. 1.0;
        V.Int (I.array_length (a s))
    | Ir.R_aload (a, idx) ->
      let get = if unguarded then I.array_get_unchecked else I.array_get in
      let a = operand a and idx = operand idx in
      fun s ->
        clock.cycles <- clock.cycles +. mem_op_cycles;
        (match idx s with
        | V.Int n ->
          let arr = a s in
          lane.mem_bytes <- lane.mem_bytes + 4;
          get arr n
        | _ -> fail "non-integer index")
    | Ir.R_call (key, args) ->
      let enter = enter t (resolve t key)
      and args = Array.of_list (List.map operand args) in
      fun s -> enter (Array.map (fun a -> a s) args)
    | Ir.R_newarr _ | Ir.R_freeze _ | Ir.R_newobj _ | Ir.R_field _
    | Ir.R_map _ | Ir.R_reduce _ | Ir.R_mkgraph _ ->
      fun _ -> fail "construct not supported on the device (should be excluded)"
  in
  let key = fn.fn_key and returns_unit = fn.fn_ret = Ir.Unit in
  let body = block fn.fn_body in
  fun s ->
    match body s with
    | () ->
      if returns_unit then V.Unit
      else fail "%s fell off the end on the device" key
    | exception Return v -> v

(* Per-item traces of one launch: cycles and branch signature per work
   item, memory traffic summed. *)
type trace = {
  tr_cycles : float array;
  tr_sigs : int array;
  mutable tr_mem_bytes : int;
}

let new_trace n =
  { tr_cycles = Array.make n 0.0; tr_sigs = Array.make n 0; tr_mem_bytes = 0 }

let end_lane t tr i =
  tr.tr_cycles.(i) <- t.clock.cycles;
  tr.tr_sigs.(i) <- t.lane.branch_sig;
  tr.tr_mem_bytes <- tr.tr_mem_bytes + t.lane.mem_bytes

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
  let result = I.new_array site.map_elem_ty n in
  let kernel = enter t (resolve t site.map_fn) in
  let args = Array.of_list args in
  let mapped = Array.of_list (List.map snd pairs) in
  (* input reads + output write *)
  let io_bytes =
    Array.fold_left
      (fun acc m -> if m then acc + 4 else acc)
      (elem_bytes site.map_elem_ty) mapped
  in
  let tr = new_trace n in
  for i = 0 to n - 1 do
    start_lane t;
    let call_args =
      Array.mapi (fun j a -> if mapped.(j) then I.array_get a i else a) args
    in
    let r = kernel call_args in
    t.lane.mem_bytes <- t.lane.mem_bytes + io_bytes;
    end_lane t tr i;
    I.array_set result i r
  done;
  I.freeze result, aggregate ~device ~model_divergence tr

let run_reduce ?(device = Device.gtx580) ?(model_divergence = true) t
    (site : Ir.reduce_site) (arg : V.t) : V.t * timing =
  Support.Fault.check ~device:"gpu" ~segment:site.red_uid;
  traced "reduce" site.red_uid @@ fun () ->
  (* Tree reductions keep warps uniform; divergence does not apply. *)
  ignore model_divergence;
  let n = I.array_length arg in
  if n = 0 then fail "reduce of an empty array";
  (* Values fold left (identical to the CPU), but the device timing is
     that of a tree: ~2n/lanes combiner applications worth of cycles
     plus log n synchronization stages. *)
  let kernel = enter t (resolve t site.red_fn) in
  start_lane t;
  let acc = ref (I.array_get arg 0) in
  for i = 1 to n - 1 do
    acc := kernel [| !acc; I.array_get arg i |]
  done;
  let cycles = t.clock.cycles in
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
  !acc, timing

let run_filter_chain ?(device = Device.gtx580) ?(model_divergence = true)
    ?uid t ~(chain : string list) ~(output_ty : Ir.ty) (input : V.t) :
    V.t * timing =
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
  let kernels =
    Array.of_list (List.map (fun k -> enter t (resolve t k)) chain)
  in
  let io_bytes = 4 + elem_bytes output_ty in
  let tr = new_trace n in
  for i = 0 to n - 1 do
    start_lane t;
    let x = ref (I.array_get input i) in
    Array.iter (fun k -> x := k [| !x |]) kernels;
    t.lane.mem_bytes <- t.lane.mem_bytes + io_bytes;
    end_lane t tr i;
    I.array_set result i !x
  done;
  I.freeze result, aggregate ~device ~model_divergence tr
