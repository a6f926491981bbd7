(* Execution metrics.

   The runtime accounts for everything the evaluation needs: VM
   instruction counts (CPU model), device kernel times (GPU/FPGA
   models), marshaling traffic (Figure 3) and the substitutions that
   were performed. *)

type snapshot = {
  vm_instructions : int;
  native_instructions : int;
      (** instructions executed inside native (compiled C) segments *)
  native_ns : float;
  gpu_kernels : int;
  gpu_kernel_ns : float;
  fpga_runs : int;
  fpga_cycles : int;
  fpga_ns : float;
  marshal : Wire.Boundary.stats;
      (** the accelerator (PCIe-class) boundary *)
  marshal_native : Wire.Boundary.stats;
      (** the JNI-only boundary used by native shared libraries *)
  substitutions : (string * Artifact.device) list;
      (** chain uid, chosen device — in execution order *)
  device_faults : int;  (** faults observed (injected or real) *)
  retries : int;  (** launch retries after a fault *)
  resubstitutions : int;  (** dynamic re-plans after retry exhaustion *)
  replans : int;
      (** online re-plans: a device underperformed its cost model *)
  backoff_ns : float;  (** modeled time spent backing off before retries *)
  sched_runs : int;  (** task-graph scheduler invocations *)
  sched_rounds : int;  (** cumulative scheduling rounds *)
  sched_steps : int;  (** cumulative actor steps *)
  sched_blocked_steps : int;  (** cumulative blocked steps *)
  sched_cache_hits : int;
      (** steady-state schedules served from the session cache *)
  mr_runs : int;
      (** map/reduce sites executed through the lowered
          scatter/worker/gather task graph *)
  mr_chunks : int;  (** worker chunk launches across those runs *)
  fused_launches : int;
      (** device launches of a fused (cross-filter) segment *)
  unfuses : int;
      (** faulted fused segments re-planned per stage (unfuse path) *)
}

type t = {
  mutable vm_instructions : int;
  mutable native_instructions : int;
  mutable gpu_kernels : int;
  mutable gpu_kernel_ns : float;
  mutable fpga_runs : int;
  mutable fpga_cycles : int;
  mutable fpga_ns : float;
  boundary : Wire.Boundary.t;
  native_boundary : Wire.Boundary.t;
  mutable substitutions : (string * Artifact.device) list;
  mutable device_faults : int;
  mutable retries : int;
  mutable resubstitutions : int;
  mutable replans : int;
  mutable backoff_ns : float;
  mutable sched_runs : int;
  mutable sched_rounds : int;
  mutable sched_steps : int;
  mutable sched_blocked_steps : int;
  mutable sched_cache_hits : int;
  mutable mr_runs : int;
  mutable mr_chunks : int;
  mutable fused_launches : int;
  mutable unfuses : int;
}

(* Crossing into a dynamically loaded shared library is a JNI call:
   sub-microsecond latency and memcpy-class bandwidth, no PCIe. *)
let native_boundary_model () =
  Wire.Boundary.create ~label:"jni" ~latency_ns:800.0
    ~bandwidth_bytes_per_ns:24.0 ()

let create () =
  {
    vm_instructions = 0;
    native_instructions = 0;
    gpu_kernels = 0;
    gpu_kernel_ns = 0.0;
    fpga_runs = 0;
    fpga_cycles = 0;
    fpga_ns = 0.0;
    boundary = Wire.Boundary.create ~label:"pcie" ();
    native_boundary = native_boundary_model ();
    substitutions = [];
    device_faults = 0;
    retries = 0;
    resubstitutions = 0;
    replans = 0;
    backoff_ns = 0.0;
    sched_runs = 0;
    sched_rounds = 0;
    sched_steps = 0;
    sched_blocked_steps = 0;
    sched_cache_hits = 0;
    mr_runs = 0;
    mr_chunks = 0;
    fused_launches = 0;
    unfuses = 0;
  }

let add_vm_instructions t n = t.vm_instructions <- t.vm_instructions + n

let add_native_instructions t n =
  t.native_instructions <- t.native_instructions + n

let add_gpu_kernel t ~ns =
  t.gpu_kernels <- t.gpu_kernels + 1;
  t.gpu_kernel_ns <- t.gpu_kernel_ns +. ns

let add_fpga_run t ~cycles ~ns =
  t.fpga_runs <- t.fpga_runs + 1;
  t.fpga_cycles <- t.fpga_cycles + cycles;
  t.fpga_ns <- t.fpga_ns +. ns

let add_substitution t uid device =
  t.substitutions <- (uid, device) :: t.substitutions

let add_device_fault t = t.device_faults <- t.device_faults + 1

let add_retry t ~backoff_ns =
  t.retries <- t.retries + 1;
  t.backoff_ns <- t.backoff_ns +. backoff_ns

let add_resubstitution t = t.resubstitutions <- t.resubstitutions + 1
let add_replan t = t.replans <- t.replans + 1
let add_sched_cache_hit t = t.sched_cache_hits <- t.sched_cache_hits + 1

let add_fused_launch t = t.fused_launches <- t.fused_launches + 1
let add_unfuse t = t.unfuses <- t.unfuses + 1

let add_mr_run t ~chunks =
  t.mr_runs <- t.mr_runs + 1;
  t.mr_chunks <- t.mr_chunks + chunks

let add_scheduler_run t ~rounds ~steps ~blocked_steps =
  t.sched_runs <- t.sched_runs + 1;
  t.sched_rounds <- t.sched_rounds + rounds;
  t.sched_steps <- t.sched_steps + steps;
  t.sched_blocked_steps <- t.sched_blocked_steps + blocked_steps

let boundary t = t.boundary
let native_boundary t = t.native_boundary

(* The CPU cost models. Interpreted bytecode dispatch costs ~6ns per
   instruction on a ~2GHz core; the same operation compiled to native
   code retires in under a nanosecond — the classic interpreter/JIT
   gap the paper's native configuration exploits. *)
let cpu_ns_per_instruction = 6.0
let native_ns_per_instruction = 0.75

let snapshot t : snapshot =
  {
    vm_instructions = t.vm_instructions;
    native_instructions = t.native_instructions;
    native_ns =
      float_of_int t.native_instructions *. native_ns_per_instruction;
    gpu_kernels = t.gpu_kernels;
    gpu_kernel_ns = t.gpu_kernel_ns;
    fpga_runs = t.fpga_runs;
    fpga_cycles = t.fpga_cycles;
    fpga_ns = t.fpga_ns;
    marshal = Wire.Boundary.stats t.boundary;
    marshal_native = Wire.Boundary.stats t.native_boundary;
    substitutions = List.rev t.substitutions;
    device_faults = t.device_faults;
    retries = t.retries;
    resubstitutions = t.resubstitutions;
    replans = t.replans;
    backoff_ns = t.backoff_ns;
    sched_runs = t.sched_runs;
    sched_rounds = t.sched_rounds;
    sched_steps = t.sched_steps;
    sched_blocked_steps = t.sched_blocked_steps;
    sched_cache_hits = t.sched_cache_hits;
    mr_runs = t.mr_runs;
    mr_chunks = t.mr_chunks;
    fused_launches = t.fused_launches;
    unfuses = t.unfuses;
  }

let reset t =
  t.vm_instructions <- 0;
  t.native_instructions <- 0;
  t.gpu_kernels <- 0;
  t.gpu_kernel_ns <- 0.0;
  t.fpga_runs <- 0;
  t.fpga_cycles <- 0;
  t.fpga_ns <- 0.0;
  Wire.Boundary.reset_stats t.boundary;
  Wire.Boundary.reset_stats t.native_boundary;
  t.substitutions <- [];
  t.device_faults <- 0;
  t.retries <- 0;
  t.resubstitutions <- 0;
  t.replans <- 0;
  t.backoff_ns <- 0.0;
  t.sched_runs <- 0;
  t.sched_rounds <- 0;
  t.sched_steps <- 0;
  t.sched_blocked_steps <- 0;
  t.sched_cache_hits <- 0;
  t.mr_runs <- 0;
  t.mr_chunks <- 0;
  t.fused_launches <- 0;
  t.unfuses <- 0

(* Per-job accounting in a shared engine: snapshot on dispatch,
   snapshot on completion, subtract. Counters only ever grow, so the
   later snapshot's substitution list extends the earlier one — the
   job's own substitutions are the suffix past the earlier length. *)
let diff (later : snapshot) (earlier : snapshot) : snapshot =
  let b (l : Wire.Boundary.stats) (e : Wire.Boundary.stats) :
      Wire.Boundary.stats =
    {
      crossings_to_device = l.crossings_to_device - e.crossings_to_device;
      crossings_to_host = l.crossings_to_host - e.crossings_to_host;
      bytes_to_device = l.bytes_to_device - e.bytes_to_device;
      bytes_to_host = l.bytes_to_host - e.bytes_to_host;
      modeled_transfer_ns =
        l.modeled_transfer_ns -. e.modeled_transfer_ns;
    }
  in
  let rec drop n l = if n <= 0 then l else match l with
    | [] -> []
    | _ :: tl -> drop (n - 1) tl
  in
  {
    vm_instructions = later.vm_instructions - earlier.vm_instructions;
    native_instructions =
      later.native_instructions - earlier.native_instructions;
    native_ns = later.native_ns -. earlier.native_ns;
    gpu_kernels = later.gpu_kernels - earlier.gpu_kernels;
    gpu_kernel_ns = later.gpu_kernel_ns -. earlier.gpu_kernel_ns;
    fpga_runs = later.fpga_runs - earlier.fpga_runs;
    fpga_cycles = later.fpga_cycles - earlier.fpga_cycles;
    fpga_ns = later.fpga_ns -. earlier.fpga_ns;
    marshal = b later.marshal earlier.marshal;
    marshal_native = b later.marshal_native earlier.marshal_native;
    substitutions =
      drop (List.length earlier.substitutions) later.substitutions;
    device_faults = later.device_faults - earlier.device_faults;
    retries = later.retries - earlier.retries;
    resubstitutions = later.resubstitutions - earlier.resubstitutions;
    replans = later.replans - earlier.replans;
    backoff_ns = later.backoff_ns -. earlier.backoff_ns;
    sched_runs = later.sched_runs - earlier.sched_runs;
    sched_rounds = later.sched_rounds - earlier.sched_rounds;
    sched_steps = later.sched_steps - earlier.sched_steps;
    sched_blocked_steps =
      later.sched_blocked_steps - earlier.sched_blocked_steps;
    sched_cache_hits = later.sched_cache_hits - earlier.sched_cache_hits;
    mr_runs = later.mr_runs - earlier.mr_runs;
    mr_chunks = later.mr_chunks - earlier.mr_chunks;
    fused_launches = later.fused_launches - earlier.fused_launches;
    unfuses = later.unfuses - earlier.unfuses;
  }

(* --- snapshot presentation -------------------------------------------- *)

(* One declaration per metric. The pretty-printer, the JSON export and
   the registry export are all derived from this list, so the three
   renderings cannot drift apart (they used to be maintained by hand,
   in parallel). [fd_count] distinguishes integral counts from modeled
   nanosecond totals, which render with a fraction. *)

type field = {
  fd_name : string;
  fd_labels : (string * string) list;
  fd_help : string;
  fd_count : bool;
  fd_get : snapshot -> float;
}

let boundary_fields label get =
  let b s = (get s : Wire.Boundary.stats) in
  [
    {
      fd_name = "marshal_crossings_to_device";
      fd_labels = [ "boundary", label ];
      fd_help = "boundary crossings toward the device";
      fd_count = true;
      fd_get = (fun s -> float_of_int (b s).crossings_to_device);
    };
    {
      fd_name = "marshal_crossings_to_host";
      fd_labels = [ "boundary", label ];
      fd_help = "boundary crossings back to the host";
      fd_count = true;
      fd_get = (fun s -> float_of_int (b s).crossings_to_host);
    };
    {
      fd_name = "marshal_bytes_to_device";
      fd_labels = [ "boundary", label ];
      fd_help = "bytes serialized toward the device";
      fd_count = true;
      fd_get = (fun s -> float_of_int (b s).bytes_to_device);
    };
    {
      fd_name = "marshal_bytes_to_host";
      fd_labels = [ "boundary", label ];
      fd_help = "bytes deserialized back to the host";
      fd_count = true;
      fd_get = (fun s -> float_of_int (b s).bytes_to_host);
    };
    {
      fd_name = "marshal_transfer_ns";
      fd_labels = [ "boundary", label ];
      fd_help = "modeled transfer time on this boundary";
      fd_count = false;
      fd_get = (fun s -> (b s).modeled_transfer_ns);
    };
  ]

let field name ?(labels = []) ~help ~count get =
  { fd_name = name; fd_labels = labels; fd_help = help; fd_count = count;
    fd_get = get }

let count_field name ~help get =
  field name ~help ~count:true (fun s -> float_of_int (get s))

let fields : field list =
  [
    count_field "vm_instructions"
      ~help:"bytecode instructions interpreted on the host VM"
      (fun s -> s.vm_instructions);
    count_field "native_instructions"
      ~help:"instructions executed inside native (compiled C) segments"
      (fun s -> s.native_instructions);
    field "native_ns" ~help:"modeled native execution time" ~count:false
      (fun s -> s.native_ns);
    count_field "gpu_kernels" ~help:"GPU kernel launches"
      (fun s -> s.gpu_kernels);
    field "gpu_kernel_ns" ~help:"modeled GPU kernel time" ~count:false
      (fun s -> s.gpu_kernel_ns);
    count_field "fpga_runs" ~help:"FPGA pipeline runs" (fun s -> s.fpga_runs);
    count_field "fpga_cycles" ~help:"FPGA cycles simulated"
      (fun s -> s.fpga_cycles);
    field "fpga_ns" ~help:"modeled FPGA time" ~count:false
      (fun s -> s.fpga_ns);
  ]
  @ boundary_fields "pcie" (fun s -> s.marshal)
  @ boundary_fields "jni" (fun s -> s.marshal_native)
  @ [
      count_field "device_faults" ~help:"device faults observed"
        (fun s -> s.device_faults);
      count_field "retries" ~help:"launch retries after a fault"
        (fun s -> s.retries);
      count_field "resubstitutions"
        ~help:"dynamic re-plans after retry exhaustion"
        (fun s -> s.resubstitutions);
      count_field "replans"
        ~help:"online re-plans after a device underperformed its model"
        (fun s -> s.replans);
      field "backoff_ns" ~help:"modeled backoff before retries" ~count:false
        (fun s -> s.backoff_ns);
      count_field "sched_runs" ~help:"task-graph scheduler invocations"
        (fun s -> s.sched_runs);
      count_field "sched_rounds" ~help:"cumulative scheduling rounds"
        (fun s -> s.sched_rounds);
      count_field "sched_steps" ~help:"cumulative actor steps"
        (fun s -> s.sched_steps);
      count_field "sched_blocked_steps" ~help:"cumulative blocked steps"
        (fun s -> s.sched_blocked_steps);
      count_field "sched_cache_hits"
        ~help:"steady-state schedules served from the session cache"
        (fun s -> s.sched_cache_hits);
      count_field "mr_runs"
        ~help:"map/reduce sites executed via the lowered task graph"
        (fun s -> s.mr_runs);
      count_field "mr_chunks" ~help:"worker chunk launches in lowered runs"
        (fun s -> s.mr_chunks);
      count_field "fused_launches"
        ~help:"device launches of fused (cross-filter) segments"
        (fun s -> s.fused_launches);
      count_field "unfuses"
        ~help:"faulted fused segments re-planned per stage"
        (fun s -> s.unfuses);
    ]

let field_label f =
  f.fd_name
  ^
  if f.fd_labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> k ^ "=" ^ v) f.fd_labels)
    ^ "}"

let field_value f s =
  if f.fd_count then Printf.sprintf "%.0f" (f.fd_get s)
  else Printf.sprintf "%.1f" (f.fd_get s)

let pp ppf (s : snapshot) =
  let width =
    List.fold_left
      (fun w f -> max w (String.length (field_label f)))
      0 fields
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun f ->
      Format.fprintf ppf "%-*s %s@," width
        (field_label f ^ ":")
        (field_value f s))
    fields;
  Format.fprintf ppf "substitutions: %s"
    (if s.substitutions = [] then "none"
     else
       String.concat ", "
         (List.map
            (fun (uid, d) -> uid ^ " -> " ^ Artifact.device_name d)
            s.substitutions));
  Format.fprintf ppf "@]"

let registry_of (s : snapshot) =
  let reg = Support.Registry.create () in
  List.iter
    (fun f ->
      let m = Support.Registry.counter reg ~help:f.fd_help f.fd_name in
      Support.Registry.set m ~labels:f.fd_labels (f.fd_get s))
    fields;
  let subs =
    Support.Registry.counter reg
      ~help:"segment substitutions performed, by chain uid and device"
      "substitutions"
  in
  List.iter
    (fun (uid, d) ->
      Support.Registry.inc subs
        ~labels:[ "uid", uid; "device", Artifact.device_name d ]
        1.0)
    s.substitutions;
  reg

let to_text (s : snapshot) = Support.Registry.to_text (registry_of s)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json (s : snapshot) =
  Printf.sprintf "{\"metrics\":%s,\"substitutions\":[%s]}"
    (Support.Registry.to_json (registry_of s))
    (String.concat ","
       (List.map
          (fun (uid, d) ->
            Printf.sprintf "{\"uid\":\"%s\",\"device\":\"%s\"}"
              (json_escape uid)
              (Artifact.device_name d))
          s.substitutions))

let modeled_cpu_ns t = float_of_int t.vm_instructions *. cpu_ns_per_instruction

let modeled_accelerator_ns t =
  t.gpu_kernel_ns +. t.fpga_ns
  +. (float_of_int t.native_instructions *. native_ns_per_instruction)
  +. (Wire.Boundary.stats t.boundary).modeled_transfer_ns
  +. (Wire.Boundary.stats t.native_boundary).modeled_transfer_ns
