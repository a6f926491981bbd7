(* Every metric the benchmark can emit, and the result documents that
   carry them.

   The catalog fixes each metric's unit, its clock and which direction
   is better. BENCHMARK.json chooses which of them a run's last line
   carries (its end_to_end and per_layer lists) and fixes the bounds of
   the end-to-end ones; [load_spec] refuses a BENCHMARK.json whose units or
   directions disagree with the catalog, so the two cannot drift. *)

module Json = Observe.Json

type clock =
  | Host  (** wall time of this process *)
  | Modeled  (** the runtime's deterministic device-time estimate *)
  | Virtual  (** the serve engine's discrete-event clock *)
  | Count  (** work done: deterministic for a given seed *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  clock : clock;
  better : better;
  end_to_end : bool;
}

let clock_name = function
  | Host -> "host"
  | Modeled -> "modeled"
  | Virtual -> "virtual"
  | Count -> "count"

let m ?(better = Lower) ?(e2e = false) name unit_ clock =
  { name; unit_; clock; better; end_to_end = e2e }

let all =
  [
    (* end to end *)
    m ~e2e:true "setup_s" "s" Host;
    m ~e2e:true ~better:Higher "throughput_rps" "1/s" Host;
    m ~e2e:true "latency_p50_ms" "ms" Host;
    m ~e2e:true "latency_p99_ms" "ms" Host;
    m ~better:Higher "latency_n" "count" Host;
    m ~e2e:true "peak_rss_mb" "MB" Host;
    m ~e2e:true "modeled_us_geomean" "us" Modeled;
    m ~e2e:true "serve_p50_us" "us" Virtual;
    m ~e2e:true "serve_p99_us" "us" Virtual;
    m ~e2e:true ~better:Higher "serve_max_jps" "1/s" Virtual;
    m ~e2e:true "failed_frac" "ratio" Count;
    (* compiler phases, per set-up *)
    m "compiler.frontend_ms" "ms" Host;
    m "compiler.optimize_ms" "ms" Host;
    m "compiler.analyze_ms" "ms" Host;
    m "compiler.backends_ms" "ms" Host;
    (* placement calibration, per set-up *)
    m "placement.calibrate_ms" "ms" Host;
    m "placement.calibrated" "count" Count;
    m ~better:Higher "placement.hits" "count" Count;
    (* layers of the traced prefix *)
    m "bytecode.vm_insns" "count" Count;
    m "bytecode.vm_self_ms" "ms" Host;
    m "bytecode.vm_share" "%" Host;
    m "bytecode.ns_per_insn" "ns" Host;
    m "gpu.kernels" "count" Count;
    m "gpu.kernel_modeled_us" "us" Modeled;
    m "gpu.simt_self_ms" "ms" Host;
    m "gpu.simt_share" "%" Host;
    m "gpu.host_ns_per_modeled_ns" "ratio" Host;
    m "rtl.cycles" "count" Count;
    m "rtl.fpga_modeled_us" "us" Modeled;
    m "rtl.sim_self_ms" "ms" Host;
    m "rtl.sim_share" "%" Host;
    m "rtl.ns_per_cycle" "ns" Host;
    m "wire.bytes" "count" Count;
    m "wire.crossings" "count" Count;
    m "wire.transfer_modeled_us" "us" Modeled;
    m "wire.boundary_self_ms" "ms" Host;
    m "wire.boundary_share" "%" Host;
    m "runtime.exec_self_ms" "ms" Host;
    m "runtime.exec_share" "%" Host;
    m "runtime.sched_steps" "count" Count;
    m "runtime.sched_blocked_steps" "count" Count;
    m "runtime.mr_chunks" "count" Count;
    m "runtime.fused_launches" "count" Count;
    m "runtime.faults" "count" Count;
    m "serve.dispatch_self_ms" "ms" Host;
    m "serve.dispatch_share" "%" Host;
    m "serve.queue_delay_p99_us" "us" Virtual;
    m "serve.service_us_mean" "us" Virtual;
    m ~better:Higher "serve.batched_jobs" "count" Virtual;
    m ~better:Higher "serve.util.gpu" "ratio" Virtual;
    m ~better:Higher "serve.util.fpga" "ratio" Virtual;
    m ~better:Higher "serve.util.native" "ratio" Virtual;
    m ~better:Higher "serve.util.vm" "ratio" Virtual;
    m "serve.predict_ratio" "ratio" Virtual;
    (* the host's memory manager, over the measured loop *)
    m "gc.minor_mb_per_req" "MB" Host;
    m "gc.major_collections" "count" Host;
    (* the tracer itself *)
    m "trace.overhead" "x" Host;
    m "trace.dropped" "count" Count;
  ]

let find name = List.find_opt (fun x -> x.name = name) all

(* ---------- BENCHMARK.json ---------- *)

type spec = {
  sp_end_to_end : (string * float) list;  (** metric, bound *)
  sp_per_layer : string list;
  sp_workloads : string list;
  sp_run_seconds : float;
}

let fail fmt = Printf.ksprintf failwith fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let names_of key j =
  List.map
    (fun x ->
      match Json.str_opt (Json.member "name" x) with
      | Some n -> (n, x)
      | None -> fail "%s: entry without a name" key)
    (Json.to_list (Option.value (Json.member key j) ~default:Json.Null))

let check_entry key (name, x) =
  match find name with
  | None -> fail "%s: %s is not a metric this benchmark emits" key name
  | Some mt ->
      let unit_ = Json.str_opt (Json.member "unit" x) in
      if unit_ <> Some mt.unit_ then
        fail "%s: %s has unit %s, the benchmark emits %s" key name
          (Option.value unit_ ~default:"(none)")
          mt.unit_;
      let better = Json.str_opt (Json.member "better" x) in
      let want = match mt.better with Lower -> "lower" | Higher -> "higher" in
      if better <> Some want then
        fail "%s: %s says better=%s, the benchmark says %s" key name
          (Option.value better ~default:"(none)")
          want

(* @raise Failure with the reason on a missing, malformed or
   inconsistent file. *)
let load_spec path =
  let j =
    try Json.parse (read_file path) with
    | Sys_error e -> fail "%s" e
    | Json.Parse_error e -> fail "%s: %s" path e
  in
  let e2e = names_of "end_to_end" j and layers = names_of "per_layer" j in
  List.iter (check_entry "end_to_end") e2e;
  List.iter (check_entry "per_layer") layers;
  {
    sp_end_to_end =
      List.map
        (fun (n, x) ->
          match Json.num_opt (Json.member "bound" x) with
          | Some b -> (n, b)
          | None -> fail "end_to_end: %s has no bound" n)
        e2e;
    sp_per_layer = List.map fst layers;
    sp_workloads = List.map fst (names_of "workloads" j);
    sp_run_seconds =
      (match Json.num_opt (Json.member "run_seconds" j) with
      | Some s when s > 0.0 -> s
      | _ -> fail "%s: run_seconds missing or not positive" path);
  }

(* ---------- result documents ---------- *)

type result = {
  r_workload : string;
  r_seed : int;
  r_attempted : int;
  r_failed : int;
  r_metrics : (string * float) list;  (** catalog order *)
}

let json_num v =
  (* %.17g round-trips every double; JSON has no inf/nan *)
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json ?(clock = false) metrics =
  String.concat ", "
    (List.map
       (fun (name, v) ->
         let mt = Option.get (find name) in
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S%s}" name (json_num v)
           mt.unit_
           (if clock then Printf.sprintf ", \"clock\": %S" (clock_name mt.clock)
            else ""))
       metrics)

(* A run's last line: only the metrics BENCHMARK.json lists. *)
let summary_line r names =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.r_failed = 0) r.r_attempted r.r_failed
    (metrics_json (List.filter (fun (n, _) -> List.mem n names) r.r_metrics))

let result_json r =
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"correct\": %b, \"attempted\": %d, \
     \"failed\": %d, \"metrics\": {%s}}\n"
    r.r_workload r.r_seed (r.r_failed = 0) r.r_attempted r.r_failed
    (metrics_json ~clock:true r.r_metrics)

(* A saved result, and the unit each of its metrics was written with.
   @raise Failure on a file that is not one. *)
let read_result path =
  let j =
    try Json.parse (read_file path)
    with Json.Parse_error e -> fail "%s: %s" path e
  in
  let metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) -> kvs
    | _ -> fail "%s: no metrics object" path
  in
  let num key j =
    match Json.num_opt (Json.member key j) with
    | Some v -> v
    | None -> fail "%s: %s missing" path key
  in
  let r =
    {
      r_workload =
        (match Json.str_opt (Json.member "workload" j) with
        | Some w -> w
        | None -> fail "%s: no workload" path);
      r_seed = int_of_float (num "seed" j);
      r_attempted = int_of_float (num "attempted" j);
      r_failed = int_of_float (num "failed" j);
      r_metrics = List.map (fun (n, x) -> (n, num "value" x)) metrics;
    }
  in
  let units =
    List.map
      (fun (n, x) ->
        (n, Option.value (Json.str_opt (Json.member "unit" x)) ~default:""))
      metrics
  in
  (r, units)
