(* The end-to-end benchmark: one workload per process, timed only
   through the system's public calls, every output checked against the
   [Lime_ir.Interp] oracle. See README.md for the workloads, the
   metrics and how to compare two commits.

     e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
             [--json FILE] [--scale full|smoke] [--benchmark FILE]
     e2e.exe compare [--benchmark FILE] A.json... -- B.json...
     e2e.exe smoke [--benchmark FILE]

   A benchmark runner appends [--workload --seed --seconds --trace] to
   BENCHMARK.json's command; without [--seconds] a run measures for
   BENCHMARK.json's run_seconds. The last line of a run's standard
   output is one JSON object with the metrics BENCHMARK.json lists: its
   end_to_end metrics, or with [--trace 1] its per_layer ones. [--json]
   writes every metric, with its clock, to FILE (and the Chrome trace
   next to it). *)

module Compiler = Liquid_metal.Compiler
module Lm = Liquid_metal.Lm
module Exec = Runtime.Exec
module Metrics = Runtime.Metrics
module Trace = Support.Trace
module Stats = Support.Stats
module Engine = Serve.Engine
module Job = Serve.Job
module Planner = Placement.Planner
module S = Scenario

let now = Unix.gettimeofday

type scale = Full | Smoke

type opts = {
  workload : S.t;
  seed : int;
  seconds : float;
  traced : bool;
  json : string option;
  scale : scale;
}

let smoke_requests = 30
let smoke_setups = 3
let smoke_traced = 10

(* A set-up is cold every time (fresh compile, fresh engines, fresh
   profile store); the first one also pays for growing the heap, so it
   is discarded. A set-up takes milliseconds, so a full run repeats it
   for 4 s, longer than most of the phases in which a shared machine
   runs slower; and a slow stretch holds fewer set-ups than a fast one,
   so the median stays with the fast ones. All of them come before the
   measured loop: after it, the loop's heap makes them slower. *)
let min_setups = 7
let setup_seconds = 4.0

(* ---------- scratch space inside the working directory ---------- *)

let tmp_dir =
  lazy
    (let root = ".e2e-tmp" in
     let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
     List.iter (fun d -> try Sys.mkdir d 0o755 with Sys_error _ -> ()) [ root; dir ];
     at_exit (fun () ->
         Array.iter
           (fun f -> Sys.remove (Filename.concat dir f))
           (Sys.readdir dir);
         Sys.rmdir dir;
         try Sys.rmdir root with Sys_error _ -> ());
     dir)

let tmp name = Filename.concat (Lazy.force tmp_dir) name

let stores = ref 0

(* A profile store no earlier set-up has written. *)
let fresh_store () =
  incr stores;
  tmp (Printf.sprintf "store%d.profiles" !stores)

(* ---------- outcome tally ---------- *)

let attempted = ref 0
let failed = ref 0

let record ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 5 then Printf.eprintf "FAIL %s\n%!" what
  end

(* ---------- small helpers ---------- *)

let median xs = Stats.percentile xs 0.5
let fi = float_of_int
let ratio a b = if b > 0.0 then a /. b else 0.0
let sumf f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.starts_with ~prefix:"VmHWM:" l ->
                Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (fi kb /. 1024.0))
            | Some _ -> go ()
          in
          go ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

(* ---------- set-up ---------- *)

type setup = {
  su_wall : float;  (** s *)
  su_phases : (string * float) list;  (** phase group -> s *)
  su_engines : (string * Exec.t) list;
  su_plan_s : float;
  su_calibrated : int;
  su_hits : int;
  su_store : string;
}

let phase_group = function
  | "parse" | "typecheck" | "lower" -> "frontend"
  | "optimize" | "fuse" -> "optimize"
  | "analyze" | "analyze-fused" -> "analyze"
  | _ -> "backends"

let phase_groups = [ "frontend"; "optimize"; "analyze"; "backends" ]

(* Compile and attach an engine for every program; [plan] pairs also
   run the placement planner into the fresh profile store [store]. *)
let setup ?policy ~plan (w : S.t) ~store =
  let t0 = now () in
  let compiled =
    List.map
      (fun (wl : Workloads.t) ->
        ( wl.Workloads.name,
          Compiler.compile ~file:(wl.Workloads.name ^ ".lime") wl.Workloads.source ))
      w.S.programs
  in
  let engines = List.map (fun (n, c) -> (n, Compiler.engine ?policy c)) compiled in
  let t1 = now () in
  let reports =
    List.map
      (fun (p : S.pair) ->
        Planner.run ~profile_path:store ~n:p.S.size
          (List.assoc p.S.wl.Workloads.name compiled))
      plan
  in
  let t2 = now () in
  let phases =
    List.map
      (fun g ->
        ( g,
          sumf
            (fun (_, c) ->
              sumf
                (fun (ph, s) -> if phase_group ph = g then s else 0.0)
                c.Compiler.phase_seconds)
            compiled ))
      phase_groups
  in
  {
    su_wall = t2 -. t0;
    su_phases = phases;
    su_engines = engines;
    su_plan_s = t2 -. t1;
    su_calibrated = List.fold_left (fun a r -> a + r.Planner.rp_calibrated) 0 reports;
    su_hits = List.fold_left (fun a r -> a + r.Planner.rp_hits) 0 reports;
    su_store = store;
  }

(* Repeated cold set-ups: the median of all but the first, and the last
   one's engines and profile store for the measured loop. *)
let setups o ?policy ~plan w =
  let start = now () in
  let enough k =
    match o.scale with
    | Full -> k >= min_setups && now () -. start >= setup_seconds
    | Smoke -> k >= smoke_setups
  in
  let rec go k acc =
    let s = setup ?policy ~plan w ~store:(fresh_store ()) in
    (* keep the timings, not the engines: a set-up's heap must not
       outlive it *)
    let acc = if k = 1 then acc else { s with su_engines = [] } :: acc in
    if enough k then (s, acc) else go (k + 1) acc
  in
  let last, kept = go 1 [] in
  let med f = median (List.map f kept) in
  let metrics =
    [ ("setup_s", med (fun s -> s.su_wall)) ]
    @ List.map
        (fun g ->
          ( "compiler." ^ g ^ "_ms",
            1e3 *. med (fun s -> List.assoc g s.su_phases) ))
        phase_groups
    @ [
        ("placement.calibrate_ms", 1e3 *. med (fun s -> s.su_plan_s));
        ("placement.calibrated", fi last.su_calibrated);
        ("placement.hits", fi last.su_hits);
      ]
  in
  (last, metrics)

(* ---------- per-layer metrics of a traced run ---------- *)

let layer_metrics (l : Layers.t) (snaps : Metrics.snapshot list) =
  let sum f = sumf f snaps and sumi f = sumf (fun s -> fi (f s)) snaps in
  let ms layer = Layers.self_us l layer /. 1e3 in
  let ns layer = Layers.self_us l layer *. 1e3 in
  let both f =
    sumf (fun (s : Metrics.snapshot) -> f s.Metrics.marshal +. f s.Metrics.marshal_native) snaps
  in
  let insns = sumi (fun s -> s.Metrics.vm_instructions) in
  let kernel_ns = sum (fun s -> s.Metrics.gpu_kernel_ns) in
  let cycles = sumi (fun s -> s.Metrics.fpga_cycles) in
  [
    ("bytecode.vm_insns", insns);
    ("bytecode.vm_self_ms", ms "bytecode");
    ("bytecode.vm_share", Layers.share l "bytecode");
    ("bytecode.ns_per_insn", ratio (ns "bytecode") insns);
    ("gpu.kernels", sumi (fun s -> s.Metrics.gpu_kernels));
    ("gpu.kernel_modeled_us", kernel_ns /. 1e3);
    ("gpu.simt_self_ms", ms "gpu");
    ("gpu.simt_share", Layers.share l "gpu");
    ("gpu.host_ns_per_modeled_ns", ratio (ns "gpu") kernel_ns);
    ("rtl.cycles", cycles);
    ("rtl.fpga_modeled_us", sum (fun s -> s.Metrics.fpga_ns) /. 1e3);
    ("rtl.sim_self_ms", ms "rtl");
    ("rtl.sim_share", Layers.share l "rtl");
    ("rtl.ns_per_cycle", ratio (ns "rtl") cycles);
    ( "wire.bytes",
      both (fun b -> fi (b.Wire.Boundary.bytes_to_device + b.Wire.Boundary.bytes_to_host)) );
    ( "wire.crossings",
      both (fun b ->
          fi (b.Wire.Boundary.crossings_to_device + b.Wire.Boundary.crossings_to_host)) );
    ("wire.transfer_modeled_us", both (fun b -> b.Wire.Boundary.modeled_transfer_ns) /. 1e3);
    ("wire.boundary_self_ms", ms "wire");
    ("wire.boundary_share", Layers.share l "wire");
    ("runtime.exec_self_ms", ms "runtime");
    ("runtime.exec_share", Layers.share l "runtime");
    ("runtime.sched_steps", sumi (fun s -> s.Metrics.sched_steps));
    ("runtime.sched_blocked_steps", sumi (fun s -> s.Metrics.sched_blocked_steps));
    ("runtime.mr_chunks", sumi (fun s -> s.Metrics.mr_chunks));
    ("runtime.fused_launches", sumi (fun s -> s.Metrics.fused_launches));
    ("runtime.faults", sumi (fun s -> s.Metrics.device_faults));
  ]

(* Replay [requests] three times, each on a fresh untraced [setup]: the
   middle replay is traced, and the best of the other two is the
   baseline of the tracing overhead. [requests] returns the host
   seconds it timed and the per-engine metric deltas. The trace holds
   only the requests, so its top-level spans are their run:/job: roots,
   as [lmc report --from-trace] expects. *)
let traced_pair ~setup ~requests =
  let before, _ = requests (setup ()) in
  let su = setup () in
  (* an unbounded ring: the prefixes are sized so that every event fits
     in memory, and nothing may drop *)
  let sink = Trace.ring ~capacity:max_int () in
  Trace.set_sink sink;
  let traced, snaps = requests su in
  Trace.set_sink Trace.null;
  let after, _ = requests (setup ()) in
  ( sink,
    Layers.of_events ~wall_us:(traced *. 1e6) (Trace.events sink),
    snaps,
    [
      ("trace.overhead", ratio traced (Float.min before after));
      ("trace.dropped", fi (Trace.dropped sink));
    ] )

(* ---------- closed-loop workloads ---------- *)

let call oracle engines (p : S.pair) =
  let w = p.S.wl in
  let args = w.Workloads.args ~size:p.S.size in
  let e = List.assoc w.Workloads.name engines in
  let m0 = Exec.modeled_ns e in
  let t0 = now () in
  let out = try Ok (Exec.call e w.Workloads.entry args) with ex -> Error ex in
  let host = now () -. t0 in
  let modeled = Exec.modeled_ns e -. m0 in
  (match out with
  | Ok v -> record (S.agrees oracle p v) (S.pair_name p ^ ": output differs from the oracle")
  | Error ex -> record false (S.pair_name p ^ ": " ^ Printexc.to_string ex));
  (host, modeled)

let closed o (w : S.t) (c : S.closed) =
  let oracle = S.oracle () in
  (* the oracle, and one untimed request per pair to fill lazy state *)
  if o.scale = Full then Array.iter (fun p -> ignore (S.expected oracle p)) c.S.pairs;
  let su, setup_metrics = setups o ~policy:c.S.policy ~plan:[] w in
  let engines = su.su_engines in
  if o.scale = Full then Array.iter (fun p -> ignore (call oracle engines p)) c.S.pairs;

  let seq = S.rounds ~seed:o.seed c.S.pairs in
  let round = Array.length c.S.pairs in
  (* (wall time, requests) of each finished round, latest first *)
  let rounds = ref [] and current = ref [] and n = ref 0 in
  let gc0 = Gc.quick_stat () in
  let start = now () in
  let round_start = ref start in
  let close_round () =
    let t = now () in
    rounds := (t -. !round_start, !current) :: !rounds;
    current := [];
    round_start := t
  in
  let more () =
    match o.scale with
    | Full -> now () -. start < o.seconds || !rounds = []
    | Smoke -> !n < smoke_requests
  in
  while more () do
    current := call oracle engines (S.next seq) :: !current;
    incr n;
    if !n mod round = 0 then close_round ()
  done;
  (* a smoke run is shorter than one round *)
  if !rounds = [] then close_round ();
  let gc1 = Gc.quick_stat () in
  let rss = peak_rss_mb () in
  (* Only whole rounds count: every pair weighs the same wherever the
     deadline cut the last round, and two seeds measure the same work.
     A round's wall time covers building inputs, checking outputs and
     its share of the collector (a jvm_kernels round allocates about
     2.8 GB and spans several major cycles). A shared machine runs
     slower in phases of a few seconds, so throughput is the median over
     the rounds, not the whole loop's average. *)
  let kept = List.concat_map snd !rounds in
  let hosts = List.map fst kept in
  let round_rps = List.map (fun (wall, rq) -> fi (List.length rq) /. wall) !rounds in
  let e2e =
    [
      ("throughput_rps", median round_rps);
      ("latency_p50_ms", 1e3 *. median hosts);
      ("latency_p99_ms", 1e3 *. Stats.percentile hosts 0.99);
      ("latency_n", fi (List.length kept));
      ("peak_rss_mb", rss);
      ("modeled_us_geomean", Stats.geomean (List.map snd kept) /. 1e3);
      ( "gc.minor_mb_per_req",
        (gc1.Gc.minor_words -. gc0.Gc.minor_words) *. fi (Sys.word_size / 8) /. 1e6 /. fi !n );
      ("gc.major_collections", fi (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("serve.dispatch_self_ms", 0.0);
      ("serve.dispatch_share", 0.0);
      ("serve.batched_jobs", 0.0);
    ]
  in
  let layers =
    if not o.traced then None
    else begin
      let prefix =
        match o.scale with Full -> c.S.traced_prefix | Smoke -> smoke_traced
      in
      let sink, l, snaps, trace_metrics =
        traced_pair
          ~setup:(fun () -> setup ~policy:c.S.policy ~plan:[] w ~store:(fresh_store ()))
          ~requests:(fun su ->
            let snap () =
              List.map (fun (_, e) -> Metrics.snapshot (Exec.metrics e)) su.su_engines
            in
            let before = snap () in
            let seq = S.rounds ~seed:o.seed c.S.pairs in
            let host = ref 0.0 in
            for _ = 1 to prefix do
              host := !host +. fst (call oracle su.su_engines (S.next seq))
            done;
            (!host, List.map2 Metrics.diff (snap ()) before))
      in
      Some (sink, layer_metrics l snaps @ trace_metrics)
    end
  in
  (setup_metrics @ e2e, layers)

(* ---------- serve_mix ---------- *)

let shown oracle =
  let memo = Hashtbl.create 16 in
  fun (p : S.pair) ->
    let key = (p.S.wl.Workloads.name, p.S.size) in
    match Hashtbl.find_opt memo key with
    | Some s -> s
    | None ->
        let s = Lm.show (S.expected oracle p) in
        Hashtbl.add memo key s;
        s

(* One Engine.run over a whole load: a request on the host clock. *)
let drain expect config (load : Job.load) =
  let t0 = now () in
  let r = try Ok (Engine.run ~config load) with ex -> Error (Printexc.to_string ex) in
  let host = now () -. t0 in
  (match r with
  | Ok rep ->
      let served = Hashtbl.create 64 in
      List.iter
        (fun jr ->
          let spec = jr.Engine.jr_spec in
          Hashtbl.replace served spec.Job.j_id ();
          let p = { S.wl = Workloads.find spec.Job.j_workload; size = spec.Job.j_size } in
          record (jr.Engine.jr_output = expect p)
            (Printf.sprintf "job %d (%s): output differs from the oracle" spec.Job.j_id (S.pair_name p)))
        rep.Engine.sr_jobs;
      List.iter
        (fun j ->
          if not (Hashtbl.mem served j.Job.j_id) then
            record false (Printf.sprintf "job %d was never served" j.Job.j_id))
        load.Job.l_jobs
  | Error e -> List.iter (fun _ -> record false ("drain: " ^ e)) load.Job.l_jobs);
  (host, r)

let latencies (rep : Engine.report) =
  List.map
    (fun jr -> jr.Engine.jr_finish_ns -. jr.Engine.jr_spec.Job.j_arrival_ns)
    rep.Engine.sr_jobs

(* The latency limit behind serve_max_jps: p99 at most 500 us and no
   backlog left 500 us after the last arrival. *)
let limit_ns = 500_000.0

let meets_limit (load : Job.load) (rep : Engine.report) =
  let last = List.fold_left (fun a j -> Float.max a j.Job.j_arrival_ns) 0.0 load.Job.l_jobs in
  let finish =
    List.fold_left (fun a jr -> Float.max a jr.Engine.jr_finish_ns) 0.0 rep.Engine.sr_jobs
  in
  Stats.percentile (latencies rep) 0.99 <= limit_ns && finish <= last +. limit_ns

(* serve_max_jps comes from six log-space bisection steps over
   [nominal / 4, nominal * 4] jobs/s, whose first midpoint is the
   nominal rate: [12.5k, 200k] around 50k. *)
let bisection_steps = 6

let serve o (w : S.t) (s : S.serve) =
  let oracle = S.oracle () in
  let expect = shown oracle in
  if o.scale = Full then Array.iter (fun p -> ignore (expect p)) s.S.mix;
  let plan = Array.to_list s.S.mix in
  let su, setup_metrics = setups o ~plan w in
  let config = { Engine.default_config with Engine.c_profile_path = su.su_store } in
  let jobs = match o.scale with Full -> s.S.jobs | Smoke -> smoke_requests in
  let load = S.first jobs (S.serve_load ~seed:o.seed s) in
  if o.scale = Full then ignore (drain expect config (S.first 50 load));

  (* the virtual-clock results of the drain at the nominal rate *)
  let virtual_of (rep : Engine.report) =
    let jrs = rep.Engine.sr_jobs in
    let lat = latencies rep in
    let busy d =
      sumf
        (fun dr -> if dr.Engine.dr_device = d then dr.Engine.dr_busy_ns else 0.0)
        rep.Engine.sr_devices
    in
    [
      ("modeled_us_geomean", Stats.geomean (List.map (fun jr -> jr.Engine.jr_service_ns) jrs) /. 1e3);
      ("serve_p50_us", Stats.percentile lat 0.50 /. 1e3);
      ("serve_p99_us", Stats.percentile lat 0.99 /. 1e3);
      ( "serve.queue_delay_p99_us",
        Stats.percentile
          (List.map (fun jr -> jr.Engine.jr_start_ns -. jr.Engine.jr_spec.Job.j_arrival_ns) jrs)
          0.99
        /. 1e3 );
      ("serve.service_us_mean", sumf (fun jr -> jr.Engine.jr_service_ns) jrs /. fi (List.length jrs) /. 1e3);
      ("serve.batched_jobs", sumf (fun dr -> fi dr.Engine.dr_batched_jobs) rep.Engine.sr_devices);
    ]
    @ List.map
        (fun d -> ("serve.util." ^ d, ratio (busy d) rep.Engine.sr_wall_ns))
        [ "gpu"; "fpga"; "native"; "vm" ]
    @ [
        ( "serve.predict_ratio",
          Stats.geomean
            (List.filter_map
               (fun jr ->
                 if jr.Engine.jr_predicted_ns > 0.0 && jr.Engine.jr_service_ns > 0.0 then
                   Some (jr.Engine.jr_predicted_ns /. jr.Engine.jr_service_ns)
                 else None)
               jrs) );
      ]
  in
  (* The measured loop drains the load again and again, its arrival
     times rescaled. The first six drains are the bisection, the first
     of them at the nominal rate; later drains repeat those six rates in
     turn, and one that would end past the deadline is not started. *)
  let lo = ref (s.S.nominal_jps /. 4.0) and hi = ref (s.S.nominal_jps *. 4.0) in
  let asked = Array.make bisection_steps 0.0 in
  let hosts = ref [] and nominal = ref [] in
  let gc0 = Gc.quick_stat () in
  let start = now () in
  let more () =
    match (o.scale, !hosts) with
    | _, hs when List.length hs < bisection_steps -> true
    | Full, last :: _ -> now () -. start +. last <= o.seconds
    | _ -> false
  in
  while more () do
    let k = List.length !hosts in
    let rate =
      if k < bisection_steps then sqrt (!lo *. !hi) else asked.(k mod bisection_steps)
    in
    let l = S.at_rate s load rate in
    let h, r = drain expect config l in
    hosts := h :: !hosts;
    if k < bisection_steps then begin
      asked.(k) <- rate;
      let ok = match r with Ok rep -> meets_limit l rep | Error _ -> false in
      if ok then lo := rate else hi := rate;
      if k = 0 then nominal := (match r with Ok rep -> virtual_of rep | Error _ -> [])
    end
  done;
  let wall = now () -. start in
  let gc1 = Gc.quick_stat () in
  let rss = peak_rss_mb () in
  let n = List.length !hosts in
  let e2e =
    [
      ("throughput_rps", fi (n * jobs) /. wall);
      ("latency_p50_ms", 1e3 *. median !hosts);
      ("latency_n", fi n);
      ("peak_rss_mb", rss);
      ("serve_max_jps", !lo);
      ( "gc.minor_mb_per_req",
        (gc1.Gc.minor_words -. gc0.Gc.minor_words) *. fi (Sys.word_size / 8) /. 1e6 /. fi (n * jobs) );
      ("gc.major_collections", fi (gc1.Gc.major_collections - gc0.Gc.major_collections));
    ]
    @ !nominal
  in
  let layers =
    if not o.traced then None
    else begin
      let prefix =
        S.first (match o.scale with Full -> s.S.traced_jobs | Smoke -> smoke_traced) load
      in
      let sink, l, snaps, trace_metrics =
        traced_pair
          ~setup:(fun () -> setup ~plan w ~store:(fresh_store ()))
          ~requests:(fun su ->
            let config = { config with Engine.c_profile_path = su.su_store } in
            match drain expect config prefix with
            | host, Ok rep -> (host, List.map (fun jr -> jr.Engine.jr_metrics) rep.Engine.sr_jobs)
            | host, Error _ -> (host, []))
      in
      (* the drain's host time outside its jobs' spans *)
      let dispatch_us = l.Layers.wall_us -. l.Layers.roots_us in
      Some
        ( sink,
          layer_metrics l snaps
          @ [
              ("serve.dispatch_self_ms", dispatch_us /. 1e3);
              ("serve.dispatch_share", 100.0 *. ratio dispatch_us l.Layers.wall_us);
            ]
          @ trace_metrics )
    end
  in
  (setup_metrics @ e2e, layers)

(* ---------- one run ---------- *)

let run (spec : Catalog.spec) o =
  let w = o.workload in
  let metrics, layers =
    match w.S.kind with
    | S.Closed c -> closed o w c
    | S.Serve s -> serve o w s
  in
  let layer_metrics = match layers with Some (_, m) -> m | None -> [] in
  let all = metrics @ layer_metrics @ [ ("failed_frac", ratio (fi !failed) (fi !attempted)) ] in
  (* catalog order, each metric once *)
  let ordered =
    List.filter_map
      (fun (mt : Catalog.metric) ->
        Option.map (fun v -> (mt.Catalog.name, v)) (List.assoc_opt mt.Catalog.name all))
      Catalog.all
  in
  let result =
    {
      Catalog.r_workload = w.S.name;
      r_seed = o.seed;
      r_attempted = !attempted;
      r_failed = !failed;
      r_metrics = ordered;
    }
  in
  Printf.printf "e2e %s seed=%d%s: %d attempted, %d failed\n" w.S.name o.seed
    (match o.scale with Full -> "" | Smoke -> " (smoke)")
    !attempted !failed;
  let t = Stats.Table.create ~columns:[ "metric"; "value"; "unit"; "clock" ] in
  List.iter
    (fun (name, v) ->
      let mt = Option.get (Catalog.find name) in
      Stats.Table.add_row t
        [ name; Printf.sprintf "%.6g" v; mt.Catalog.unit_; Catalog.clock_name mt.Catalog.clock ])
    ordered;
  print_string (Stats.Table.render t);
  (match o.json with
  | None -> ()
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Catalog.result_json result));
      Option.iter
        (fun (sink, _) ->
          let trace_path =
            Filename.concat (Filename.dirname path) (w.S.name ^ ".trace.json")
          in
          Out_channel.with_open_bin trace_path (fun oc ->
              output_string oc
                (Trace.Chrome.to_json ~process_name:("e2e " ^ w.S.name) sink));
          Printf.printf "trace: %s\n" trace_path)
        layers);
  let wanted =
    if o.traced then spec.Catalog.sp_per_layer else List.map fst spec.Catalog.sp_end_to_end
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name ordered) then
        Printf.eprintf "warning: %s is listed in BENCHMARK.json but was not measured\n" name)
    wanted;
  print_endline (Catalog.summary_line result wanted);
  if !failed > 0 then exit 1

(* ---------- command line ---------- *)

let usage () =
  prerr_endline
    "usage: e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--json FILE] [--scale full|smoke] [--benchmark FILE]\n\
    \       e2e.exe compare [--benchmark FILE] A.json... -- B.json...\n\
    \       e2e.exe smoke [--benchmark FILE]";
  exit 2

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("e2e: " ^ m); exit 2) fmt

(* --key value pairs, plus the positional rest *)
let parse_flags args =
  let rec go acc pos = function
    | [] -> (List.rev acc, List.rev pos)
    | k :: v :: rest when String.starts_with ~prefix:"--" k && k <> "--" ->
        go ((k, v) :: acc) pos rest
    | [ k ] when String.starts_with ~prefix:"--" k && k <> "--" -> die "%s needs a value" k
    | x :: rest -> go acc (x :: pos) rest
  in
  go [] [] args

let spec_path flags =
  Option.value (List.assoc_opt "--benchmark" flags) ~default:"BENCHMARK.json"

let load_spec flags =
  try Catalog.load_spec (spec_path flags) with Failure m -> die "%s" m

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest ->
      let flags, files =
        match rest with
        | "--benchmark" :: path :: files -> ([ ("--benchmark", path) ], files)
        | files -> ([], files)
      in
      let rec split acc = function
        | "--" :: b -> (List.rev acc, b)
        | x :: r -> split (x :: acc) r
        | [] -> usage ()
      in
      let a, b = split [] files in
      exit (Compare.run (load_spec flags) a b)
  | "smoke" :: rest ->
      let flags, _ = parse_flags rest in
      exit (Smoke.run (load_spec flags) ~benchmark:(spec_path flags) ~tmp)
  | args ->
      let flags, pos = parse_flags args in
      if pos <> [] then usage ();
      List.iter
        (fun (k, _) ->
          if not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace"; "--json"; "--scale"; "--benchmark" ])
          then die "unknown option %s" k)
        flags;
      let spec = load_spec flags in
      let get k = List.assoc_opt k flags in
      let int_of k v = match int_of_string_opt v with Some n -> n | None -> die "%s wants an integer, got %S" k v in
      let workload =
        match get "--workload" with
        | None -> usage ()
        | Some name -> (
            match S.find name with
            | Some w -> w
            | None ->
                die "unknown workload %S (one of %s)" name
                  (String.concat ", " (List.map (fun w -> w.S.name) S.all)))
      in
      let o =
        {
          workload;
          seed = Option.fold ~none:1 ~some:(int_of "--seed") (get "--seed");
          seconds =
            (match get "--seconds" with
            | None -> spec.Catalog.sp_run_seconds
            | Some v -> (
                match float_of_string_opt v with
                | Some s when s > 0.0 -> s
                | _ -> die "--seconds wants a positive number, got %S" v));
          traced =
            (match get "--trace" with
            | None | Some "0" -> false
            | Some "1" -> true
            | Some v -> die "--trace wants 0 or 1, got %S" v);
          json = get "--json";
          scale =
            (match get "--scale" with
            | None | Some "full" -> Full
            | Some "smoke" -> Smoke
            | Some v -> die "--scale wants full or smoke, got %S" v);
        }
      in
      run spec o
