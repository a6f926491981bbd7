module Stats = Support.Stats
module Trace = Support.Trace
module Exec = Runtime.Exec
module Metrics = Runtime.Metrics
module Store = Runtime.Store
module Artifact = Runtime.Artifact
module Substitute = Runtime.Substitute
module Planner = Placement.Planner
module Calibrate = Placement.Calibrate
module Profile = Placement.Profile
module Compiler = Liquid_metal.Compiler
module Lm = Liquid_metal.Lm

type config = {
  c_slots : (string * int) list;
  c_quantum_ns : float;
  c_batch_window_ns : float;
  c_batch_max : int;
  c_profile_path : string;
}

let default_config =
  {
    c_slots = [ ("gpu", 1); ("fpga", 1); ("native", 1); ("vm", 1) ];
    c_quantum_ns = 1_000.0;
    c_batch_window_ns = 10_000.0;
    c_batch_max = 4;
    c_profile_path = "lm.profiles";
  }

type job_result = {
  jr_spec : Job.spec;
  jr_device : string;
  jr_start_ns : float;
  jr_finish_ns : float;
  jr_service_ns : float;
  jr_predicted_ns : float;
  jr_batched : bool;
  jr_output : string;
  jr_metrics : Metrics.snapshot;
}

type tenant_report = {
  tr_tenant : Job.tenant;
  tr_submitted : int;
  tr_admitted : int;
  tr_rejected : int;
  tr_completed : int;
  tr_peak_outstanding : int;
  tr_service_ns : float;
  tr_contended_service_ns : float;
  tr_latencies_ns : float array;
  tr_throughput_jps : float;
}

type device_report = {
  dr_device : string;
  dr_slots : int;
  dr_windows : int;
  dr_jobs : int;
  dr_batched_jobs : int;
  dr_busy_ns : float;
  dr_peak_occupancy : int;
}

type report = {
  sr_wall_ns : float;
  sr_contended_until_ns : float;
  sr_tenants : tenant_report list;
  sr_devices : device_report list;
  sr_jobs : job_result list;
}

exception Serve_error of string

let serve_error fmt = Printf.ksprintf (fun m -> raise (Serve_error m)) fmt

(* The schedulable devices, in deterministic preference order for
   score ties. "vm" is the interpreter: always available, no artifact. *)
let devices =
  [
    ("gpu", Some Artifact.Gpu);
    ("fpga", Some Artifact.Fpga);
    ("native", Some Artifact.Native);
    ("vm", None);
  ]

(* ---------- per-workload compilation cache ---------- *)

type dev_plan = {
  dp_makespan : float;
  dp_artifacts : (Artifact.device * string) list;  (* device, uid *)
}

(* What every job of one (workload, size) shares within a drain: its
   placement, its inputs and its reference check. Lime values are
   immutable, so one input value serves every job's [Exec.call]. *)
type pair = {
  p_cost : float;  (* calibrated best makespan: the WDRR debit *)
  p_devices : (string * dev_plan) list;
  p_args : Lm.I.v list;
  p_check : (Lm.I.v -> (unit, string) result) option;
}

type wl = {
  w_workload : Workloads.t;
  w_engine : Exec.t;
  w_ctx : Calibrate.ctx;
  w_pairs : (int, pair) Hashtbl.t;
}

(* ---------- virtual-time state ---------- *)

type pending_job = {
  pj_spec : Job.spec;
  pj_service : float;
  pj_predicted : float;
  pj_output : string;
  pj_metrics : Metrics.snapshot;
}

type window = {
  w_device : string;
  w_created : float;  (* dispatch time of the first job *)
  mutable w_start : float;
  mutable w_end : float;
  mutable w_jobs : pending_job list;  (* newest first *)
  mutable w_done : bool;
}

type slot = { mutable sl_free : float; mutable sl_tail : window option }

type dstate = {
  ds_name : string;
  ds_art : Artifact.device option;
  ds_slots : slot array;
}

(* One boundary crossing's latency on device [d]: what a coalesced
   launch saves per extra job (both directions) and what residency
   saves per staged artifact. Read from the workload engine's boundary
   models: PCIe-class for the accelerators, JNI for native, nothing
   for the interpreter. *)
let boundary_latency engine d =
  let m = Exec.metrics engine in
  match d.ds_art with
  | Some (Artifact.Gpu | Artifact.Fpga) ->
    Wire.Boundary.transfer_ns (Metrics.boundary m) 0
  | Some Artifact.Native ->
    Wire.Boundary.transfer_ns (Metrics.native_boundary m) 0
  | Some Artifact.Cpu | None -> 0.0

type tstate = {
  ts_tenant : Job.tenant;
  ts_queue : Job.spec Queue.t;
  mutable ts_deficit : float;
  mutable ts_outstanding : int;
  mutable ts_peak : int;
  mutable ts_submitted : int;
  mutable ts_admitted : int;
  mutable ts_rejected : int;
  mutable ts_completed : int;
  mutable ts_service : float;
  mutable ts_latencies : float list;  (* completion order, reversed *)
}

let run ?(config = default_config) load =
  (match Job.validate load with
  | Ok () -> ()
  | Error m -> raise (Serve_error m));
  let slots_of name =
    Option.value (List.assoc_opt name config.c_slots) ~default:0
  in
  let devs =
    List.filter_map
      (fun (name, art) ->
        let n = slots_of name in
        if n <= 0 then None
        else
          Some
            {
              ds_name = name;
              ds_art = art;
              ds_slots =
                Array.init n (fun _ -> { sl_free = 0.0; sl_tail = None });
            })
      devices
  in
  if devs = [] then serve_error "no device slots configured";
  if config.c_quantum_ns <= 0.0 then serve_error "quantum must be positive";
  if config.c_batch_max < 1 then serve_error "batch_max must be >= 1";

  let profile_store = Profile.load config.c_profile_path in
  let wl_cache = Hashtbl.create 7 in
  let wl_of name =
    match Hashtbl.find_opt wl_cache name with
    | Some w -> w
    | None ->
        let workload = Workloads.find name in
        let compiled =
          Compiler.compile ~file:(name ^ ".lime") workload.Workloads.source
        in
        let ctx = Calibrate.create ~profile_store compiled in
        let engine = Compiler.engine compiled in
        Exec.set_cost_model engine (Planner.cost_fn ctx);
        let w =
          {
            w_workload = workload;
            w_engine = engine;
            w_ctx = ctx;
            w_pairs = Hashtbl.create 4;
          }
        in
        Hashtbl.add wl_cache name w;
        w
  in
  (* Per-(workload, size) state, built on the pair's first job: one
     planner pass gives every device's calibrated makespan plus the
     artifact set the plan would stage there (the residency-bonus join
     key); the inputs and the reference check are built once too. *)
  let pair_of w n =
    match Hashtbl.find_opt w.w_pairs n with
    | Some p -> p
    | None ->
        let report = Planner.plan w.w_ctx ~n in
        let cand_name = function "vm" -> "bytecode" | d -> d ^ "-only" in
        let per_device =
          List.map
            (fun (dname, _) ->
              let ms, arts =
                List.fold_left
                  (fun (ms, arts) g ->
                    let c =
                      match
                        List.find_opt
                          (fun c -> c.Planner.cd_name = cand_name dname)
                          g.Planner.gp_candidates
                      with
                      | Some c -> c
                      | None -> g.Planner.gp_planned
                    in
                    let arts' =
                      List.filter_map
                        (function
                          | Substitute.S_device (a, _) ->
                              Some (Artifact.device a, Artifact.uid a)
                          | Substitute.S_bytecode _ -> None)
                        c.Planner.cd_plan
                    in
                    (ms +. c.Planner.cd_makespan_ns, arts' @ arts))
                  (0.0, []) report.Planner.rp_graphs
              in
              (dname, { dp_makespan = ms; dp_artifacts = arts }))
            devices
        in
        let cost =
          List.fold_left
            (fun acc g -> acc +. g.Planner.gp_planned.Planner.cd_makespan_ns)
            0.0 report.Planner.rp_graphs
        in
        let p =
          {
            p_cost = Float.max cost 1.0;
            p_devices = per_device;
            p_args = w.w_workload.Workloads.args ~size:n;
            p_check =
              Option.map (fun check -> check ~size:n) w.w_workload.Workloads.validate;
          }
        in
        Hashtbl.add w.w_pairs n p;
        p
  in

  let tstates =
    List.map
      (fun t ->
        {
          ts_tenant = t;
          ts_queue = Queue.create ();
          ts_deficit = 0.0;
          ts_outstanding = 0;
          ts_peak = 0;
          ts_submitted = 0;
          ts_admitted = 0;
          ts_rejected = 0;
          ts_completed = 0;
          ts_service = 0.0;
          ts_latencies = [];
        })
      load.Job.l_tenants
  in
  let tstate_of name =
    List.find (fun ts -> ts.ts_tenant.Job.t_name = name) tstates
  in
  let windows = ref [] in

  let earliest_free d =
    let best = ref 0 in
    Array.iteri
      (fun i sl -> if sl.sl_free < d.ds_slots.(!best).sl_free then best := i)
      d.ds_slots;
    (!best, d.ds_slots.(!best).sl_free)
  in

  (* Data-aware score: when would this job finish on device [d]?
     Queue delay on the device's least-loaded slot, plus the
     calibrated makespan, minus a residency credit for every artifact
     of the plan already staged there (those boundary crossings were
     already paid by an earlier job). *)
  let score now w p d =
    let dplan = List.assoc d.ds_name p.p_devices in
    let store = Exec.store w.w_engine in
    let bonus =
      List.fold_left
        (fun acc (dev, uid) ->
          if Some dev = d.ds_art && Store.is_resident store ~device:dev ~uid
          then acc +. (2.0 *. boundary_latency w.w_engine d)
          else acc)
        0.0 dplan.dp_artifacts
    in
    let slot_i, free = earliest_free d in
    let start = Float.max now free in
    (start +. dplan.dp_makespan -. bonus, slot_i, start, dplan.dp_makespan)
  in

  let dispatch now spec =
    let w = wl_of spec.Job.j_workload in
    let p = pair_of w spec.Job.j_size in
    let best =
      List.fold_left
        (fun acc d ->
          let est, slot_i, start, ms = score now w p d in
          match acc with
          | Some (best_est, _, _, _, _) when best_est <= est -> acc
          | _ -> Some (est, d, slot_i, start, ms))
        None devs
    in
    let _, d, slot_i, start, makespan = Option.get best in
    let slot = d.ds_slots.(slot_i) in
    let coalesce =
      if d.ds_name = "vm" then None
      else
        match slot.sl_tail with
        | Some tw
          when (not tw.w_done)
               && (match tw.w_jobs with
                  | pj :: _ ->
                      pj.pj_spec.Job.j_workload = spec.Job.j_workload
                      && pj.pj_spec.Job.j_size = spec.Job.j_size
                  | [] -> false)
               && List.length tw.w_jobs < config.c_batch_max
               && now -. tw.w_created <= config.c_batch_window_ns ->
            Some tw
        | _ -> None
    in
    (* Really execute, pinned to the scheduler's choice. The engine is
       shared across the tenant's and everyone else's jobs of this
       workload — quarantines, residency and profiles are common state. *)
    let policy =
      match d.ds_art with
      | None -> Substitute.Bytecode_only
      | Some dev -> Substitute.Prefer_devices [ dev ]
    in
    Exec.set_policy w.w_engine policy;
    let m0 = Metrics.snapshot (Exec.metrics w.w_engine) in
    let t0 = Exec.modeled_ns w.w_engine in
    let out =
      Trace.with_span
        ~args:
          [
            ("tenant", Trace.Str spec.Job.j_tenant);
            ("workload", Trace.Str spec.Job.j_workload);
            ("device", Trace.Str d.ds_name);
            ("job", Trace.Int spec.Job.j_id);
            ("size", Trace.Int spec.Job.j_size);
          ]
        ~cat:"job"
        (Printf.sprintf "job:%s:%s" spec.Job.j_tenant spec.Job.j_workload)
        (fun () -> Exec.call w.w_engine w.w_workload.Workloads.entry p.p_args)
    in
    let service = Exec.modeled_ns w.w_engine -. t0 in
    let m1 = Metrics.snapshot (Exec.metrics w.w_engine) in
    (match p.p_check with
    | Some check -> (
        match check out with
        | Ok () -> ()
        | Error m ->
            serve_error "job %d (%s on %s): %s" spec.Job.j_id
              spec.Job.j_workload d.ds_name m)
    | None -> ());
    let pj =
      {
        pj_spec = spec;
        pj_service = service;
        pj_predicted = makespan;
        pj_output = Lm.show out;
        pj_metrics = Metrics.diff m1 m0;
      }
    in
    match coalesce with
    | Some tw ->
        (* One occupancy window, one pair of boundary crossings: the
           coalesced job rides the window's launch. *)
        let saving = 2.0 *. boundary_latency w.w_engine d in
        tw.w_end <- tw.w_end +. Float.max 0.0 (service -. saving);
        tw.w_jobs <- pj :: tw.w_jobs;
        slot.sl_free <- tw.w_end
    | None ->
        let win =
          {
            w_device = d.ds_name;
            w_created = now;
            w_start = start;
            w_end = start +. service;
            w_jobs = [ pj ];
            w_done = false;
          }
        in
        slot.sl_free <- win.w_end;
        slot.sl_tail <- Some win;
        windows := win :: !windows
  in

  (* Weighted deficit round-robin over the tenant queues: each round
     credits quantum * weight; a tenant dispatches while its deficit
     covers the head job's calibrated cost. Rounds repeat until every
     queue drains (capacity is a timeline, so dispatch never blocks —
     contention shows up as queue delay on the slots). *)
  let wdrr now =
    let rec rounds () =
      if List.exists (fun ts -> not (Queue.is_empty ts.ts_queue)) tstates
      then begin
        List.iter
          (fun ts ->
            if not (Queue.is_empty ts.ts_queue) then begin
              ts.ts_deficit <-
                ts.ts_deficit
                +. (config.c_quantum_ns
                   *. float_of_int ts.ts_tenant.Job.t_weight);
              let rec drain () =
                match Queue.peek_opt ts.ts_queue with
                | Some spec ->
                    let w = wl_of spec.Job.j_workload in
                    let cost = (pair_of w spec.Job.j_size).p_cost in
                    if ts.ts_deficit >= cost then begin
                      ignore (Queue.pop ts.ts_queue);
                      ts.ts_deficit <- ts.ts_deficit -. cost;
                      dispatch now spec;
                      drain ()
                    end
                | None -> ()
              in
              drain ();
              if Queue.is_empty ts.ts_queue then ts.ts_deficit <- 0.0
            end)
          tstates;
        rounds ()
      end
    in
    rounds ()
  in

  let complete t =
    List.iter
      (fun w ->
        if (not w.w_done) && w.w_end <= t +. 1e-9 then begin
          w.w_done <- true;
          List.iter
            (fun pj ->
              let ts = tstate_of pj.pj_spec.Job.j_tenant in
              ts.ts_completed <- ts.ts_completed + 1;
              ts.ts_outstanding <- ts.ts_outstanding - 1;
              ts.ts_service <- ts.ts_service +. pj.pj_service;
              ts.ts_latencies <-
                (w.w_end -. pj.pj_spec.Job.j_arrival_ns) :: ts.ts_latencies)
            (List.rev w.w_jobs)
        end)
      !windows
  in
  let admit spec =
    let ts = tstate_of spec.Job.j_tenant in
    ts.ts_submitted <- ts.ts_submitted + 1;
    if ts.ts_outstanding >= ts.ts_tenant.Job.t_quota then
      ts.ts_rejected <- ts.ts_rejected + 1
    else begin
      ts.ts_admitted <- ts.ts_admitted + 1;
      ts.ts_outstanding <- ts.ts_outstanding + 1;
      ts.ts_peak <- max ts.ts_peak ts.ts_outstanding;
      Queue.push spec ts.ts_queue
    end
  in

  let pending = ref load.Job.l_jobs in
  let now = ref 0.0 in
  let next_completion () =
    List.fold_left
      (fun acc w ->
        if w.w_done then acc
        else
          match acc with
          | None -> Some w.w_end
          | Some t -> Some (Float.min t w.w_end))
      None !windows
  in
  let rec loop () =
    let next_arrival =
      match !pending with [] -> None | j :: _ -> Some j.Job.j_arrival_ns
    in
    match (next_arrival, next_completion ()) with
    | None, None -> ()
    | a, c ->
        let t =
          match (a, c) with
          | Some a, Some c -> Float.min a c
          | Some a, None -> a
          | None, Some c -> c
          | None, None -> assert false
        in
        now := Float.max !now t;
        (* completions free quota before simultaneous arrivals admit *)
        complete !now;
        let arrivals, rest =
          List.partition
            (fun j -> j.Job.j_arrival_ns <= !now +. 1e-9)
            !pending
        in
        pending := rest;
        List.iter admit arrivals;
        wdrr !now;
        loop ()
  in
  loop ();
  Profile.save profile_store;

  (* ---------- reporting ---------- *)
  let all_windows = List.rev !windows in
  let jobs =
    List.concat_map
      (fun w ->
        let batched = List.length w.w_jobs > 1 in
        List.rev_map
          (fun pj ->
            {
              jr_spec = pj.pj_spec;
              jr_device = w.w_device;
              jr_start_ns = w.w_start;
              jr_finish_ns = w.w_end;
              jr_service_ns = pj.pj_service;
              jr_predicted_ns = pj.pj_predicted;
              jr_batched = batched;
              jr_output = pj.pj_output;
              jr_metrics = pj.pj_metrics;
            })
          w.w_jobs)
      all_windows
    |> List.sort (fun a b -> compare a.jr_spec.Job.j_id b.jr_spec.Job.j_id)
  in
  let wall =
    List.fold_left (fun acc w -> Float.max acc w.w_end) 0.0 all_windows
  in
  (* The contended window: until the first tenant runs out of work,
     every tenant is competing, so the WDRR shares are judged there. *)
  let contended_until =
    let last_starts =
      List.filter_map
        (fun ts ->
          let starts =
            List.filter_map
              (fun jr ->
                if jr.jr_spec.Job.j_tenant = ts.ts_tenant.Job.t_name then
                  Some jr.jr_start_ns
                else None)
              jobs
          in
          match starts with
          | [] -> None
          | ss -> Some (List.fold_left Float.max 0.0 ss))
        tstates
    in
    match last_starts with
    | [] -> 0.0
    | ss -> List.fold_left Float.min wall ss
  in
  let tenants =
    List.map
      (fun ts ->
        let contended =
          List.fold_left
            (fun acc jr ->
              if
                jr.jr_spec.Job.j_tenant = ts.ts_tenant.Job.t_name
                && jr.jr_start_ns <= contended_until +. 1e-9
              then acc +. jr.jr_service_ns
              else acc)
            0.0 jobs
        in
        {
          tr_tenant = ts.ts_tenant;
          tr_submitted = ts.ts_submitted;
          tr_admitted = ts.ts_admitted;
          tr_rejected = ts.ts_rejected;
          tr_completed = ts.ts_completed;
          tr_peak_outstanding = ts.ts_peak;
          tr_service_ns = ts.ts_service;
          tr_contended_service_ns = contended;
          tr_latencies_ns = Array.of_list (List.rev ts.ts_latencies);
          tr_throughput_jps =
            (if wall > 0.0 then float_of_int ts.ts_completed /. (wall /. 1e9)
             else 0.0);
        })
      tstates
  in
  let dev_reports =
    List.map
      (fun d ->
        let mine = List.filter (fun w -> w.w_device = d.ds_name) all_windows in
        let jobs_of = List.fold_left (fun n w -> n + List.length w.w_jobs) 0 in
        let batched =
          List.fold_left
            (fun n w ->
              let k = List.length w.w_jobs in
              if k > 1 then n + k else n)
            0 mine
        in
        (* sweep the window intervals for the peak slot occupancy *)
        let edges =
          List.concat_map (fun w -> [ (w.w_start, 1); (w.w_end, -1) ]) mine
          |> List.sort (fun (ta, da) (tb, db) ->
                 match compare ta tb with 0 -> compare da db | c -> c)
        in
        let peak, _ =
          List.fold_left
            (fun (peak, cur) (_, d) ->
              let cur = cur + d in
              (max peak cur, cur))
            (0, 0) edges
        in
        {
          dr_device = d.ds_name;
          dr_slots = Array.length d.ds_slots;
          dr_windows = List.length mine;
          dr_jobs = jobs_of mine;
          dr_batched_jobs = batched;
          dr_busy_ns =
            List.fold_left (fun acc w -> acc +. (w.w_end -. w.w_start)) 0.0 mine;
          dr_peak_occupancy = peak;
        })
      devs
  in
  {
    sr_wall_ns = wall;
    sr_contended_until_ns = contended_until;
    sr_tenants = tenants;
    sr_devices = dev_reports;
    sr_jobs = jobs;
  }

let solo_output spec =
  let w = Workloads.find spec.Job.j_workload in
  let session = Lm.load w.Workloads.source in
  let out =
    Lm.run session w.Workloads.entry (w.Workloads.args ~size:spec.Job.j_size)
  in
  Lm.show out

(* ---------- rendering ---------- *)

let us ns = Printf.sprintf "%.1f" (ns /. 1e3)

let render r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "serve: %d jobs, %d tenants, virtual wall %.1f us (contended %.1f us)\n\n"
       (List.length r.sr_jobs)
       (List.length r.sr_tenants)
       (r.sr_wall_ns /. 1e3)
       (r.sr_contended_until_ns /. 1e3));
  let total_contended =
    List.fold_left (fun acc t -> acc +. t.tr_contended_service_ns) 0.0
      r.sr_tenants
  in
  let tt =
    Stats.Table.create
      ~columns:
        [
          "tenant"; "weight"; "sub"; "adm"; "rej"; "done"; "jobs/s";
          "p50_us"; "p95_us"; "p99_us"; "share"; "fair";
        ]
  in
  List.iter
    (fun t ->
      let lats = Array.to_list t.tr_latencies_ns in
      let p50, p95, p99 =
        match lats with
        | [] -> ("-", "-", "-")
        | _ ->
            let s = Stats.summarize lats in
            (us s.Stats.p50, us s.Stats.p95, us s.Stats.p99)
      in
      let share =
        if total_contended > 0.0 then
          t.tr_contended_service_ns /. total_contended
        else 0.0
      in
      let total_weight =
        List.fold_left
          (fun acc t -> acc + t.tr_tenant.Job.t_weight)
          0 r.sr_tenants
      in
      let fair =
        float_of_int t.tr_tenant.Job.t_weight /. float_of_int total_weight
      in
      Stats.Table.add_row tt
        [
          t.tr_tenant.Job.t_name;
          string_of_int t.tr_tenant.Job.t_weight;
          string_of_int t.tr_submitted;
          string_of_int t.tr_admitted;
          string_of_int t.tr_rejected;
          string_of_int t.tr_completed;
          Printf.sprintf "%.0f" t.tr_throughput_jps;
          p50;
          p95;
          p99;
          Printf.sprintf "%.2f" share;
          Printf.sprintf "%.2f" fair;
        ])
    r.sr_tenants;
  Buffer.add_string b (Stats.Table.render tt);
  Buffer.add_char b '\n';
  let dt =
    Stats.Table.create
      ~columns:
        [ "device"; "slots"; "windows"; "jobs"; "batched"; "busy_us"; "peak" ]
  in
  List.iter
    (fun d ->
      Stats.Table.add_row dt
        [
          d.dr_device;
          string_of_int d.dr_slots;
          string_of_int d.dr_windows;
          string_of_int d.dr_jobs;
          string_of_int d.dr_batched_jobs;
          us d.dr_busy_ns;
          string_of_int d.dr_peak_occupancy;
        ])
    r.sr_devices;
  Buffer.add_string b (Stats.Table.render dt);
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_json r =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"wall_ns\": %.1f, \"contended_until_ns\": %.1f, \"tenants\": ["
       r.sr_wall_ns r.sr_contended_until_ns);
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string b ", ";
      let lats = Array.to_list t.tr_latencies_ns in
      let p50, p95, p99 =
        match lats with
        | [] -> (0.0, 0.0, 0.0)
        | _ ->
            let s = Stats.summarize lats in
            (s.Stats.p50, s.Stats.p95, s.Stats.p99)
      in
      Buffer.add_string b
        (Printf.sprintf
           "{\"tenant\": \"%s\", \"weight\": %d, \"submitted\": %d, \
            \"admitted\": %d, \"rejected\": %d, \"completed\": %d, \
            \"peak_outstanding\": %d, \"service_ns\": %.1f, \
            \"contended_service_ns\": %.1f, \"throughput_jps\": %.3f, \
            \"p50_ns\": %.1f, \"p95_ns\": %.1f, \"p99_ns\": %.1f}"
           (json_escape t.tr_tenant.Job.t_name)
           t.tr_tenant.Job.t_weight t.tr_submitted t.tr_admitted t.tr_rejected
           t.tr_completed t.tr_peak_outstanding t.tr_service_ns
           t.tr_contended_service_ns t.tr_throughput_jps p50 p95 p99))
    r.sr_tenants;
  Buffer.add_string b "], \"devices\": [";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"device\": \"%s\", \"slots\": %d, \"windows\": %d, \"jobs\": \
            %d, \"batched_jobs\": %d, \"busy_ns\": %.1f, \"peak_occupancy\": \
            %d}"
           d.dr_device d.dr_slots d.dr_windows d.dr_jobs d.dr_batched_jobs
           d.dr_busy_ns d.dr_peak_occupancy))
    r.sr_devices;
  Buffer.add_string b "], \"jobs\": [";
  List.iteri
    (fun i j ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\": %d, \"tenant\": \"%s\", \"workload\": \"%s\", \"size\": \
            %d, \"device\": \"%s\", \"arrival_ns\": %.1f, \"start_ns\": \
            %.1f, \"finish_ns\": %.1f, \"service_ns\": %.1f, \
            \"predicted_ns\": %.1f, \"batched\": %b}"
           j.jr_spec.Job.j_id
           (json_escape j.jr_spec.Job.j_tenant)
           (json_escape j.jr_spec.Job.j_workload)
           j.jr_spec.Job.j_size j.jr_device j.jr_spec.Job.j_arrival_ns
           j.jr_start_ns j.jr_finish_ns j.jr_service_ns j.jr_predicted_ns
           j.jr_batched))
    r.sr_jobs;
  Buffer.add_string b "]}";
  Buffer.contents b
