module Ir = Lime_ir.Ir
module Artifact = Runtime.Artifact
module Substitute = Runtime.Substitute
module Exec = Runtime.Exec

(* The profile-guided placement planner.

   For every task graph in a compiled program it enumerates placement
   candidates — the static policies plus the calibrated argmin that
   the one planner, [Substitute.plan], computes under [Adaptive] over
   the cost profiles — and predicts each candidate's makespan by
   combining the per-segment profiles with the graph's SDF repetition
   vector ([Analysis.Rates]): the same rate graph the steady-state
   scheduler solves, weighted by firing costs. The planner's choice is
   the calibrated candidate; the report shows where every alternative
   lands and why. *)

type seg_cost = {
  sg_desc : string;  (** e.g. ["gpu:F1+F2"] or ["bytecode:F1"] *)
  sg_device : string;
  sg_source : Profile.source;
  sg_firing_ns : float;  (** cost of one firing of the actor *)
  sg_burst : int;  (** elements moved per firing *)
  sg_total_ns : float;  (** predicted cost over the whole stream *)
}

type candidate = {
  cd_name : string;
  cd_plan : Substitute.segment list;
  cd_plan_text : string;
  cd_makespan_ns : float;
  cd_segments : seg_cost list;
}

type graph_plan = {
  gp_uid : string;
  gp_kind : string;  (** ["graph"], ["map site"] or ["reduce site"] *)
  gp_filters : int;
  gp_planned : candidate;  (** the calibrated argmin — the planner's choice *)
  gp_default : candidate;  (** the static [Prefer_accelerators] baseline *)
  gp_candidates : candidate list;  (** all, sorted by predicted makespan *)
  gp_speedup : float;
      (** predicted speedup of the planned candidate over all-bytecode *)
  gp_rationale : string;
}

type report = {
  rp_n : int;
  rp_graphs : graph_plan list;
  rp_store_path : string;
  rp_store_size : int;
  rp_hits : int;
  rp_calibrated : int;
}

(* The cost model handed to the engine ([Exec.create ?cost_model] or
   [Exec.set_cost_model]): predictions straight from the calibrated
   profiles, so the Adaptive policy and the online re-planner agree
   with the plan the report printed. *)
let cost_fn (ctx : Calibrate.ctx) : Exec.cost_model =
 fun ~n artifact chain -> Profile.predict (Calibrate.profile ctx artifact chain) ~n

(* --- makespan prediction ----------------------------------------------- *)

(* The rate graph [Runtime.Exec] runs: source and sink move one
   element per firing, bytecode filters are 1/1 actors, a device
   segment pops and pushes its whole batch per firing
   ([Analysis.Rates.chain_firings]). The makespan is the bottleneck
   actor's total work plus one pipeline fill (each other actor's
   single-firing latency). Unsolvable graphs (cannot happen for these
   chain shapes, but belt and braces) fall back to the sequential
   sum. *)
let makespan_of ~n (stages : (float * int) list) : float =
  if n <= 0 then 0.0
  else
    match Analysis.Rates.chain_firings ~n (List.map snd stages) with
    | None ->
      List.fold_left
        (fun acc (firing, burst) ->
          acc +. (firing *. Float.of_int ((n + burst - 1) / max burst 1)))
        0.0 stages
    | Some firings ->
      (* (total work, single firing) per stage; the bottleneck is the
         first with the largest total *)
      let totals =
        List.map2 (fun (firing, _) k -> Float.of_int k *. firing, firing)
          stages firings
      in
      let total, firing =
        List.fold_left
          (fun (bt, bf) (t, f) -> if t > bt then (t, f) else (bt, bf))
          (List.hd totals) (List.tl totals)
      in
      let fill =
        List.fold_left (fun acc (firing, _) -> acc +. firing) 0.0 stages
      in
      total +. fill -. firing

let seg_costs ctx ~n (segs : Substitute.segment list) : seg_cost list =
  List.concat_map
    (function
      | Substitute.S_bytecode fs ->
        List.map
          (fun (f : Ir.filter_info) ->
            let e = Calibrate.profile ctx None [ f ] in
            {
              sg_desc = "bytecode:" ^ f.Ir.uid;
              sg_device = "vm";
              sg_source = e.Profile.pr_source;
              sg_firing_ns = e.Profile.pr_per_elem_ns;
              sg_burst = 1;
              sg_total_ns = Float.of_int n *. e.Profile.pr_per_elem_ns;
            })
          fs
      | Substitute.S_device (a, fs) ->
        let e = Calibrate.profile ctx (Some a) fs in
        let total = Profile.predict e ~n in
        [
          {
            sg_desc =
              Artifact.device_name (Artifact.device a) ^ ":" ^ Artifact.uid a;
            sg_device = Artifact.device_name (Artifact.device a);
            sg_source = e.Profile.pr_source;
            sg_firing_ns = total;
            sg_burst = n;
            sg_total_ns = total;
          };
        ])
    segs

let candidate_of ctx ~n name (segs : Substitute.segment list) : candidate =
  let costs = seg_costs ctx ~n segs in
  let stages =
    ((0.0, 1) :: List.map (fun s -> (s.sg_firing_ns, s.sg_burst)) costs)
    @ [ (0.0, 1) ]
  in
  {
    cd_name = name;
    cd_plan = segs;
    cd_plan_text = Substitute.describe_plan segs;
    cd_makespan_ns = makespan_of ~n stages;
    cd_segments = costs;
  }

(* --- candidate enumeration --------------------------------------------- *)

let static_policies =
  [
    ("accelerators", Substitute.Prefer_accelerators);
    ("gpu-only", Substitute.Prefer_devices [ Artifact.Gpu ]);
    ("fpga-only", Substitute.Prefer_devices [ Artifact.Fpga ]);
    ("native-only", Substitute.Prefer_devices [ Artifact.Native ]);
    ("bytecode", Substitute.Bytecode_only);
  ]

let us ns = ns /. 1000.0

let rationale ~n (planned : candidate) (default : candidate) =
  if planned.cd_plan_text = default.cd_plan_text then
    Printf.sprintf
      "the static default (%s) is already cost-optimal at n=%d: predicted %.1f us"
      default.cd_plan_text n (us planned.cd_makespan_ns)
  else
    let bottleneck =
      List.fold_left
        (fun acc s -> if s.sg_total_ns > acc.sg_total_ns then s else acc)
        (List.hd default.cd_segments)
        default.cd_segments
    in
    Printf.sprintf
      "chose %s over the default %s: predicted %.1f us vs %.1f us (%.2fx) at \
       n=%d; the default is dominated by %s (%.1f us)"
      planned.cd_plan_text default.cd_plan_text (us planned.cd_makespan_ns)
      (us default.cd_makespan_ns)
      (default.cd_makespan_ns /. Float.max planned.cd_makespan_ns 1e-9)
      n bottleneck.sg_desc (us bottleneck.sg_total_ns)

let plan_filters ctx ~n store ~kind ~uid (filters : Ir.filter_info list) :
    graph_plan =
  let calibrated ~fuse name =
    candidate_of ctx ~n name
      (Substitute.plan ~fuse ~cost:(cost_fn ctx ~n) Substitute.Adaptive store
         filters)
  in
  (* Fusion is a placement decision, not a foregone conclusion: the
     planner prices fuse-then-offload against the best per-stage
     substitution and keeps whichever wins. The nofuse candidate is
     dropped when no fusible run exists (identical plans). *)
  let fused_cand = calibrated ~fuse:true "calibrated" in
  let nofuse_cand = calibrated ~fuse:false "calibrated-nofuse" in
  let calibrated_cands =
    if nofuse_cand.cd_plan_text = fused_cand.cd_plan_text then [ fused_cand ]
    else [ fused_cand; nofuse_cand ]
  in
  let planned =
    List.fold_left
      (fun acc c -> if c.cd_makespan_ns < acc.cd_makespan_ns then c else acc)
      (List.hd calibrated_cands)
      (List.tl calibrated_cands)
  in
  let statics =
    List.map
      (fun (name, policy) ->
        candidate_of ctx ~n name (Substitute.plan policy store filters))
      static_policies
  in
  let default = List.hd statics in
  let bytecode =
    List.find (fun c -> c.cd_name = "bytecode") statics
  in
  let candidates =
    List.stable_sort
      (fun a b -> compare a.cd_makespan_ns b.cd_makespan_ns)
      (calibrated_cands @ statics)
  in
  {
    gp_uid = uid;
    gp_kind = kind;
    gp_filters = List.length filters;
    gp_planned = planned;
    gp_default = default;
    gp_candidates = candidates;
    gp_speedup =
      bytecode.cd_makespan_ns /. Float.max planned.cd_makespan_ns 1e-9;
    gp_rationale = rationale ~n planned default;
  }

let plan_graph ctx ~n store (gt : Ir.graph_template) : graph_plan option =
  let filters =
    List.filter_map
      (function Ir.N_filter f -> Some f | Ir.N_source _ | Ir.N_sink _ -> None)
      gt.Ir.gt_nodes
  in
  if filters = [] then None
  else Some (plan_filters ctx ~n store ~kind:"graph" ~uid:gt.Ir.gt_uid filters)

(* A lowered kernel site plans as its 1-filter worker chain: the
   scatter/gather endpoints are free (host-side staging), so the
   worker's candidate set *is* the site's placement space. *)
let plan_site ctx ~n store (lw : Lime_ir.Lower_mapreduce.lowered) : graph_plan
    =
  let module Lmr = Lime_ir.Lower_mapreduce in
  plan_filters ctx ~n store
    ~kind:(Lmr.kind_name lw.Lmr.lw_kind ^ " site")
    ~uid:lw.Lmr.lw_uid
    [ lw.Lmr.lw_worker ]

let plan (ctx : Calibrate.ctx) ~n : report =
  let compiled = Calibrate.compiled ctx in
  let store = compiled.Liquid_metal.Compiler.store in
  let graphs =
    Ir.String_map.fold
      (fun _ gt acc ->
        match plan_graph ctx ~n store gt with
        | Some gp -> gp :: acc
        | None -> acc)
      compiled.Liquid_metal.Compiler.ir.Ir.templates []
    |> List.rev
  in
  let sites =
    Ir.String_map.fold
      (fun _ lw acc -> plan_site ctx ~n store lw :: acc)
      compiled.Liquid_metal.Compiler.lowered []
    |> List.rev
  in
  let graphs = graphs @ sites in
  {
    rp_n = n;
    rp_graphs = graphs;
    rp_store_path = Profile.path (Calibrate.store ctx);
    rp_store_size = Profile.size (Calibrate.store ctx);
    rp_hits = Calibrate.hits ctx;
    rp_calibrated = Calibrate.calibrated ctx;
  }

let run ?(profile_path = "lm.profiles") ~n compiled : report =
  let store = Profile.load profile_path in
  let ctx = Calibrate.create ~profile_store:store compiled in
  let report = plan ctx ~n in
  Profile.save store;
  report

(* --- multi-stream-length crossover ------------------------------------- *)

(* The paper's section 7 observation, made inspectable: which device
   wins depends on the stream length, because launch overhead and
   boundary latency amortize. One row per swept n, per graph: every
   candidate's makespan and the argmin. The whole sweep reuses one
   calibration context, so the profiles are measured once and the
   sweep is pure prediction. *)

type crossover_row = {
  xr_n : int;
  xr_best : candidate;
  xr_makespans : (string * float) list;  (** candidate name -> ns *)
}

type crossover = {
  xo_uid : string;
  xo_kind : string;
  xo_rows : crossover_row list;  (** ascending n *)
}

let sweep_lengths ?(lo = 64) ?(hi = 65536) () =
  let rec go n acc = if n > hi then List.rev acc else go (n * 2) (n :: acc) in
  go (max lo 1) []

let crossover (ctx : Calibrate.ctx) ~ns : crossover list =
  let reports = List.map (fun n -> n, plan ctx ~n) ns in
  match reports with
  | [] -> []
  | (_, first) :: _ ->
    List.map
      (fun (gp0 : graph_plan) ->
        let rows =
          List.map
            (fun (n, (r : report)) ->
              let gp =
                List.find (fun g -> g.gp_uid = gp0.gp_uid) r.rp_graphs
              in
              {
                xr_n = n;
                xr_best = gp.gp_planned;
                xr_makespans =
                  List.map
                    (fun c -> c.cd_name, c.cd_makespan_ns)
                    gp.gp_candidates;
              })
            reports
        in
        { xo_uid = gp0.gp_uid; xo_kind = gp0.gp_kind; xo_rows = rows })
      first.rp_graphs

let render_crossover (xs : crossover list) : string =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if xs = [] then
    p "(nothing to sweep: the program has no task graphs or kernel sites)\n";
  List.iter
    (fun x ->
      p "crossover for %s %s (best candidate per stream length):\n" x.xo_kind
        x.xo_uid;
      let tbl =
        Support.Stats.Table.create
          ~columns:[ "n"; "best"; "plan"; "makespan_us"; "vs bytecode" ]
      in
      List.iter
        (fun row ->
          let bytecode_ns =
            Option.value
              (List.assoc_opt "bytecode" row.xr_makespans)
              ~default:row.xr_best.cd_makespan_ns
          in
          Support.Stats.Table.add_row tbl
            [
              string_of_int row.xr_n;
              row.xr_best.cd_name;
              row.xr_best.cd_plan_text;
              Printf.sprintf "%.1f" (us row.xr_best.cd_makespan_ns);
              Printf.sprintf "%.2fx"
                (bytecode_ns /. Float.max row.xr_best.cd_makespan_ns 1e-9);
            ])
        x.xo_rows;
      Buffer.add_string buf (Support.Stats.Table.render tbl);
      (* flag the flip points: where growing the stream changes the
         winning placement — the lengths a length-aware scheduler
         must treat differently *)
      let rec flips_of = function
        | (a : crossover_row) :: (b :: _ as rest) ->
          (if a.xr_best.cd_plan_text <> b.xr_best.cd_plan_text then
             [ b.xr_n, a.xr_best.cd_plan_text, b.xr_best.cd_plan_text ]
           else [])
          @ flips_of rest
        | _ -> []
      in
      let flips = flips_of x.xo_rows in
      (match flips with
      | [] -> p "  no crossover: one placement wins at every swept length\n"
      | fs ->
        List.iter
          (fun (n, from_, to_) ->
            p "  crossover at n=%d: %s -> %s\n" n from_ to_)
          fs);
      p "\n")
    xs;
  Buffer.contents buf

(* --- rendering --------------------------------------------------------- *)

let render (r : report) : string =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "placement plan at n=%d\n" r.rp_n;
  if r.rp_graphs = [] then
    p "\n(nothing to place: the program has no task graphs or kernel sites)\n";
  List.iter
    (fun gp ->
      p "\n%s %s (%d filter(s)):\n" gp.gp_kind gp.gp_uid gp.gp_filters;
      let name_w =
        List.fold_left
          (fun acc c -> max acc (String.length c.cd_name))
          0 gp.gp_candidates
      in
      let plan_w =
        List.fold_left
          (fun acc c -> max acc (String.length c.cd_plan_text))
          0 gp.gp_candidates
      in
      List.iter
        (fun c ->
          p "  %-*s  %-*s  %8.1f us%s\n" name_w c.cd_name plan_w c.cd_plan_text
            (us c.cd_makespan_ns)
            (if c.cd_name = gp.gp_planned.cd_name then "  <- planned" else ""))
        gp.gp_candidates;
      List.iter
        (fun s ->
          p "  segment %s: %.1f us [%s]\n" s.sg_desc (us s.sg_total_ns)
            (Profile.source_name s.sg_source))
        gp.gp_planned.cd_segments;
      p "  predicted speedup over bytecode: %.3fx\n" gp.gp_speedup;
      p "  rationale: %s\n" gp.gp_rationale)
    r.rp_graphs;
  p "\nprofile store %s: %d entry(s), %d hit(s), %d calibrated\n"
    r.rp_store_path r.rp_store_size r.rp_hits r.rp_calibrated;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_json (r : report) : string =
  let seg s =
    Printf.sprintf
      "{\"desc\":\"%s\",\"device\":\"%s\",\"source\":\"%s\",\"total_ns\":%.1f}"
      (json_escape s.sg_desc) s.sg_device
      (Profile.source_name s.sg_source)
      s.sg_total_ns
  in
  let cand c =
    Printf.sprintf
      "{\"name\":\"%s\",\"plan\":\"%s\",\"makespan_ns\":%.1f,\"segments\":[%s]}"
      c.cd_name (json_escape c.cd_plan_text) c.cd_makespan_ns
      (String.concat "," (List.map seg c.cd_segments))
  in
  let graph gp =
    Printf.sprintf
      "{\"uid\":\"%s\",\"kind\":\"%s\",\"filters\":%d,\"planned\":%s,\"default\":%s,\"candidates\":[%s],\"speedup\":%.3f,\"rationale\":\"%s\"}"
      (json_escape gp.gp_uid) (json_escape gp.gp_kind) gp.gp_filters
      (cand gp.gp_planned) (cand gp.gp_default)
      (String.concat "," (List.map cand gp.gp_candidates))
      gp.gp_speedup
      (json_escape gp.gp_rationale)
  in
  Printf.sprintf
    "{\"n\":%d,\"store\":{\"path\":\"%s\",\"entries\":%d,\"hits\":%d,\"calibrated\":%d},\"graphs\":[%s]}"
    r.rp_n (json_escape r.rp_store_path) r.rp_store_size r.rp_hits
    r.rp_calibrated
    (String.concat "," (List.map graph r.rp_graphs))

let render_crossover_json (xs : crossover list) : string =
  let row (r : crossover_row) =
    Printf.sprintf
      "{\"n\":%d,\"best\":\"%s\",\"plan\":\"%s\",\"makespan_ns\":%.1f,\"candidates\":{%s}}"
      r.xr_n r.xr_best.cd_name
      (json_escape r.xr_best.cd_plan_text)
      r.xr_best.cd_makespan_ns
      (String.concat ","
         (List.map
            (fun (name, ns) -> Printf.sprintf "\"%s\":%.1f" name ns)
            r.xr_makespans))
  in
  Printf.sprintf "{\"crossover\":[%s]}"
    (String.concat ","
       (List.map
          (fun x ->
            Printf.sprintf "{\"uid\":\"%s\",\"kind\":\"%s\",\"rows\":[%s]}"
              (json_escape x.xo_uid) (json_escape x.xo_kind)
              (String.concat "," (List.map row x.xo_rows)))
          xs))
