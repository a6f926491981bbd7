(* Golden SIMT timings. Every GPU artifact of every workload — map and
   reduce kernels, per-stage filter chains and fused chains — is
   launched at three problem sizes on the inputs it sees during a
   reference-interpreter run of the workload's entry point. One line per
   launch records the modeled timing (floats as %h) and a digest of the
   output, so any change to the simulator's charges or results shows up
   as a diff against test/simt.baseline (`dune runtest`; accept an
   intended change with `dune promote`). *)

module Ir = Lime_ir.Ir
module I = Lime_ir.Interp
module V = Wire.Value
module A = Runtime.Artifact

let launch kind uid ~size f =
  Printf.printf "%s %s n=%d " kind uid size;
  match f () with
  | out, (t : Gpu.Simt.timing) ->
    Printf.printf
      "items=%d mem_bytes=%d compute_cycles=%h kernel_ns=%h \
       avg_divergence_groups=%h out=%s\n"
      t.items t.mem_bytes t.compute_cycles t.kernel_ns t.avg_divergence_groups
      (Golden.digest out)
  | exception (Gpu.Simt.Device_error m | I.Runtime_error m) ->
    Printf.printf "trap %s\n" m

let pack_stream elt (xs : V.t array) =
  let arr = I.new_array elt (Array.length xs) in
  Array.iteri (fun i x -> I.array_set arr i x) xs;
  I.freeze arr

let fn_key (f : Ir.filter_info) =
  match f.target with
  | Ir.F_static key -> key
  | Ir.F_instance (cls, m) -> cls ^ "." ^ m

(* Each template filter with its receiver, if any. *)
let bind_filters (template : Ir.graph_template) ops =
  let rec go nodes ops =
    match nodes, ops with
    | Ir.N_source _ :: rest, src :: _rate :: ops ->
      let fs, _ = go rest ops in
      fs, Some src
    | Ir.N_filter ({ target = Ir.F_static _; _ } as f) :: rest, ops ->
      let fs, src = go rest ops in
      (f, None) :: fs, src
    | Ir.N_filter f :: rest, recv :: ops ->
      let fs, src = go rest ops in
      (f, Some recv) :: fs, src
    | Ir.N_sink _ :: _, [ _ ] | [], [] -> [], None
    | _ -> failwith "malformed graph template"
  in
  go template.Ir.gt_nodes ops

let sink_of ops = List.nth ops (List.length ops - 1)

let run_workload (w : Workloads.t) sizes =
  let c = Liquid_metal.Compiler.compile ~file:(w.name ^ ".lime") w.source in
  let prog = c.unit_.Bytecode.Compile.u_program in
  (* one kernel cache per compile, reused across every size *)
  let sp = Gpu.Simt.prepare prog in
  let gpu =
    List.filter_map
      (fun (e : A.manifest_entry) ->
        if e.me_device <> A.Gpu then None
        else
          match Runtime.Store.find_on c.store ~uid:e.me_uid ~device:A.Gpu with
          | Some (A.Gpu_kernel ga) -> Some ga
          | _ -> None)
      (Runtime.Store.manifest c.store).A.entries
  in
  if gpu = [] then print_endline "no gpu artifacts";
  let has uid = List.exists (fun ga -> ga.A.ga_uid = uid) gpu in
  List.iter
    (fun size ->
      let on_map (site : Ir.map_site) args =
        if has site.map_uid then begin
          let args = List.map I.prim_exn args in
          launch "map" site.map_uid ~size (fun () ->
              Gpu.Simt.run_map sp site args);
          launch "map-nodiv" site.map_uid ~size (fun () ->
              Gpu.Simt.run_map ~model_divergence:false sp site args)
        end;
        None
      in
      let on_reduce (site : Ir.reduce_site) arg =
        if has site.red_uid then
          launch "reduce" site.red_uid ~size (fun () ->
              Gpu.Simt.run_reduce sp site (I.prim_exn arg));
        None
      in
      (* Run the graph stage by stage, keeping every stage's stream, so
         each chain artifact sees the stream its first member consumes. *)
      let on_run_graph template ops ~blocking =
        ignore blocking;
        let filters, src = bind_filters template ops in
        let src = I.prim_exn (Option.get src) in
        let s0 = Array.init (I.array_length src) (I.array_get src) in
        let streams =
          List.fold_left
            (fun acc ((f : Ir.filter_info), recv) ->
              let prev = List.hd acc in
              let apply x =
                let args = Option.to_list recv @ [ I.Prim x ] in
                I.prim_exn (I.call prog (fn_key f) args)
              in
              Array.map apply prev :: acc)
            [ s0 ] filters
          |> List.rev |> Array.of_list
        in
        let uids = List.map (fun ((f : Ir.filter_info), _) -> f.uid) filters in
        let index_of uid =
          let rec go i = function
            | [] -> None
            | u :: rest -> if u = uid then Some i else go (i + 1) rest
          in
          go 0 uids
        in
        List.iter
          (fun (ga : A.gpu_artifact) ->
            match ga.ga_kind with
            | A.G_filter_chain chain -> (
              let first = List.hd chain in
              let first_uid =
                if A.is_fused_uid ga.ga_uid then
                  List.hd (A.fused_members ga.ga_uid)
                else first.Ir.uid
              in
              match index_of first_uid with
              | None -> ()
              | Some i ->
                let last = List.nth chain (List.length chain - 1) in
                let input = pack_stream first.Ir.input streams.(i) in
                launch "chain" ga.ga_uid ~size (fun () ->
                    Gpu.Simt.run_filter_chain ~uid:ga.ga_uid sp
                      ~chain:(List.map fn_key chain) ~output_ty:last.Ir.output
                      input))
            | A.G_map _ | A.G_reduce _ -> ())
          gpu;
        let sink = I.prim_exn (sink_of ops) in
        Array.iteri
          (fun i x -> I.array_set sink i x)
          streams.(Array.length streams - 1);
        true
      in
      let hooks =
        { I.on_map; on_reduce; on_run_graph = Some on_run_graph }
      in
      ignore (I.call ~hooks prog w.entry (w.args ~size)))
    sizes

let () =
  List.iter
    (fun (w : Workloads.t) ->
      Printf.printf "== %s\n" w.name;
      let d = w.default_size in
      let sizes =
        match w.category with
        | Workloads.Gpu_map -> [ d / 16; d / 4; d ]
        | Workloads.Pipeline | Workloads.Fpga_stream -> [ d / 4; d; 4 * d ]
      in
      run_workload w sizes)
    Workloads.all
