(* [e2e.exe smoke]: every workload twice at smoke scale, each run in its
   own process, as [dune runtest] does. Asserts that every metric
   BENCHMARK.json names is emitted with its unit, that nothing failed
   and no trace event dropped, and that the two runs agree exactly on
   every modeled, virtual and count metric. *)

module C = Catalog

let run (spec : C.spec) ~benchmark ~tmp =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let t0 = Unix.gettimeofday () in
  (* the two runs of a workload side by side, one per core *)
  let spawn w k =
    let json = tmp (Printf.sprintf "%s.%d.json" w k)
    and log = tmp (Printf.sprintf "%s.%d.log" w k) in
    let argv =
      [|
        Sys.executable_name; "--workload"; w; "--seed"; "1"; "--scale"; "smoke";
        "--trace"; "1"; "--json"; json; "--benchmark"; benchmark;
      |]
    in
    let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let pid = Unix.create_process Sys.executable_name argv Unix.stdin fd fd in
    Unix.close fd;
    (pid, json, log)
  in
  let wait w k (pid, json, log) =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Some (C.read_result json)
    | _ ->
        problem "%s run %d failed:\n%s" w k
          (In_channel.with_open_bin log In_channel.input_all);
        None
  in
  List.iter
    (fun w ->
      let p1 = spawn w 1 in
      let p2 = spawn w 2 in
      let r1 = wait w 1 p1 in
      match (r1, wait w 2 p2) with
      | Some (r1, units), Some (r2, _) ->
          List.iter
            (fun name ->
              match (List.assoc_opt name units, C.find name) with
              | None, _ -> problem "%s: %s not emitted" w name
              | Some u, Some mt when u <> mt.C.unit_ ->
                  problem "%s: %s emitted in %s, not %s" w name u mt.C.unit_
              | Some _, _ -> ())
            (List.map fst spec.C.sp_end_to_end @ spec.C.sp_per_layer);
          if r1.C.r_failed > 0 then problem "%s: %d failed" w r1.C.r_failed;
          List.iter
            (fun name ->
              match List.assoc_opt name r1.C.r_metrics with
              | Some 0.0 -> ()
              | Some v -> problem "%s: %s is %g, not 0" w name v
              | None -> problem "%s: %s not emitted" w name)
            [ "failed_frac"; "trace.dropped" ];
          List.iter
            (fun (name, v1) ->
              match C.find name with
              | Some { C.clock = C.Modeled | C.Virtual | C.Count; _ } -> (
                  match List.assoc_opt name r2.C.r_metrics with
                  | Some v2 when v2 = v1 -> ()
                  | Some v2 -> problem "%s: %s differs between runs (%.17g, %.17g)" w name v1 v2
                  | None -> problem "%s: %s missing from the second run" w name)
              | _ -> ())
            r1.C.r_metrics
      | _ -> ())
    spec.C.sp_workloads;
  Printf.printf "smoke: %d workload(s) twice in %.1f s\n"
    (List.length spec.C.sp_workloads)
    (Unix.gettimeofday () -. t0);
  match !problems with
  | [] -> 0
  | ps ->
      List.iter (fun p -> Printf.printf "FAIL %s\n" p) (List.rev ps);
      1
