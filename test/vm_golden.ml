(* Golden bytecode-VM counts. Every workload runs at three problem
   sizes in four modes, one line each:

   - [vm]: [Bytecode.Vm.run] with [no_hooks] on the entry point, so
     every map, reduce and task graph runs inline on the VM; the line
     records the executed-instruction count and an output digest, or
     the trap text;
   - [bytecode], [default] and [native]: [Exec.call] under
     [Bytecode_only], under the default policy and preferring native
     segments (which run on the VM, charged to the native model),
     recording the VM and native instruction counts, the modeled time
     (%h) and an output digest.

   Instruction counts are the CPU model, so any change to what the VM
   charges, or to what it computes, shows up as a diff against
   test/vm.baseline (`dune runtest`; accept an intended change with
   `dune promote`). *)

module I = Lime_ir.Interp
module Exec = Runtime.Exec
module Metrics = Runtime.Metrics

let out (v : I.v) =
  match v with
  | I.Prim p -> Golden.digest p
  | I.Obj o -> "<" ^ o.I.obj_class ^ ">"
  | I.Graph_handle _ -> "<graph>"

let guard line f =
  match f () with
  | fields -> Printf.printf "%s %s\n" line fields
  | exception (Bytecode.Vm.Vm_error m | I.Runtime_error m | Exec.Engine_error m)
    ->
    Printf.printf "%s trap %s\n" line m

let run_workload (w : Workloads.t) sizes =
  let c = Liquid_metal.Compiler.compile ~file:(w.name ^ ".lime") w.source in
  (* one VM program per compile, reused across every size *)
  let vm = Bytecode.Vm.prepare c.Liquid_metal.Compiler.unit_ in
  List.iter
    (fun size ->
      guard (Printf.sprintf "vm n=%d" size) (fun () ->
          let r = Bytecode.Vm.run vm w.entry (w.args ~size) in
          Printf.sprintf "executed=%d out=%s" r.executed (out r.value)))
    sizes;
  List.iter
    (fun (mode, policy) ->
      (* one engine per mode, reused across the sizes *)
      let e = Liquid_metal.Compiler.engine ~policy c in
      List.iter
        (fun size ->
          guard (Printf.sprintf "%s n=%d" mode size) (fun () ->
              let before = Metrics.snapshot (Exec.metrics e)
              and ns = Exec.modeled_ns e in
              let v = Exec.call e w.entry (w.args ~size) in
              let after = Metrics.snapshot (Exec.metrics e) in
              Printf.sprintf "vm=%d native=%d modeled_ns=%h out=%s"
                (after.vm_instructions - before.vm_instructions)
                (after.native_instructions - before.native_instructions)
                (Exec.modeled_ns e -. ns) (out v)))
        sizes)
    [
      "bytecode", Runtime.Substitute.Bytecode_only;
      "default", Runtime.Substitute.Prefer_accelerators;
      "native", Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Native ];
    ]

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
