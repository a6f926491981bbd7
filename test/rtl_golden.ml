(* Golden RTL simulation results, in three parts:

   - [fuse=on] and [fuse=off]: every workload runs at three problem
     sizes through [Exec.call] under [Prefer_devices [Fpga]], with
     cross-filter fusion on and off. A call line records the modeled
     time (%h) and an output digest, or the trap text; under it, one
     line per FPGA launch records the cycles, items and stalls its
     [fpga] trace span closes with.
   - [fig4]: the Figure 4 taskFlip pipeline on the paper's nine input
     bits, with a digest of its VCD waveform.
   - [a2]: two stages of unequal latency at FIFO depths 1 to 256, the
     backpressure sweep of bench/main.ml's A2 ablation, unpipelined
     and fully pipelined, with cycles, stalls, peak FIFO occupancy
     and a digest of the waveform.

   Any change to what the RTL simulator computes, or to the cycles it
   counts, shows up as a diff against test/rtl.baseline (`dune
   runtest`; accept an intended change with `dune promote`). *)

module Ir = Lime_ir.Ir
module I = Lime_ir.Interp
module V = Wire.Value
module Exec = Runtime.Exec
module Trace = Support.Trace

let out (v : I.v) =
  match v with
  | I.Prim p -> Golden.digest p
  | I.Obj o -> "<" ^ o.I.obj_class ^ ">"
  | I.Graph_handle _ -> "<graph>"

(* The FPGA launches a run recorded in [sink], oldest first. *)
let fpga_launches sink =
  if Trace.dropped sink > 0 then failwith "trace ring overflowed";
  List.filter_map
    (function
      | Trace.Span { cat = "fpga"; name; args; _ } ->
        let int k =
          match List.assoc_opt k args with
          | Some (Trace.Int n) -> n
          | _ -> failwith ("fpga span without " ^ k)
        in
        Some
          (Printf.sprintf "  fpga %s cycles=%d items=%d stalls=%d" name
             (int "cycles") (int "items") (int "stalls"))
      | _ -> None)
    (Trace.events sink)

let run_workload (w : Workloads.t) sizes =
  let c = Liquid_metal.Compiler.compile ~file:(w.name ^ ".lime") w.source in
  let sink = Trace.ring ~capacity:(1 lsl 22) () in
  List.iter
    (fun (mode, fuse) ->
      (* one engine per mode, reused across the sizes *)
      let e =
        Liquid_metal.Compiler.engine
          ~policy:(Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Fpga ])
          ~fuse c
      in
      List.iter
        (fun size ->
          let line = Printf.sprintf "%s n=%d" mode size in
          let ns = Exec.modeled_ns e in
          Trace.clear sink;
          Trace.set_sink sink;
          let r =
            Fun.protect
              ~finally:(fun () -> Trace.set_sink Trace.null)
              (fun () ->
                match Exec.call e w.entry (w.args ~size) with
                | v ->
                  Printf.sprintf "modeled_ns=%h out=%s"
                    (Exec.modeled_ns e -. ns) (out v)
                | exception
                    ( Bytecode.Vm.Vm_error m | I.Runtime_error m
                    | Exec.Engine_error m ) ->
                  "trap " ^ m)
          in
          Printf.printf "%s %s\n" line r;
          List.iter print_endline (fpga_launches sink))
        sizes)
    [ "fuse=on", true; "fuse=off", false ]

let compile_ir source =
  Lime_syntax.Parser.parse ~file:"golden.lime" source
  |> Lime_types.Typecheck.check |> Lime_ir.Lower.lower

let stats_fields (s : Rtl.Sim.stats) =
  Printf.sprintf "cycles=%d items=%d stalls=%d max_fifo_occupancy=%d" s.cycles
    s.items s.stalls s.max_fifo_occupancy

let figure4 () =
  print_endline "== fig4";
  let w = Workloads.find "bitflip" in
  let prog = compile_ir w.source in
  let pipeline =
    Rtl.Synth.pipeline_of_chain prog ~name:"taskFlip"
      (List.map (fun (_, f) -> f, None) (Ir.filter_sites prog))
  in
  let bits =
    List.map (fun b -> V.Bit b)
      (Array.to_list
         (Bits.Bitvec.to_bool_array (Bits.Bitvec.of_literal "101010101")))
  in
  let vcd = Rtl.Vcd.create () in
  let outputs, stats =
    Rtl.Sim.run ~vcd ~eval:(Rtl.Sim.interp prog) pipeline bits
  in
  Printf.printf "taskFlip %s out=%s vcd=%s\n" (stats_fields stats)
    (Golden.digest (V.Array (Array.of_list outputs)))
    (Digest.to_hex (Digest.string (Rtl.Vcd.contents vcd)))

let a2_source =
  {|
class P {
  local static int fast(int x) { return x + 1; }
  local static int slow(int x) {
    int a = x / 3;
    int b = x / 5;
    int c = x / 7;
    int d = x / 11;
    return a + b + c + d;
  }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var g = xs.source(1) => ([ task fast ]) => ([ task slow ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}

let a2_sweep () =
  print_endline "== a2";
  let prog = compile_ir a2_source in
  let filters = List.map (fun (_, f) -> f, None) (Ir.filter_sites prog) in
  let inputs = List.init 64 (fun i -> V.Int i) in
  List.iter
    (fun pipelined ->
      List.iter
        (fun depth ->
          let pl =
            Rtl.Synth.pipeline_of_chain prog ~name:"p" ~fifo_depth:depth
              ~pipelined filters
          in
          let vcd = Rtl.Vcd.create () in
          let outputs, stats =
            Rtl.Sim.run ~vcd ~eval:(Rtl.Sim.interp prog) pl inputs
          in
          Printf.printf "pipelined=%b depth=%d %s out=%s vcd=%s\n" pipelined
            depth (stats_fields stats)
            (Golden.digest (V.Array (Array.of_list outputs)))
            (Digest.to_hex (Digest.string (Rtl.Vcd.contents vcd))))
        [ 1; 2; 4; 16; 64; 256 ])
    [ false; true ]

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
    Workloads.all;
  figure4 ();
  a2_sweep ()
