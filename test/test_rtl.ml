module Ir = Lime_ir.Ir
(* RTL substrate tests: the Figure-4 behaviours (FIFO next-rising-edge
   output, 3-cycle read/compute/publish latency, 9 inReady transitions
   for 9 input bits), netlist encodings, synthesis exclusions and the
   Verilog artifact text. *)

module I = Lime_ir.Interp
module V = Wire.Value

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile src =
  Lime_ir.Lower.lower
    (Lime_types.Typecheck.check (Lime_syntax.Parser.parse ~file:"t" src))

let fig1 = compile Test_syntax.figure1_source

let flip_filter () =
  match Ir.filter_sites fig1 with
  | [ (_, f) ] -> f
  | _ -> Alcotest.fail "expected one filter"

let flip_pipeline () =
  Rtl.Synth.pipeline_of_chain fig1 ~name:"taskFlip" [ flip_filter (), None ]

(* --- encodings ------------------------------------------------------- *)

let test_value_encodings () =
  let roundtrip ty v =
    check_bool
      (Ir.ty_to_string ty)
      true
      (V.equal v (Rtl.Netlist.value_of_bits ty (Rtl.Netlist.bits_of_value ty v)))
  in
  roundtrip Ir.Bit (V.Bit true);
  roundtrip Ir.Bit (V.Bit false);
  roundtrip Ir.Bool (V.Bool true);
  roundtrip Ir.I32 (V.Int (-12345));
  roundtrip Ir.I32 (V.Int 2147483647);
  roundtrip Ir.F32 (V.Float (V.f32 3.14));
  roundtrip (Ir.Enum "dir") (V.Enum { enum = "dir"; tag = 3 });
  check_int "bit width" 1 (Rtl.Netlist.width_of_ty Ir.Bit);
  check_int "int width" 32 (Rtl.Netlist.width_of_ty Ir.I32)

let prop_i32_encoding =
  QCheck2.Test.make ~name:"netlist: i32 bits roundtrip" ~count:300
    QCheck2.Gen.int (fun i ->
      let v = V.Int (V.norm32 i) in
      V.equal v (Rtl.Netlist.value_of_bits Ir.I32 (Rtl.Netlist.bits_of_value Ir.I32 v)))

let prop_f32_encoding =
  QCheck2.Test.make ~name:"netlist: f32 bits roundtrip" ~count:300
    QCheck2.Gen.float (fun f ->
      let v = V.Float (V.f32 f) in
      V.equal v (Rtl.Netlist.value_of_bits Ir.F32 (Rtl.Netlist.bits_of_value Ir.F32 v)))

(* --- figure 4 behaviour ---------------------------------------------- *)

let bits9 = "101010101"

let run_flip_with_vcd () =
  let vcd = Rtl.Vcd.create () in
  let inputs =
    List.map (fun b -> V.Bit b)
      (Array.to_list (Bits.Bitvec.to_bool_array (Bits.Bitvec.of_literal bits9)))
  in
  let outputs, stats =
    Rtl.Sim.run ~vcd ~eval:(Rtl.Sim.interp fig1) (flip_pipeline ())
      inputs
  in
  outputs, stats, Rtl.Vcd.contents vcd

let test_flip_pipeline_results () =
  let outputs, stats, _ = run_flip_with_vcd () in
  check_int "9 outputs" 9 stats.Rtl.Sim.items;
  let expected =
    List.map (fun b -> V.Bit (not b))
      (Array.to_list (Bits.Bitvec.to_bool_array (Bits.Bitvec.of_literal bits9)))
  in
  check_bool "flipped stream" true (List.for_all2 V.equal expected outputs)

(* Extract (time, value) transitions of a named VCD signal. *)
let vcd_transitions vcd_text name =
  let lines = String.split_on_char '\n' vcd_text in
  let code = ref None in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "$var"; "wire"; _w; c; n; "$end" ] when n = name -> code := Some c
      | _ -> ())
    lines;
  let code = match !code with Some c -> c | None -> Alcotest.failf "no signal %s" name in
  let time = ref 0 in
  let out = ref [] in
  List.iter
    (fun line ->
      if String.length line > 1 && line.[0] = '#' then
        time := int_of_string (String.sub line 1 (String.length line - 1))
      else if
        String.length line = 1 + String.length code
        && String.sub line 1 (String.length code) = code
        && (line.[0] = '0' || line.[0] = '1')
      then out := (!time, Char.code line.[0] - Char.code '0') :: !out)
    lines;
  List.rev !out

let test_figure4_nine_inready_transitions () =
  (* "these are represented by the 9 transitions on the inReady
     signal" — 9 rising edges, one per input bit. *)
  let _, _, vcd = run_flip_with_vcd () in
  let rises =
    List.filter (fun (_, v) -> v = 1)
      (vcd_transitions vcd "Bitflip_flip_0_inReady")
  in
  check_int "nine inReady rises" 9 (List.length rises)

let test_figure4_three_cycle_latency () =
  (* "one cycle to read, one cycle to compute, and one cycle to
     publish": outReady rises two cycles (8ns at 4ns clock) after the
     corresponding inReady, making results available on the third
     cycle. *)
  let _, _, vcd = run_flip_with_vcd () in
  let in_rises =
    List.filter (fun (_, v) -> v = 1)
      (vcd_transitions vcd "Bitflip_flip_0_inReady")
  in
  let out_rises =
    List.filter (fun (_, v) -> v = 1)
      (vcd_transitions vcd "Bitflip_flip_0_outReady")
  in
  check_int "one publish per read" (List.length in_rises) (List.length out_rises);
  let first_in = fst (List.hd in_rises) in
  let first_out = fst (List.hd out_rises) in
  check_int "read->publish is 2 clocks later (3-cycle occupancy)" (4 * 2)
    (first_out - first_in)

let test_fifo_next_rising_edge () =
  (* The source enqueues at cycle 0; the FIFO's registered output makes
     the stage's first inReady appear at cycle 1, not 0. *)
  let _, _, vcd = run_flip_with_vcd () in
  let in_rises =
    List.filter (fun (_, v) -> v = 1)
      (vcd_transitions vcd "Bitflip_flip_0_inReady")
  in
  check_int "first pop on the edge after the write" 4 (fst (List.hd in_rises))

let test_unpipelined_throughput () =
  (* An unpipelined stage accepts one element every 3 cycles, so 9
     elements need at least 27 cycles. *)
  let _, stats, _ = run_flip_with_vcd () in
  check_bool "at least 3 cycles per element" true (stats.Rtl.Sim.cycles >= 27);
  check_bool "but not wildly more" true (stats.Rtl.Sim.cycles < 45)

let test_vcd_well_formed () =
  let _, _, vcd = run_flip_with_vcd () in
  check_bool "timescale" true (Test_types.contains vcd "$timescale 1ns $end");
  check_bool "clk declared" true (Test_types.contains vcd "$var wire 1 ! clk $end");
  check_bool "enddefinitions" true (Test_types.contains vcd "$enddefinitions");
  check_bool "has time marks" true (Test_types.contains vcd "#0")

(* --- multi-stage and stateful pipelines ------------------------------- *)

let two_stage_prog =
  compile
    {|
class P {
  local static int dbl(int x) { return x * 2; }
  local static int inc(int x) { return x + 1; }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var g = xs.source(1) => ([ task dbl ]) => ([ task inc ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}

let two_stage_pipeline () =
  Rtl.Synth.pipeline_of_chain two_stage_prog ~name:"p"
    (List.map (fun (_, f) -> f, None) (Ir.filter_sites two_stage_prog))

let test_two_stage_pipeline () =
  let inputs = List.map (fun i -> V.Int i) [ 1; 2; 3; 4; 5 ] in
  let outputs, stats =
    Rtl.Sim.run ~eval:(Rtl.Sim.interp two_stage_prog) (two_stage_pipeline ())
      inputs
  in
  check_bool "values" true
    (List.for_all2 V.equal
       (List.map (fun i -> V.Int ((2 * i) + 1)) [ 1; 2; 3; 4; 5 ])
       outputs);
  (* Two stages overlap: the pipeline beats 2x the single-stage time. *)
  check_bool "pipeline parallelism" true (stats.Rtl.Sim.cycles < 2 * 3 * 5 + 10)

let acc_prog =
  compile
    {|
class Acc {
  int total;
  local Acc(int start) { total = start; }
  local int push(int x) { total += x; return total; }
}
class Main {
  static int[[]] prefixSums(int[[]] xs) {
    int[] out = new int[xs.length];
    var acc = new Acc(0);
    var g = xs.source(1) => ([ task acc.push ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}

(* The accumulator pipeline over a fresh receiver, returned with it. *)
let acc_pipeline () =
  let receiver =
    I.Obj { I.obj_class = "Acc"; obj_fields = [| I.Prim (V.Int 0) |] }
  in
  ( Rtl.Synth.pipeline_of_chain acc_prog ~name:"acc"
      (List.map (fun (_, f) -> f, Some receiver) (Ir.filter_sites acc_prog)),
    receiver )

let test_stateful_stage_registers () =
  let pl, _ = acc_pipeline () in
  let outputs, _ =
    Rtl.Sim.run ~eval:(Rtl.Sim.interp acc_prog) pl
      (List.map (fun i -> V.Int i) [ 1; 2; 3 ])
  in
  check_bool "prefix sums through registers" true
    (List.for_all2 V.equal [ V.Int 1; V.Int 3; V.Int 6 ] outputs)

(* --- stage evaluators -------------------------------------------------- *)

(* The engine's evaluator, rebuilt from its parts: the program's
   bytecode on a prepared VM, with the stage's receiver for a stateful
   filter. *)
let vm_eval prog =
  let vm = Bytecode.Vm.prepare (Bytecode.Compile.compile_program prog) in
  fun (st : Rtl.Netlist.stage) x ->
    let args = Option.to_list st.st_state @ [ I.Prim x ] in
    I.prim_exn (Bytecode.Vm.run vm st.st_fn args).Bytecode.Vm.value

(* The evaluator decides values only: a pipeline run under
   [Sim.interp] and under the VM, each on fresh receivers, must give
   the same outputs, stats, waveform and final receiver state. *)
let test_evaluators_agree () =
  let same name prog pipeline inputs =
    let run eval =
      let pl, receivers = pipeline () in
      let vcd = Rtl.Vcd.create () in
      let outputs, stats = Rtl.Sim.run ~vcd ~eval pl inputs in
      outputs, stats, Rtl.Vcd.contents vcd, receivers
    in
    let o, s, w, r = run (Rtl.Sim.interp prog) in
    let o', s', w', r' = run (vm_eval prog) in
    check_bool (name ^ ": outputs") true (List.equal V.equal o o');
    check_bool (name ^ ": stats") true (s = s');
    Alcotest.(check string) (name ^ ": waveform") w w';
    check_bool (name ^ ": receivers") true (Stdlib.compare r r' = 0)
  in
  let ints = List.map (fun i -> V.Int i) in
  same "figure 4" fig1
    (fun () -> flip_pipeline (), None)
    (List.map (fun b -> V.Bit b)
       (Array.to_list
          (Bits.Bitvec.to_bool_array (Bits.Bitvec.of_literal bits9))));
  same "two-stage" two_stage_prog
    (fun () -> two_stage_pipeline (), None)
    (ints [ 1; 2; 3; 4; 5; -6; 1 lsl 30 ]);
  same "stateful" acc_prog
    (fun () ->
      let pl, receiver = acc_pipeline () in
      pl, Some receiver)
    (ints [ 1; 2; 3; 2147483647; -9 ])

(* A trap in an FPGA stage propagates from the engine as it does under
   Bytecode_only, and leaves the engine able to launch on the FPGA
   again. *)
let test_engine_after_trap () =
  let src =
    {|
class T {
  local static int f(int x) { return 100 / x; }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var g = xs.source(1) => ([ task f ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}
  in
  let c = Liquid_metal.Compiler.compile src in
  let ints xs = V.Int_array (Array.of_list xs) in
  let engine policy = Liquid_metal.Compiler.engine ~policy c in
  let e =
    engine (Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Fpga ])
  in
  let call e xs = Runtime.Exec.call e "T.run" [ I.Prim (ints xs) ] in
  let fpga_runs () =
    (Runtime.Metrics.snapshot (Runtime.Exec.metrics e)).fpga_runs
  in
  let sink = Support.Trace.ring () in
  List.iter
    (fun (name, e) ->
      Support.Trace.set_sink sink;
      match
        Fun.protect
          ~finally:(fun () -> Support.Trace.set_sink Support.Trace.null)
          (fun () -> call e [ 4; 0; 5 ])
      with
      | _ -> Alcotest.failf "%s: expected a trap" name
      | exception I.Runtime_error m ->
        Alcotest.(check string) (name ^ ": trap") "division by zero" m)
    [ "bytecode", engine Runtime.Substitute.Bytecode_only; "fpga", e ];
  check_bool "trapped inside the RTL simulation" true
    (List.exists
       (function Support.Trace.Span { cat = "fpga"; _ } -> true | _ -> false)
       (Support.Trace.events sink));
  let xs = [ 4; -7; 9; 100; 1000 ] in
  let before = fpga_runs () in
  check_bool "matches interpreter" true
    (V.equal (I.prim_exn (call e xs))
       (I.prim_exn (I.call (compile src) "T.run" [ I.Prim (ints xs) ])));
  check_bool "ran on the fpga" true (fpga_runs () > before)

(* --- synthesis exclusions and latency -------------------------------- *)

let test_synth_excludes_loops () =
  let prog =
    compile
      {|
class C {
  local static int f(int x) {
    int acc = 0;
    while (acc < x) { acc = acc + 3; }
    return acc;
  }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var g = xs.source(1) => ([ task f ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}
  in
  match Ir.filter_sites prog with
  | [ (_, f) ] -> (
    match Rtl.Synth.check_filter prog f with
    | Rtl.Synth.Excluded reason ->
      check_bool "mentions FSM" true (Test_types.contains reason "FSM")
    | Rtl.Synth.Suitable -> Alcotest.fail "loops must be excluded")
  | _ -> Alcotest.fail "expected one filter"

let test_synth_latency_scales_with_ops () =
  let prog =
    compile
      {|
class C {
  local static int cheap(int x) { return x + 1; }
  local static int costly(int x) {
    int a = x / 3;
    int b = x / 5;
    int c = x / 7;
    return a + b + c;
  }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var g = xs.source(1) => ([ task cheap ]) => ([ task costly ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}
  in
  match List.map snd (Ir.filter_sites prog) with
  | [ cheap; costly ] ->
    let lc = Rtl.Synth.latency_of prog cheap in
    let le = Rtl.Synth.latency_of prog costly in
    check_int "cheap is single-cycle" 1 lc;
    check_bool "dividers cost cycles" true (le > lc)
  | _ -> Alcotest.fail "expected two filters"

let test_verilog_text_shape () =
  let text = Rtl.Verilog_gen.pipeline_text fig1 (flip_pipeline ()) in
  List.iter
    (fun needle ->
      check_bool needle true (Test_types.contains text needle))
    [
      "module lm_fifo";
      "visible at the output at cycle t+1";
      "module Bitflip_flip_0";
      "IDLE"; "COMPUTE"; "PUBLISH";
      "module taskFlip_top";
      "one cycle to read";
    ]

let test_verilog_stateful_has_registers () =
  let prog =
    compile
      {|
class Acc {
  int total;
  local Acc(int start) { total = start; }
  local int push(int x) { total += x; return total; }
}
class Main {
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var acc = new Acc(0);
    var g = xs.source(1) => ([ task acc.push ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}
  in
  let filters = List.map snd (Ir.filter_sites prog) in
  let pl =
    Rtl.Synth.pipeline_of_chain prog ~name:"acc"
      (List.map (fun f -> f, None) filters)
  in
  let text = Rtl.Verilog_gen.pipeline_text prog pl in
  check_bool "field register" true (Test_types.contains text "reg [31:0] field_0");
  check_bool "register commit" true (Test_types.contains text "field_0 <=")

(* The range analysis narrows the data ports of a masking filter:
   [x & 255] provably fits 8 unsigned bits, so the output register,
   the inter-stage wire, and the downstream stage's input all shrink
   from the 32 bits the int type would dictate. *)
let test_verilog_range_narrowing () =
  let prog =
    compile
      {|
class N {
  local static int mask(int x) { return x & 255; }
  local static int half(int x) { return x / 2; }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var g = xs.source(1) => ([ task mask ]) => ([ task half ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}
  in
  let filters = List.map snd (Ir.filter_sites prog) in
  let pl =
    Rtl.Synth.pipeline_of_chain prog ~name:"narrow"
      (List.map (fun f -> f, None) filters)
  in
  (match pl.Rtl.Netlist.pl_stages with
  | [ mask; half ] ->
    check_int "mask in 32" 32 mask.Rtl.Netlist.st_in_width;
    check_int "mask out 8" 8 mask.Rtl.Netlist.st_out_width;
    (* the interval chains: half sees [0,255], returns [0,127] *)
    check_int "half in 8" 8 half.Rtl.Netlist.st_in_width;
    check_int "half out 7" 7 half.Rtl.Netlist.st_out_width
  | _ -> Alcotest.fail "expected two stages");
  let text = Rtl.Verilog_gen.pipeline_text prog pl in
  check_bool "narrowed output reg" true
    (Test_types.contains text "output reg  [7:0] out_data");
  check_bool "top output narrowed" true
    (Test_types.contains text "output wire [6:0] out_data");
  check_bool "full-width input survives" true
    (Test_types.contains text "input  wire [31:0] in_data")


let artifact_texts source =
  let c = Liquid_metal.Compiler.compile source in
  List.filter_map
    (fun (e : Runtime.Artifact.manifest_entry) ->
      match Runtime.Store.find_on c.store ~uid:e.me_uid ~device:e.me_device with
      | Some (Runtime.Artifact.Fpga_module f) -> Some (e.me_device, f.fa_verilog)
      | Some (Runtime.Artifact.Gpu_kernel g) -> Some (e.me_device, g.ga_opencl)
      | Some (Runtime.Artifact.Native_binary n) -> Some (e.me_device, n.na_c)
      | None -> None)
    (Liquid_metal.Compiler.manifest c).entries

(* crc8's filter with its unrolled shift step repeated [n] times. *)
let crc_with_steps n =
  let step =
    "    c = (c & 128) != 0 ? ((c << 1) & 255) ^ 7 : (c << 1) & 255;"
  in
  let lines = String.split_on_char '\n' Workloads.crc8.source in
  check_int "crc8 unrolls 8 steps" 8
    (List.length (List.filter (String.equal step) lines));
  let seen = ref false in
  String.concat "\n"
    (List.concat_map
       (fun l ->
         if l <> step then [ l ]
         else if !seen then []
         else (
           seen := true;
           List.init n (fun _ -> step)))
       lines)

(* Each step reads its running value three times, so a text that
   copied a value per read would triple with every step (16 steps
   would need about 7 GB); one wire per value grows by a few lines. *)
let test_verilog_linear_size () =
  let size steps =
    match
      List.filter (fun (d, _) -> d = Runtime.Artifact.Fpga)
        (artifact_texts (crc_with_steps steps))
    with
    | [ (_, text) ] -> String.length text
    | _ -> Alcotest.fail "expected one FPGA artifact"
  in
  (* smallest first: a text that copies per read fails before the
     larger sizes are attempted *)
  let s8 = size 8 in
  check_bool "crc8 under 8 KB" true (s8 < 8192);
  let s16 = size 16 in
  check_bool "8 -> 16 steps: at most 1 KB per step" true (s16 - s8 <= 8 * 1024);
  let s32 = size 32 in
  check_bool "16 -> 32 steps: at most 1 KB per step" true
    (s32 - s16 <= 16 * 1024)

let test_artifact_texts_small () =
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (d, text) ->
          if String.length text >= 16384 then
            Alcotest.failf "%s: a %s artifact of %d bytes" w.name
              (Runtime.Artifact.device_name d) (String.length text))
        (artifact_texts w.source))
    Workloads.all

(* --- VCD reader -------------------------------------------------------- *)

let test_vcd_reader_roundtrip () =
  let _, _, vcd_text = run_flip_with_vcd () in
  let wave = Rtl.Vcd_reader.parse vcd_text in
  check_bool "has clk" true
    (List.exists (fun (s : Rtl.Vcd_reader.signal) -> s.name = "clk")
       (Rtl.Vcd_reader.signals wave));
  let in_ready = Rtl.Vcd_reader.signal wave "Bitflip_flip_0_inReady" in
  check_int "nine rises via reader" 9
    (List.length (Rtl.Vcd_reader.rises in_ready));
  (* agrees with the hand parser used elsewhere in this file *)
  let hand = List.filter (fun (_, v) -> v = 1)
      (vcd_transitions vcd_text "Bitflip_flip_0_inReady") in
  Alcotest.(check (list int)) "same times" (List.map fst hand)
    (Rtl.Vcd_reader.rises in_ready)

let test_vcd_reader_value_at () =
  let _, _, vcd_text = run_flip_with_vcd () in
  let wave = Rtl.Vcd_reader.parse vcd_text in
  let in_ready = Rtl.Vcd_reader.signal wave "Bitflip_flip_0_inReady" in
  let first = List.hd (Rtl.Vcd_reader.rises in_ready) in
  check_int "high at rise" 1 (Rtl.Vcd_reader.value_at in_ready first);
  check_int "low before dump" 0 (Rtl.Vcd_reader.value_at in_ready (first - 1));
  match Rtl.Vcd_reader.signal wave "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown signal should raise"

let test_vcd_ascii_render () =
  let _, _, vcd_text = run_flip_with_vcd () in
  let wave = Rtl.Vcd_reader.parse vcd_text in
  let text =
    Rtl.Vcd_reader.render_ascii ~signals:[ "clk"; "Bitflip_flip_0_inReady" ]
      ~until_ns:40 ~step_ns:2 wave
  in
  check_bool "clk row" true (Test_types.contains text "clk");
  check_bool "levels drawn" true
    (Test_types.contains text "#" && Test_types.contains text "_");
  check_int "three lines (ruler + 2 signals)" 3
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' text)))

let suite =
  ( "rtl",
    [
      Alcotest.test_case "value encodings" `Quick test_value_encodings;
      QCheck_alcotest.to_alcotest prop_i32_encoding;
      QCheck_alcotest.to_alcotest prop_f32_encoding;
      Alcotest.test_case "flip pipeline results" `Quick test_flip_pipeline_results;
      Alcotest.test_case "figure 4: nine inReady transitions" `Quick
        test_figure4_nine_inready_transitions;
      Alcotest.test_case "figure 4: 3-cycle latency" `Quick
        test_figure4_three_cycle_latency;
      Alcotest.test_case "figure 4: FIFO next rising edge" `Quick
        test_fifo_next_rising_edge;
      Alcotest.test_case "unpipelined throughput" `Quick test_unpipelined_throughput;
      Alcotest.test_case "vcd well-formed" `Quick test_vcd_well_formed;
      Alcotest.test_case "two-stage pipeline" `Quick test_two_stage_pipeline;
      Alcotest.test_case "stateful stage registers" `Quick
        test_stateful_stage_registers;
      Alcotest.test_case "interp and VM evaluators agree" `Quick
        test_evaluators_agree;
      Alcotest.test_case "engine launch after an FPGA trap" `Quick
        test_engine_after_trap;
      Alcotest.test_case "loops excluded" `Quick test_synth_excludes_loops;
      Alcotest.test_case "latency scales with ops" `Quick
        test_synth_latency_scales_with_ops;
      Alcotest.test_case "verilog text shape" `Quick test_verilog_text_shape;
      Alcotest.test_case "verilog stateful registers" `Quick
        test_verilog_stateful_has_registers;
      Alcotest.test_case "verilog range narrowing" `Quick
        test_verilog_range_narrowing;
      Alcotest.test_case "verilog size linear in crc8 steps" `Quick
        test_verilog_linear_size;
      Alcotest.test_case "artifact texts under 16 KB" `Quick
        test_artifact_texts_small;
      Alcotest.test_case "vcd reader roundtrip" `Quick test_vcd_reader_roundtrip;
      Alcotest.test_case "vcd reader value_at" `Quick test_vcd_reader_value_at;
      Alcotest.test_case "vcd ascii render" `Quick test_vcd_ascii_render;
    ] )
