(* Failure injection: dynamic errors must surface as errors (never
   wrong answers or hangs) on every execution path, and malformed API
   use must be rejected. *)

module Lm = Liquid_metal.Lm
module I = Lime_ir.Interp
module V = Wire.Value

let check_bool = Alcotest.(check bool)

(* A pipeline whose filter traps on a specific element. *)
let trapping_src =
  {|
class P {
  local static int risky(int x) {
    return 100 / (x - 5);
  }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var g = xs.source(1) => ([ task risky ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}

let traps f =
  match f () with
  | exception I.Runtime_error _ -> true
  | exception Bytecode.Vm.Vm_error _ -> true
  | exception Gpu.Simt.Device_error _ -> true
  | exception Rtl.Sim.Simulation_error _ -> true
  | _ -> false

let test_filter_trap_propagates_per_policy () =
  let bad = Lm.int_array [| 1; 2; 5; 9 |] in
  let good = Lm.int_array [| 1; 2; 6; 9 |] in
  List.iter
    (fun policy ->
      let s = Lm.load ~policy trapping_src in
      check_bool "trap surfaces" true (traps (fun () -> Lm.run s "P.run" [ bad ]));
      (* and the engine still works afterwards *)
      match Lm.run s "P.run" [ good ] with
      | I.Prim (V.Int_array [| -25; -33; 100; 25 |]) -> ()
      | v -> Alcotest.failf "bad recovery result %s" (Lm.show v))
    [
      Runtime.Substitute.Bytecode_only;
      Runtime.Substitute.Prefer_accelerators;
      Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Fpga ];
      Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Native ];
    ]

let test_map_trap_propagates () =
  let src =
    {|
class M {
  local static int inv(int x) { return 1000 / x; }
  static int[[]] run(int[[]] xs) { return M @ inv(xs); }
}
|}
  in
  List.iter
    (fun policy ->
      let s = Lm.load ~policy src in
      check_bool "map trap surfaces" true
        (traps (fun () -> Lm.run s "M.run" [ Lm.int_array [| 4; 0; 2 |] ])))
    [ Runtime.Substitute.Bytecode_only; Runtime.Substitute.Prefer_accelerators ]

let test_sink_too_small () =
  let src =
    {|
class S {
  local static int id(int x) { return x; }
  static void run(int[[]] xs) {
    int[] out = new int[2];
    var g = xs.source(1) => ([ task id ]) => out.<int>sink();
    g.finish();
  }
}
|}
  in
  let s = Lm.load ~policy:Runtime.Substitute.Bytecode_only src in
  check_bool "overflowing sink traps" true
    (traps (fun () -> Lm.run s "S.run" [ Lm.int_array [| 1; 2; 3 |] ]))

let test_unknown_entry_point () =
  let s = Lm.load "class C { local static int f(int x) { return x; } }" in
  check_bool "unknown entry" true (traps (fun () -> Lm.run s "C.nope" []))

let test_wrong_arity () =
  let s = Lm.load "class C { local static int f(int x) { return x; } }" in
  check_bool "wrong arity" true (traps (fun () -> Lm.run s "C.f" []))

let test_negative_array_length () =
  let s =
    Lm.load
      "class C { local static int f(int n) { int[] a = new int[n]; return \
       a.length; } }"
  in
  check_bool "negative length traps" true
    (traps (fun () -> Lm.run s "C.f" [ Lm.int (-3) ]));
  match Lm.run s "C.f" [ Lm.int 4 ] with
  | I.Prim (V.Int 4) -> ()
  | v -> Alcotest.failf "got %s" (Lm.show v)

let test_infinite_rtl_guard () =
  (* A wedged netlist must hit the cycle guard, not hang. *)
  let prog =
    Lime_ir.Lower.lower
      (Lime_types.Typecheck.check
         (Lime_syntax.Parser.parse ~file:"t" Test_syntax.figure1_source))
  in
  let filters = List.map snd (Lime_ir.Ir.filter_sites prog) in
  let pl =
    Rtl.Synth.pipeline_of_chain prog ~name:"guard"
      (List.map (fun f -> f, None) filters)
  in
  match
    Rtl.Sim.run ~max_cycles:5 ~eval:(Rtl.Sim.interp prog) pl
      (List.init 50 (fun _ -> V.Bit true))
  with
  | exception Rtl.Sim.Simulation_error _ -> ()
  | _ -> Alcotest.fail "expected the max-cycles guard to fire"

let test_stale_source_text_error_quality () =
  (* Frontend errors carry location and phase. *)
  match Lm.load "class C { local static int f(int x) { return y; } }" with
  | exception Support.Diag.Compile_error d ->
    check_bool "has phase" true (d.phase = "typecheck");
    check_bool "mentions name" true (Test_types.contains d.message "y");
    check_bool "has location" true (d.loc.line > 0)
  | _ -> Alcotest.fail "expected a compile error"

let suite =
  ( "failures",
    [
      Alcotest.test_case "filter trap propagates (all policies)" `Quick
        test_filter_trap_propagates_per_policy;
      Alcotest.test_case "map trap propagates" `Quick test_map_trap_propagates;
      Alcotest.test_case "sink too small" `Quick test_sink_too_small;
      Alcotest.test_case "unknown entry" `Quick test_unknown_entry_point;
      Alcotest.test_case "wrong arity" `Quick test_wrong_arity;
      Alcotest.test_case "negative array length" `Quick test_negative_array_length;
      Alcotest.test_case "rtl cycle guard" `Quick test_infinite_rtl_guard;
      Alcotest.test_case "frontend error quality" `Quick
        test_stale_source_text_error_quality;
    ] )
