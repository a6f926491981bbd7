module Ir = Lime_ir.Ir
(* GPU substrate tests: functional equivalence with the CPU paths,
   timing-model shape (parallel scaling, divergence, bandwidth), the
   suitability analysis, and the OpenCL artifact text. *)

module I = Lime_ir.Interp
module V = Wire.Value

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile src =
  Lime_ir.Lower.lower
    (Lime_types.Typecheck.check (Lime_syntax.Parser.parse ~file:"t" src))

let saxpy_src =
  {|
class M {
  local static float axpy(float a, float x, float y) { return a * x + y; }
  local static float addf(float a, float b) { return a + b; }
  static float[[]] saxpy(float a, float[[]] xs, float[[]] ys) {
    return M @ axpy(a, xs, ys);
  }
  static float sum(float[[]] xs) { return M @@ addf(xs); }
}
|}

(* a device program over [prog]'s bytecode *)
let device prog = Gpu.Simt.prepare (Bytecode.Compile.compile_program prog)

let saxpy_prog = compile saxpy_src
let saxpy_simt = device saxpy_prog

let map_site prog =
  match Ir.kernel_sites prog with
  | `Map m :: _ -> m
  | _ -> Alcotest.fail "expected a map site"

let reduce_site prog =
  match
    List.find_opt (function `Reduce _ -> true | `Map _ -> false)
      (Ir.kernel_sites prog)
  with
  | Some (`Reduce r) -> r
  | _ -> Alcotest.fail "expected a reduce site"

let test_map_matches_interpreter () =
  let site = map_site saxpy_prog in
  let xs = V.Float_array (Array.init 100 (fun i -> V.f32 (float_of_int i))) in
  let ys = V.Float_array (Array.init 100 (fun i -> V.f32 (float_of_int (i * 2)))) in
  let a = V.Float 1.5 in
  let gpu, _ = Gpu.Simt.run_map saxpy_simt site [ a; xs; ys ] in
  let expected =
    V.Float_array
      (Array.init 100 (fun i ->
           V.add_f32 (V.mul_f32 1.5 (V.f32 (float_of_int i)))
             (V.f32 (float_of_int (i * 2)))))
  in
  check_bool "bitwise equal to CPU arithmetic" true (V.equal gpu expected)

let test_reduce_matches_left_fold () =
  let site = reduce_site saxpy_prog in
  let xs = V.Float_array (Array.init 33 (fun i -> V.f32 (float_of_int i /. 7.0))) in
  let gpu, timing = Gpu.Simt.run_reduce saxpy_simt site xs in
  (* The value semantics are the left fold, so every device agrees. *)
  let expected =
    Array.fold_left
      (fun acc x -> V.add_f32 acc x)
      (match xs with V.Float_array a -> a.(0) | _ -> assert false)
      (match xs with
      | V.Float_array a -> Array.sub a 1 (Array.length a - 1)
      | _ -> assert false)
  in
  check_bool "left fold" true (V.equal gpu (V.Float expected));
  check_bool "timing present" true (timing.Gpu.Simt.kernel_ns > 0.0)

let test_kernel_time_scales_linearly () =
  (* Beyond lane saturation the throughput model is linear in n: 32x
     the elements costs about 32x the kernel time (minus the fixed
     launch overhead), never catastrophically more. *)
  let site = map_site saxpy_prog in
  let mk n = V.Float_array (Array.init n (fun i -> V.f32 (float_of_int i))) in
  let time n =
    let _, t =
      Gpu.Simt.run_map saxpy_simt site [ V.Float 2.0; mk n; mk n ]
    in
    t.Gpu.Simt.kernel_ns -. Gpu.Device.gtx580.Gpu.Device.launch_overhead_ns
  in
  let t512 = time 512 in
  let t16384 = time 16384 in
  check_bool "roughly 32x" true
    (t16384 > 20.0 *. t512 && t16384 < 40.0 *. t512)

let divergent_src =
  {|
class D {
  local static int f(int x) {
    if (x % 2 == 0) {
      return x + 1;
    }
    int a = x / 3;
    int b = x / 5;
    int c = x / 7;
    int d = x / 11;
    return a + b + c + d;
  }
  static int[[]] run(int[[]] xs) { return D @ f(xs); }
}
|}

let test_divergence_penalty () =
  let prog = compile divergent_src in
  let site = map_site prog in
  let sp = device prog in
  let mixed = V.Int_array (Array.init 1024 (fun i -> i)) in
  let uniform = V.Int_array (Array.init 1024 (fun i -> 2 * i)) in
  let _, t_mixed = Gpu.Simt.run_map sp site [ mixed ] in
  let _, t_uniform = Gpu.Simt.run_map sp site [ uniform ] in
  check_bool "divergent warps split into groups" true
    (t_mixed.Gpu.Simt.avg_divergence_groups > 1.5);
  check_bool "uniform warps stay converged" true
    (t_uniform.Gpu.Simt.avg_divergence_groups < 1.01);
  check_bool "divergence costs cycles" true
    (t_mixed.Gpu.Simt.compute_cycles > t_uniform.Gpu.Simt.compute_cycles);
  (* Ablation A3: with the model off, the penalty disappears. *)
  let _, t_off = Gpu.Simt.run_map ~model_divergence:false sp site [ mixed ] in
  check_bool "model off removes the penalty" true
    (t_off.Gpu.Simt.compute_cycles < t_mixed.Gpu.Simt.compute_cycles)

let test_filter_chain_execution () =
  let prog =
    compile
      {|
class P {
  local static int dbl(int x) { return x * 2; }
  local static int inc(int x) { return x + 1; }
}
|}
  in
  let input = V.Int_array (Array.init 50 (fun i -> i)) in
  let out, timing =
    Gpu.Simt.run_filter_chain (device prog) ~chain:[ "P.dbl"; "P.inc" ]
      ~output_ty:Ir.I32 input
  in
  let expected = V.Int_array (Array.init 50 (fun i -> (2 * i) + 1)) in
  check_bool "composed filters" true (V.equal out expected);
  check_int "items" 50 timing.Gpu.Simt.items

let test_suitability_verdicts () =
  let prog =
    compile
      {|
class S {
  local static int pure(int x) { return x * 3; }
  global static int effectful(int x) { return x; }
  local static int allocates(int n) {
    int[] a = new int[n];
    return a.length;
  }
  local static int looped(int x) {
    int acc = 0;
    for (int i = 0; i < x; i++) { acc += i; }
    return acc;
  }
  global static int chained(int x) { return S.allocates(x); }
}
class Obj {
  int v;
  local Obj(int v0) { v = v0; }
  local int get(int unused) { return v; }
}
|}
  in
  let check key expect_ok substr =
    match Gpu.Suitability.check_fn prog key with
    | Gpu.Suitability.Suitable ->
      check_bool (key ^ " suitable") true expect_ok
    | Gpu.Suitability.Excluded reason ->
      check_bool (key ^ " excluded") false expect_ok;
      if substr <> "" then
        check_bool (key ^ " reason") true (Test_types.contains reason substr)
  in
  check "S.pure" true "";
  (* global but provably pure: the effect inference promotes it *)
  check "S.effectful" true "";
  check "S.allocates" false "alloc";
  (* loops are fine on a GPU, unlike the FPGA backend *)
  check "S.looped" true "";
  check "Obj.get" false "stateful";
  (* the effect and its witness call chain travel to the caller *)
  check "S.chained" false "alloc";
  check "S.chained" false "via S.chained"

let test_opencl_map_text () =
  let text = Gpu.Opencl_gen.map_kernel_text saxpy_prog (map_site saxpy_prog) in
  List.iter
    (fun needle -> check_bool needle true (Test_types.contains text needle))
    [
      "__kernel void";
      "get_global_id(0)";
      "__global const float* a1";
      "const float a0";  (* the broadcast scalar *)
      "static float M_axpy(float";
    ]

let test_opencl_reduce_text () =
  let text =
    Gpu.Opencl_gen.reduce_kernel_text saxpy_prog (reduce_site saxpy_prog)
  in
  List.iter
    (fun needle -> check_bool needle true (Test_types.contains text needle))
    [ "__kernel void"; "barrier(CLK_LOCAL_MEM_FENCE)"; "__local float*" ]

let test_device_models () =
  check_int "gtx580 lanes" 512 (Gpu.Device.total_lanes Gpu.Device.gtx580);
  check_bool "mobile is slower" true
    (Gpu.Device.total_lanes Gpu.Device.mobile
     < Gpu.Device.total_lanes Gpu.Device.gtx580);
  Alcotest.(check (float 1e-6))
    "cycles to ns" 100.0
    (Gpu.Device.cycles_to_ns Gpu.Device.gtx580 154.4)

(* Property: GPU map result equals the interpreter's map on random input. *)
let prop_gpu_map_differential =
  let prog = compile divergent_src in
  let site = map_site prog in
  let sp = device prog in
  QCheck2.Test.make ~name:"gpu: map agrees with interpreter" ~count:100
    QCheck2.Gen.(list_size (int_range 1 80) (int_range (-1000) 1000))
    (fun xs ->
      let arr = V.Int_array (Array.of_list (List.map V.norm32 xs)) in
      let gpu, _ = Gpu.Simt.run_map sp site [ arr ] in
      let cpu =
        match
          I.call prog "D.run" [ I.Prim arr ]
        with
        | I.Prim v -> v
        | _ -> V.Unit
      in
      V.equal gpu cpu)

(* Traps and reuse: device errors keep their exception and message, and
   a trapped launch leaves nothing stale behind for the next one. *)
let trap_src =
  {|
class T {
  local static int peek(int i, int[[]] xs) { return xs[i + 3]; }
  local static int poke(int i, int[] buf) { buf[i + 3] = i; return i; }
  local static int quot(int x) { return 100 / x; }
  local static int helper(int x) { return x + 1; }
  local static int twice(int x) { return helper(x) * 2; }
  local static float sq(float x) { return x * x; }
  local static float norm(float x, float y) { return Math.sqrt(sq(x) + sq(y)); }
  local static int alloc(int i) { int[] a = new int[i + 1]; a[0] = i; return a[0]; }
  local static int frz(int i, int[] buf) { int[[]] v = new int[[]](buf); return v[0] + i; }
  local static int two(int i, int k) { return i + 2; }
  static int[[]] runPeek(int[[]] is, int[[]] xs) { return T @ peek(is, xs); }
  static int[[]] runQuot(int[[]] xs) { return T @ quot(xs); }
  static int[[]] runTwice(int[[]] xs) { return T @ twice(xs); }
  static float[[]] runNorm(float[[]] xs, float[[]] ys) { return T @ norm(xs, ys); }
}
|}

let trap_prog = compile trap_src

let site_of prog fn =
  match
    List.find_map
      (function `Map (m : Ir.map_site) when m.map_fn = fn -> Some m | _ -> None)
      (Ir.kernel_sites prog)
  with
  | Some m -> m
  | None -> Alcotest.failf "no map site for %s" fn

let ints l = V.Int_array (Array.of_list l)

let expect_trap what expected f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a trap" what
  | exception Gpu.Simt.Device_error m ->
    Alcotest.(check string) what expected ("Device_error: " ^ m)
  | exception I.Runtime_error m ->
    Alcotest.(check string) what expected ("Runtime_error: " ^ m)

let interp prog entry args =
  I.prim_exn (I.call prog entry (List.map (fun a -> I.Prim a) args))

let test_trap_parity () =
  let sp = device trap_prog in
  let run fn args = Gpu.Simt.run_map sp (site_of trap_prog fn) args in
  expect_trap "guarded load" "Runtime_error: array index 4 out of bounds (length 4)"
    (fun () -> run "T.peek" [ ints [ 0; 1; 2 ]; ints [ 10; 11; 12; 13 ] ]);
  (* Lime maps take value arrays only, so no map site can store; launch
     a hand-built site over the mutable-array function instead. *)
  let poke =
    {
      (site_of trap_prog "T.peek") with
      Ir.map_uid = "poke";
      map_fn = "T.poke";
    }
  in
  expect_trap "guarded store" "Runtime_error: array index 4 out of bounds (length 4)"
    (fun () ->
      Gpu.Simt.run_map sp poke [ ints [ 0; 1; 2 ]; ints [ 0; 0; 0; 0 ] ]);
  expect_trap "division by zero" "Runtime_error: division by zero" (fun () ->
      run "T.quot" [ ints [ 5; 0; 7 ] ]);
  (* Constructs the suitability analysis keeps off the device trap if a
     site reaches them anyway. *)
  let unsupported =
    "Device_error: construct not supported on the device (should be excluded)"
  in
  let alloc =
    { (site_of trap_prog "T.quot") with Ir.map_uid = "alloc"; map_fn = "T.alloc" }
  in
  expect_trap "allocation" unsupported (fun () ->
      Gpu.Simt.run_map sp alloc [ ints [ 1; 2 ] ]);
  let frz = { poke with Ir.map_uid = "frz"; map_fn = "T.frz" } in
  expect_trap "freeze" unsupported (fun () ->
      Gpu.Simt.run_map sp frz [ ints [ 0; 1 ]; ints [ 4; 5 ] ]);
  (* a kernel launched with fewer arguments than it takes *)
  let two = { alloc with Ir.map_uid = "two"; map_fn = "T.two" } in
  expect_trap "arity" "Device_error: T.two takes 2 argument(s), got 1" (fun () ->
      Gpu.Simt.run_map sp two [ ints [ 0; 1; 2 ] ]);
  (* The compiled code is reused after every trap. *)
  let xs = [ ints [ 5; -3; 7; 1000 ] ] in
  check_bool "launch after a trap" true
    (V.equal (fst (run "T.quot" xs)) (interp trap_prog "T.runQuot" xs));
  check_bool "nested call after a trap" true
    (V.equal (fst (run "T.twice" xs)) (interp trap_prog "T.runTwice" xs));
  let missing =
    { trap_prog with Ir.funcs = Ir.String_map.remove "T.helper" trap_prog.funcs }
  in
  let sp_missing = device missing in
  expect_trap "missing function" "Device_error: no device function T.helper"
    (fun () ->
      Gpu.Simt.run_map sp_missing (site_of missing "T.twice") [ ints [ 1; 2 ] ]);
  check_bool "launch after a missing callee" true
    (V.equal
       (fst (Gpu.Simt.run_map sp_missing (site_of missing "T.quot") xs))
       (interp trap_prog "T.runQuot" xs))

(* The same through an engine: a trapped GPU launch propagates, and the
   engine's next launch runs on the GPU and matches the interpreter. *)
let test_engine_after_trap () =
  let c = Liquid_metal.Compiler.compile trap_src in
  let e = Liquid_metal.Compiler.engine c in
  let call xs = Runtime.Exec.call e "T.runQuot" [ I.Prim (ints xs) ] in
  (match call [ 4; 0 ] with
  | _ -> Alcotest.fail "expected a trap"
  | exception I.Runtime_error m ->
    Alcotest.(check string) "trap" "division by zero" m);
  let xs = [ 4; -7; 9; 100 ] in
  let before = (Runtime.Metrics.snapshot (Runtime.Exec.metrics e)).gpu_kernels in
  check_bool "matches interpreter" true
    (V.equal (I.prim_exn (call xs)) (interp c.ir "T.runQuot" [ ints xs ]));
  check_bool "ran on the gpu" true
    ((Runtime.Metrics.snapshot (Runtime.Exec.metrics e)).gpu_kernels > before)

let test_nested_calls_and_intrinsics () =
  let fs l = V.Float_array (Array.of_list (List.map V.f32 l)) in
  let args = [ fs [ 3.0; 0.5; -2.25 ]; fs [ 4.0; 1.5; 7.0 ] ] in
  let out, t =
    Gpu.Simt.run_map (device trap_prog) (site_of trap_prog "T.norm")
      args
  in
  check_bool "matches interpreter" true
    (V.equal out (interp trap_prog "T.runNorm" args));
  (* per lane: call 2, two nested calls of 2 + 1 each, add 1, sqrt 8 *)
  Alcotest.(check (float 0.0)) "cycles" 17.0 t.Gpu.Simt.compute_cycles

let suite =
  ( "gpu",
    [
      Alcotest.test_case "map matches interpreter" `Quick test_map_matches_interpreter;
      Alcotest.test_case "reduce is the left fold" `Quick test_reduce_matches_left_fold;
      Alcotest.test_case "parallel scaling" `Quick test_kernel_time_scales_linearly;
      Alcotest.test_case "divergence penalty" `Quick test_divergence_penalty;
      Alcotest.test_case "filter chain" `Quick test_filter_chain_execution;
      Alcotest.test_case "suitability verdicts" `Quick test_suitability_verdicts;
      Alcotest.test_case "opencl map text" `Quick test_opencl_map_text;
      Alcotest.test_case "opencl reduce text" `Quick test_opencl_reduce_text;
      Alcotest.test_case "device models" `Quick test_device_models;
      Alcotest.test_case "trap parity and reuse" `Quick test_trap_parity;
      Alcotest.test_case "engine launch after a trap" `Quick test_engine_after_trap;
      Alcotest.test_case "nested calls and intrinsics" `Quick
        test_nested_calls_and_intrinsics;
      QCheck_alcotest.to_alcotest prop_gpu_map_differential;
    ] )
