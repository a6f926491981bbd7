(* Math intrinsic tests: semantics, cross-engine agreement, backend
   treatment (OpenCL/C spellings, FPGA exclusion). *)

module Lm = Liquid_metal.Lm
module I = Lime_ir.Interp
module In = Lime_ir.Intrinsics
module V = Wire.Value

let check_bool = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-6))

let test_recognition () =
  check_bool "sqrt" true (In.is_intrinsic "Math.sqrt");
  check_bool "pow" true (In.is_intrinsic "Math.pow");
  check_bool "not a method" false (In.is_intrinsic "Math.nope");
  check_bool "not Math" false (In.is_intrinsic "Maths.sqrt");
  check_bool "plain fn" false (In.is_intrinsic "C.f")

let test_apply_semantics () =
  (match In.apply "Math.sqrt" [ V.Float 9.0 ] with
  | V.Float f -> checkf "sqrt 9" 3.0 f
  | _ -> Alcotest.fail "sqrt");
  (match In.apply "Math.pow" [ V.Float 2.0; V.Float 10.0 ] with
  | V.Float f -> checkf "pow" 1024.0 f
  | _ -> Alcotest.fail "pow");
  (* results are f32-rounded *)
  (match In.apply "Math.log" [ V.Float 10.0 ] with
  | V.Float f -> check_bool "f32" true (f = V.f32 f)
  | _ -> Alcotest.fail "log");
  match In.apply "Math.sqrt" [ V.Int 9 ] with
  | exception In.Error _ -> ()
  | _ -> Alcotest.fail "expected arity/type error"

(* The VM runs each intrinsic on float operands through a closure of
   its own, calling the float primitive directly; each must compute
   what [apply] computes, bit for bit, NaN and signed zeros included. *)
let test_vm_matches_apply () =
  let xs = List.map V.f32 [ -2.5; -0.0; 0.0; 0.5; 3.0; 1e30; Float.nan ] in
  List.iter
    (fun (name, arity) ->
      let params, args = if arity = 1 then "float x", "x" else "float x, float y", "x, y" in
      let s =
        Lm.load ~policy:Runtime.Substitute.Bytecode_only
          (Printf.sprintf "class T { static float f(%s) { return Math.%s(%s); } }" params
             name args)
      in
      let operands =
        if arity = 1 then List.map (fun x -> [ x ]) xs
        else List.concat_map (fun x -> List.map (fun y -> [ x; y ]) xs) xs
      in
      List.iter
        (fun ops ->
          let want = In.apply ("Math." ^ name) (List.map (fun x -> V.Float x) ops) in
          match Lm.run s "T.f" (List.map Lm.float ops), want with
          | I.Prim (V.Float got), V.Float want ->
            check_bool
              (Printf.sprintf "Math.%s(%s)" name
                 (String.concat ", " (List.map (Printf.sprintf "%h") ops)))
              true
              (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want))
          | _ -> Alcotest.fail "not a float")
        operands)
    In.signatures

let hypot_src =
  {|
class G {
  local static float hypot(float x, float y) {
    return Math.sqrt(x * x + y * y);
  }
  static float[[]] run(float[[]] xs, float[[]] ys) {
    return G @ hypot(xs, ys);
  }
}
|}

let test_engines_agree_on_intrinsics () =
  let xs = Lm.float_array [| 3.0; 5.0; 8.0 |] in
  let ys = Lm.float_array [| 4.0; 12.0; 15.0 |] in
  let run policy =
    let s = Lm.load ~policy hypot_src in
    Lm.as_float_array (Lm.run s "G.run" [ xs; ys ])
  in
  let bc = run Runtime.Substitute.Bytecode_only in
  Alcotest.(check (array (float 1e-4))) "values" [| 5.0; 13.0; 17.0 |] bc;
  Alcotest.(check (array (float 0.0))) "gpu identical" bc
    (run Runtime.Substitute.Prefer_accelerators);
  Alcotest.(check (array (float 0.0))) "native identical" bc
    (run (Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Native ]))

let test_opencl_spelling () =
  let s = Lm.load hypot_src in
  let store = Runtime.Exec.store (Lm.engine s) in
  let text =
    List.find_map
      (fun (e : Runtime.Artifact.manifest_entry) ->
        match Runtime.Store.find_on store ~uid:e.me_uid ~device:e.me_device with
        | Some (Runtime.Artifact.Gpu_kernel g) -> Some g.ga_opencl
        | _ -> None)
      (Lm.manifest s).entries
    |> Option.get
  in
  check_bool "plain sqrt in OpenCL" true (Test_types.contains text "sqrt(")

let fpga_excl_src =
  {|
class G {
  local static float soften(float x) {
    return Math.sqrt(x + 1.0);
  }
  static float[[]] run(float[[]] xs) {
    float[] out = new float[xs.length];
    var g = xs.source(1) => ([ task soften ]) => out.<float>sink();
    g.finish();
    return new float[[]](out);
  }
}
|}

let test_fpga_excludes_intrinsics () =
  let s = Lm.load fpga_excl_src in
  let m = Lm.manifest s in
  check_bool "fpga exclusion recorded" true
    (List.exists
       (fun (x : Runtime.Artifact.exclusion) ->
         x.ex_device = Runtime.Artifact.Fpga
         && Test_types.contains x.ex_reason "IP core")
       m.exclusions);
  (* and the pipeline still runs (on the GPU or bytecode) *)
  let r = Lm.run s "G.run" [ Lm.float_array [| 3.0; 8.0 |] ] in
  Alcotest.(check (array (float 1e-4))) "values" [| 2.0; 3.0 |]
    (Lm.as_float_array r)

let test_intrinsic_as_map_target () =
  let s =
    Lm.load
      {|
class M {
  static float[[]] roots(float[[]] xs) { return Math @ sqrt(xs); }
}
|}
  in
  let r = Lm.run s "M.roots" [ Lm.float_array [| 1.0; 4.0; 9.0 |] ] in
  Alcotest.(check (array (float 1e-5))) "roots" [| 1.0; 2.0; 3.0 |]
    (Lm.as_float_array r)

let test_blackscholes_smoke () =
  (* deep sanity: an at-the-money option with known ballpark price *)
  let w = Workloads.find "blackscholes" in
  let s = Lm.load w.Workloads.source in
  let r =
    Lm.run s "Bs.callPrice"
      [ Lm.float 100.0; Lm.float 100.0; Lm.float 1.0; Lm.float 0.02;
        Lm.float 0.30 ]
  in
  let price = Lm.as_float r in
  check_bool "plausible ATM price" true (price > 12.0 && price < 14.0)

let suite =
  ( "intrinsics",
    [
      Alcotest.test_case "recognition" `Quick test_recognition;
      Alcotest.test_case "apply semantics" `Quick test_apply_semantics;
      Alcotest.test_case "engines agree" `Quick test_engines_agree_on_intrinsics;
      Alcotest.test_case "vm agrees with apply on every intrinsic" `Quick
        test_vm_matches_apply;
      Alcotest.test_case "opencl spelling" `Quick test_opencl_spelling;
      Alcotest.test_case "fpga excludes intrinsics" `Quick
        test_fpga_excludes_intrinsics;
      Alcotest.test_case "Math as map target" `Quick test_intrinsic_as_map_target;
      Alcotest.test_case "blackscholes sanity" `Quick test_blackscholes_smoke;
    ] )
