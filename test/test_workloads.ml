(* Workload-suite tests: every benchmark program compiles through all
   backends, validates against its OCaml reference, and produces
   identical results under every substitution policy. *)

module Lm = Liquid_metal.Lm
module V = Wire.Value
open Workloads

let check_bool = Alcotest.(check bool)

let small_size (w : Workloads.t) =
  match w.name with
  | "matmul" -> 8
  | "conv2d" -> 8
  | "nbody" -> 16
  | "mandelbrot" -> 12
  | "blackscholes" -> 64
  | _ -> 64

let value_equal (a : Lm.I.v) (b : Lm.I.v) =
  match a, b with
  | Lm.I.Prim x, Lm.I.Prim y -> V.equal x y
  | _ -> false

let test_workload (w : Workloads.t) () =
  let size = small_size w in
  let bytecode = Lm.load ~policy:Runtime.Substitute.Bytecode_only w.source in
  let accel = Lm.load ~policy:Runtime.Substitute.Prefer_accelerators w.source in
  let r_bc = Lm.run bytecode w.entry (w.args ~size) in
  let r_ac = Lm.run accel w.entry (w.args ~size) in
  check_bool
    (w.name ^ ": bytecode and accelerated results identical")
    true (value_equal r_bc r_ac);
  (match w.validate with
  | Some validate -> (
    match validate ~size r_ac with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg)
  | None -> ());
  (* the GPU-class workloads must actually reach the accelerator *)
  match w.category with
  | Gpu_map ->
    check_bool (w.name ^ ": gpu kernel launched") true
      ((Lm.metrics accel).gpu_kernels > 0)
  | Pipeline | Fpga_stream ->
    check_bool (w.name ^ ": substitution happened") true
      ((Lm.metrics accel).substitutions <> [])

let test_fpga_stream_on_fpga (w : Workloads.t) () =
  let size = small_size w in
  let s =
    Lm.load ~policy:(Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Fpga ])
      w.source
  in
  let r = Lm.run s w.entry (w.args ~size) in
  (match w.validate with
  | Some validate -> (
    match validate ~size r with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg)
  | None -> ());
  check_bool (w.name ^ ": ran on the rtl simulator") true
    ((Lm.metrics s).fpga_runs > 0)

(* Every call leaves its arguments as it found them. The server builds
   each (workload, size)'s inputs once per drain and hands the same
   values to every job of that pair, so a call that wrote into one
   would change the next job's inputs. *)
let test_args_unchanged () =
  let policies =
    Runtime.Substitute.
      [
        "bytecode", Bytecode_only;
        "accelerators", Prefer_accelerators;
        "gpu", Prefer_devices [ Runtime.Artifact.Gpu ];
        "fpga", Prefer_devices [ Runtime.Artifact.Fpga ];
        "native", Prefer_devices [ Runtime.Artifact.Native ];
      ]
  in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (label, policy) ->
          let s = Lm.load ~policy w.source in
          List.iter
            (fun size ->
              let args = w.args ~size in
              ignore (Lm.run s w.entry args);
              List.iteri
                (fun i (a, fresh) ->
                  check_bool
                    (Printf.sprintf "%s@%d under %s: argument %d unchanged" w.name size
                       label i)
                    true (value_equal a fresh))
                (List.combine args (w.args ~size)))
            [ small_size w / 2; small_size w ])
        policies)
    Workloads.all

(* [x] moved beyond either validator's tolerance. *)
let off x = x +. 1.0 +. Float.abs x

(* A result with its last element, or the scalar, changed. *)
let corrupt (v : Lm.I.v) : Lm.I.v =
  let last a = Array.length a - 1 in
  match v with
  | Lm.I.Prim (V.Float f) -> Lm.I.Prim (V.Float (off f))
  | Lm.I.Prim (V.Int i) -> Lm.I.Prim (V.Int (i + 1))
  | Lm.I.Prim (V.Float_array a) ->
    let a = Array.copy a in
    a.(last a) <- off a.(last a);
    Lm.I.Prim (V.Float_array a)
  | Lm.I.Prim (V.Int_array a) ->
    let a = Array.copy a in
    a.(last a) <- a.(last a) + 1;
    Lm.I.Prim (V.Int_array a)
  | Lm.I.Prim (V.Bits b) ->
    let i = Bits.Bitvec.length b - 1 in
    Lm.I.Prim (V.Bits (Bits.Bitvec.set b i (not (Bits.Bitvec.get b i))))
  | _ -> Alcotest.fail "a result of no known shape"

(* Each validator, applied to its size once, accepts the interpreter's
   result and rejects that result with one value changed: a reference
   built from the wrong inputs, or compared against the wrong array,
   fails here. *)
let test_validators_reject () =
  let checked =
    List.filter_map
      (fun (w : Workloads.t) ->
        Option.map
          (fun validate ->
            let size = small_size w in
            let check = validate ~size in
            let good =
              Lime_ir.Interp.call (Lm.program (Lm.load w.source)) w.entry (w.args ~size)
            in
            (match check good with
            | Ok () -> ()
            | Error m -> Alcotest.failf "%s rejects the interpreter's result: %s" w.name m);
            check_bool (w.name ^ " rejects a changed result") true
              (Result.is_error (check (corrupt good))))
          w.validate)
      Workloads.all
  in
  Alcotest.(check int) "workloads with a validator" 11 (List.length checked)

let test_catalog () =
  Alcotest.(check int) "thirteen workloads" 13 (List.length Workloads.all);
  check_bool "find works" true (Workloads.find "saxpy" == Workloads.saxpy);
  (match Workloads.find "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "find of unknown should raise");
  List.iter
    (fun (w : Workloads.t) ->
      check_bool (w.name ^ " has description") true (w.description <> "");
      check_bool (w.name ^ " default size positive") true (w.default_size > 0))
    Workloads.all

let test_rng_determinism () =
  let a = Workloads.Rng.create () in
  let b = Workloads.Rng.create () in
  check_bool "same stream" true
    (List.init 20 (fun _ -> Workloads.Rng.int a 1000)
    = List.init 20 (fun _ -> Workloads.Rng.int b 1000));
  let arr = Workloads.Rng.float_array (Workloads.Rng.create ()) 100 ~lo:0.0 ~hi:1.0 in
  check_bool "floats in range" true
    (Array.for_all (fun f -> f >= 0.0 && f < 1.0) arr);
  check_bool "floats are f32" true
    (Array.for_all (fun f -> f = V.f32 f) arr)

let suite =
  ( "workloads",
    Alcotest.test_case "catalog" `Quick test_catalog
    :: Alcotest.test_case "rng determinism" `Quick test_rng_determinism
    :: Alcotest.test_case "a call leaves its arguments unchanged" `Quick
         test_args_unchanged
    :: Alcotest.test_case "every validator rejects a wrong result" `Quick
         test_validators_reject
    :: List.map
         (fun (w : Workloads.t) ->
           Alcotest.test_case (w.name ^ " validates") `Quick (test_workload w))
         Workloads.all
    @ List.filter_map
        (fun (w : Workloads.t) ->
          match w.category with
          | Fpga_stream | Pipeline ->
            Some
              (Alcotest.test_case (w.name ^ " on fpga") `Quick
                 (test_fpga_stream_on_fpga w))
          | Gpu_map -> None)
        Workloads.all )
