(* Static-analysis tests: the fixpoint engine (termination, widening),
   the interval domain, value-range facts over real Lime functions,
   effect/purity inference with witness chains, the task-graph lint,
   and differential checks that the static verdicts agree with what the
   compiler and runtime actually do. *)

module Ir = Lime_ir.Ir
module Iv = Analysis.Interval
module Range = Analysis.Range
module Effects = Analysis.Effects
module Report = Analysis.Report

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile src =
  Lime_ir.Opt.optimize
    (Lime_ir.Lower.lower
       (Lime_types.Typecheck.check (Lime_syntax.Parser.parse ~file:"t" src)))

(* --- fixpoint engine --------------------------------------------------- *)

(* A counting self-loop over the interval lattice: without widening the
   chain [0,0] ⊑ [0,1] ⊑ [0,2] ⊑ ... never stabilizes; the solver must
   widen at the loop head and terminate with an unbounded upper end. *)
let test_fixpoint_widening_terminates () =
  let module L = struct
    type t = Iv.t

    let bottom = Iv.of_bounds 1 0 (* empty interval = Bot *)
    let equal = Iv.equal
    let join = Iv.join
    let widen = Iv.widen
  end in
  let module S = Analysis.Fixpoint.Make (L) in
  let facts, stats =
    S.solve
      {
        S.size = 2;
        entries = [ 0, Iv.of_int 0 ];
        succs = (function 0 -> [ 1 ] | _ -> [ 1 ]);
        transfer = (fun n x -> if n = 1 then Iv.add x (Iv.of_int 1) else x);
        edge = (fun _ _ x -> x);
        widen_at = (fun n -> n = 1);
      }
  in
  check_bool "loop head reached" true (not (Iv.is_bot facts.(1)));
  check_bool "upper bound widened away" true (Iv.upper facts.(1) = None);
  check_bool "widening fired" true (stats.Analysis.Fixpoint.widenings >= 1);
  check_bool "terminated quickly" true (stats.Analysis.Fixpoint.iterations < 100)

(* Unreached nodes keep bottom: reachability falls out of the solve. *)
let test_fixpoint_unreachable_stays_bottom () =
  let module L = struct
    type t = Iv.t

    let bottom = Iv.of_bounds 1 0
    let equal = Iv.equal
    let join = Iv.join
    let widen = Iv.widen
  end in
  let module S = Analysis.Fixpoint.Make (L) in
  let facts, _ =
    S.solve
      {
        S.size = 3;
        entries = [ 0, Iv.of_int 7 ];
        succs = (function 0 -> [ 1 ] | _ -> []);
        transfer = (fun _ x -> x);
        edge = (fun _ _ x -> x);
        widen_at = (fun _ -> false);
      }
  in
  check_bool "node 1 reached" true (Iv.equal facts.(1) (Iv.of_int 7));
  check_bool "node 2 unreached" true (Iv.is_bot facts.(2))

(* --- interval domain --------------------------------------------------- *)

let test_interval_arithmetic () =
  let i = Iv.of_bounds in
  check_bool "add" true (Iv.equal (Iv.add (i 1 2) (i 10 20)) (i 11 22));
  check_bool "mul signs" true (Iv.equal (Iv.mul (i (-2) 3) (i 4 5)) (i (-10) 15));
  check_bool "mask" true (Iv.equal (Iv.band Iv.top (Iv.of_int 255)) (i 0 255));
  check_bool "div halves" true (Iv.equal (Iv.div (i 0 255) (Iv.of_int 2)) (i 0 127));
  check_bool "rem bound" true (Iv.equal (Iv.rem Iv.top (Iv.of_int 8)) (i (-7) 7));
  (* comparisons decide when the ranges are disjoint *)
  check_bool "lt decided" true (Iv.equal (Iv.cmp_lt (i 0 3) (i 5 9)) (Iv.of_int 1));
  check_bool "lt undecided" true (Iv.equal (Iv.cmp_lt (i 0 5) (i 3 9)) Iv.boolean);
  (* widths: unsigned when provably non-negative, else two's complement *)
  check_bool "width 255" true (Iv.width (i 0 255) = Some 8);
  check_bool "width signed" true (Iv.width (i (-4) 3) = Some 3);
  check_bool "width unbounded" true (Iv.width Iv.top = None)

(* --- value-range analysis over Lime functions -------------------------- *)

let range_src =
  {|
class R {
  local static int mask(int x) { return x & 255; }
  local static int clamp(int x) {
    if (x < 10) { return x; }
    return 0;
  }
  local static int inBounds(int n) {
    int[] a = new int[8];
    return a[n & 7];
  }
  local static int alwaysOut(int n) {
    int[] a = new int[4];
    return a[5];
  }
}
|}

let test_range_return_intervals () =
  let prog = compile range_src in
  let ret = Range.return_interval prog "R.mask" ~args:[ Iv.top ] in
  check_bool "mask lower" true (Iv.lower ret = Some 0);
  check_bool "mask upper" true (Iv.upper ret = Some 255);
  (* branch refinement: on the true edge of [x < 10], x <= 9 *)
  let ret = Range.return_interval prog "R.clamp" ~args:[ Iv.of_bounds 0 100 ] in
  check_bool "clamp lower" true (Iv.lower ret = Some 0);
  check_bool "clamp upper" true (Iv.upper ret = Some 9)

let test_range_array_bounds () =
  let prog = compile range_src in
  let facts fn = Range.analyze_fn prog (Ir.func_exn prog fn) in
  let all_proven f =
    f.Range.ff_accesses <> []
    && List.for_all (fun (_, v) -> v = Range.Proven) f.Range.ff_accesses
  in
  check_bool "a[n & 7] of new int[8] proven" true (all_proven (facts "R.inBounds"));
  check_bool "a[5] of new int[4] flagged" true
    (List.exists
       (fun (_, v) -> v = Range.Out_of_bounds)
       (facts "R.alwaysOut").Range.ff_accesses);
  (* the GPU path marks the proof in the emitted device function *)
  let text =
    Gpu.Opencl_gen.device_function_text prog (Ir.func_exn prog "R.inBounds")
  in
  check_bool "opencl bounds banner" true
    (Test_types.contains text "proven in bounds")

(* --- effect inference -------------------------------------------------- *)

let effects_src =
  {|
class E {
  global static int pure(int x) { return x * 3; }
  global static int alloc(int n) {
    int[] a = new int[n];
    return a.length;
  }
  global static int viaAlloc(int n) { return E.alloc(n); }
}
|}

let test_effect_inference () =
  let prog = compile effects_src in
  let effects = Effects.infer prog in
  check_bool "pure has no effects" true (Effects.summary effects "E.pure" = []);
  check_bool "alloc is impure" true (Effects.summary effects "E.alloc" <> []);
  (* effects propagate to callers, and the witness names the chain *)
  match Effects.summary effects "E.viaAlloc" with
  | [] -> Alcotest.fail "E.viaAlloc should inherit its callee's effect"
  | w :: _ ->
    let text = Effects.describe_witness w in
    check_bool "witness names the effect" true
      (Test_types.contains text "allocates an array");
    check_bool "witness names the chain" true
      (Test_types.contains text "via E.viaAlloc")

(* The promotion the purity analysis buys: a pure global map target is
   GPU-suitable and actually produces a kernel artifact in the
   manifest (it used to be rejected as a type error). *)
let test_pure_global_promoted_to_gpu () =
  let src =
    {|
class G {
  global static int scale(int x) { return x * 3; }
  static int[[]] run(int[[]] xs) { return G @ scale(xs); }
}
|}
  in
  let prog = compile src in
  (match Gpu.Suitability.check_fn prog "G.scale" with
  | Gpu.Suitability.Suitable -> ()
  | Gpu.Suitability.Excluded reason ->
    Alcotest.failf "pure global excluded: %s" reason);
  let compiled = Liquid_metal.Compiler.compile src in
  let manifest = Liquid_metal.Compiler.manifest compiled in
  check_bool "gpu kernel in manifest" true
    (List.exists
       (fun (e : Runtime.Artifact.manifest_entry) ->
         e.me_device = Runtime.Artifact.Gpu
         && Test_types.contains e.me_uid "G.scale")
       manifest.Runtime.Artifact.entries);
  check_bool "no exclusions" true (manifest.Runtime.Artifact.exclusions = [])

(* --- task-graph lint --------------------------------------------------- *)

let rate0_src =
  {|
class P {
  local static int id(int x) { return x; }
  static void go(int[[]] xs) {
    int[] out = new int[4];
    var g = xs.source(0) => ([ task id ]) => out.<int>sink();
    g.finish();
  }
}
|}

let test_graphlint_rate0_is_static_error () =
  let prog = compile rate0_src in
  let report = Report.analyze prog in
  check_bool "LMA002 reported" true
    (List.exists
       (fun (d : Report.diag) ->
         d.Report.d_code = "LMA002" && d.Report.d_sev = Report.Error)
       report.Report.diags);
  check_bool "counted as error" true (Report.error_count report.Report.diags > 0)

(* Differential: the wedge the lint predicts is the wedge the runtime
   hits — the same program raises [Scheduler.Deadlock] when run. *)
let test_graphlint_agrees_with_runtime () =
  let session = Liquid_metal.Lm.load rate0_src in
  match
    Liquid_metal.Lm.run session "P.go"
      [ Liquid_metal.Lm.int_array [| 1; 2; 3 |] ]
  with
  | _ -> Alcotest.fail "rate-0 graph should deadlock"
  | exception Runtime.Scheduler.Deadlock _ -> ()

(* Differential: every function the effect analysis calls pure must
   compute the same result as the (effect-blind) interpreter — being
   promoted to a device never changes observable behaviour. *)
let test_purity_differential () =
  let src =
    {|
class D {
  global static int f(int x) { return (x * 7 + 3) & 1023; }
  static int[[]] run(int[[]] xs) { return D @ f(xs); }
}
|}
  in
  let session = Liquid_metal.Lm.load src in
  let input = Array.init 32 (fun i -> i * 5) in
  let result =
    Liquid_metal.Lm.run session "D.run"
      [ Liquid_metal.Lm.int_array input ]
  in
  let expected = Array.map (fun x -> (x * 7 + 3) land 1023) input in
  (match result with
  | Lime_ir.Interp.Prim (Wire.Value.Int_array a) ->
    check_bool "promoted map agrees with scalar evaluation" true (a = expected)
  | _ -> Alcotest.fail "expected an int array")

(* --- relational symbolic domain ---------------------------------------- *)

module Symbolic = Analysis.Symbolic
module Algebra = Analysis.Algebra
module Fusability = Analysis.Fusability

let sym_src =
  {|
class S {
  local static int sum(int[[]] xs) {
    int acc = 0;
    for (int i = 0; i < xs.length; i++) {
      acc = acc + xs[i];
    }
    return acc;
  }
  local static int[[]] iota(int n) {
    int[] idx = new int[n * n];
    for (int i = 0; i < n * n; i++) {
      idx[i] = i;
    }
    return new int[[]](idx);
  }
  local static int offByOne(int[[]] xs) {
    int acc = 0;
    for (int i = 0; i <= xs.length; i++) {
      acc = acc + xs[i];
    }
    return acc;
  }
}
|}

(* The relational domain proves the canonical induction-variable loops
   (i < xs.length, i < n * n against new int[n * n]) that the concrete
   Range domain reports Unknown — and refuses the off-by-one loop. *)
let test_symbolic_length_loops_proven () =
  let prog = compile sym_src in
  let facts fn = Symbolic.analyze_fn prog (Ir.func_exn prog fn) in
  let f = facts "S.sum" in
  check_int "sum: one access" 1 f.Symbolic.sf_total;
  check_int "sum: proven" 1 f.Symbolic.sf_proven;
  check_bool "sum: proof is relational" true (f.Symbolic.sf_relational >= 1);
  let f = facts "S.iota" in
  check_int "iota: proven" 1 f.Symbolic.sf_proven;
  let f = facts "S.offByOne" in
  check_int "off-by-one: not proven" 0 f.Symbolic.sf_proven;
  (* the same loops are beyond the concrete domain alone *)
  let r = Range.analyze_fn prog (Ir.func_exn prog "S.sum") in
  check_bool "Range alone reports Unknown" true
    (List.exists (fun (_, v) -> v = Range.Unknown) r.Range.ff_accesses)

(* The OpenCL emitter consumes the proofs: banner plus per-access
   markers, and only the proven access is marked. *)
let test_symbolic_opencl_unguarded () =
  let prog = compile sym_src in
  let text =
    Gpu.Opencl_gen.device_function_text prog (Ir.func_exn prog "S.sum")
  in
  check_bool "banner present" true (Test_types.contains text "proven in bounds");
  check_bool "unguarded marker present" true
    (Test_types.contains text "/* unguarded */");
  let text =
    Gpu.Opencl_gen.device_function_text prog (Ir.func_exn prog "S.offByOne")
  in
  check_bool "no banner without proof" false
    (Test_types.contains text "proven in bounds");
  check_bool "no marker without proof" false
    (Test_types.contains text "/* unguarded */")

(* Derived indices: the shifted-bound rule proves xs[j + off] when the
   guard's bound shifts by the same offset (j < xs.length - 2), and
   xs[j - off] from the lower bound alone (j >= 3) — while the same
   access under an unshifted guard stays unproven. *)
let derived_src =
  {|
class D {
  local static int fwd(int[[]] xs) {
    int acc = 0;
    for (int j = 0; j < xs.length - 2; j++) {
      acc = acc + xs[j + 2];
    }
    return acc;
  }
  local static int bwd(int[[]] xs) {
    int acc = 0;
    for (int j = 3; j < xs.length; j++) {
      acc = acc + xs[j - 3];
    }
    return acc;
  }
  local static int unshifted(int[[]] xs) {
    int acc = 0;
    for (int j = 0; j < xs.length; j++) {
      acc = acc + xs[j + 2];
    }
    return acc;
  }
}
|}

let test_symbolic_derived_indices () =
  let prog = compile derived_src in
  let facts fn = Symbolic.analyze_fn prog (Ir.func_exn prog fn) in
  let f = facts "D.fwd" in
  check_int "xs[j+2] under j < xs.length-2: proven" f.Symbolic.sf_total
    f.Symbolic.sf_proven;
  check_bool "forward proof is relational" true (f.Symbolic.sf_relational >= 1);
  let f = facts "D.bwd" in
  check_int "xs[j-3] under j >= 3: proven" f.Symbolic.sf_total
    f.Symbolic.sf_proven;
  let f = facts "D.unshifted" in
  check_int "xs[j+2] under j < xs.length: refused" 0 f.Symbolic.sf_proven;
  (* the proof reaches the OpenCL emitter: fwd compiles unguarded *)
  let text =
    Gpu.Opencl_gen.device_function_text prog (Ir.func_exn prog "D.fwd")
  in
  check_bool "derived access unguarded on the device" true
    (Test_types.contains text "/* unguarded */")

(* The bytecode compiler consumes the proofs: proven accesses compile
   to aload.u/astore.u, unproven ones keep the checked opcodes — and
   the unchecked path computes the same value. *)
let test_symbolic_bytecode_unchecked () =
  let prog = compile sym_src in
  let facts = Symbolic.analyze_program prog in
  let unit_ =
    Bytecode.Compile.compile_program ~proven:(Symbolic.prover facts) prog
  in
  let disasm key =
    Bytecode.Compile.disassemble
      (Ir.String_map.find key unit_.Bytecode.Compile.u_funcs)
  in
  check_bool "sum uses aload.u" true (Test_types.contains (disasm "S.sum") "aload.u");
  check_bool "iota uses astore.u" true
    (Test_types.contains (disasm "S.iota") "astore.u");
  check_bool "off-by-one stays checked" false
    (Test_types.contains (disasm "S.offByOne") "aload.u");
  let xs = Lime_ir.Interp.Prim (Wire.Value.Int_array [| 3; 5; 7; 11 |]) in
  let run u = Bytecode.Vm.run (Bytecode.Vm.prepare u) "S.sum" [ xs ] in
  let checked = run (Bytecode.Compile.compile_program prog) in
  let unchecked = run unit_ in
  check_bool "unchecked value identical" true
    (checked.Bytecode.Vm.value = unchecked.Bytecode.Vm.value)

(* --- algebraic-property inference -------------------------------------- *)

let algebra_src =
  {|
class A {
  local static int add(int a, int b) { return a + b; }
  local static int mn(int a, int b) { return a < b ? a : b; }
  local static int mx(int a, int b) { return a > b ? a : b; }
  local static int bxor(int a, int b) { return a ^ b; }
  local static int sub(int a, int b) { return a - b; }
  local static float fadd(float a, float b) { return a + b; }
}
|}

let test_algebra_verdicts () =
  let prog = compile algebra_src in
  let is k = Algebra.is_assoc_comm prog k in
  check_bool "int + proven" true (is "A.add");
  check_bool "int min proven" true (is "A.mn");
  check_bool "int max proven" true (is "A.mx");
  check_bool "int xor proven" true (is "A.bxor");
  check_bool "int - refused" false (is "A.sub");
  (* float addition is associative over reals, not over f32 rounding *)
  check_bool "float + refused" false (is "A.fadd")

(* --- fusability lint ---------------------------------------------------- *)

let fusable_src =
  {|
class F {
  local static int inc(int x) { return x + 1; }
  local static int dbl(int x) { return x * 2; }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var g = xs.source(1) => ([ task inc ]) => ([ task dbl ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}

let stateful_pair_src =
  {|
class Acc2 {
  int t;
  local Acc2(int s) { t = s; }
  local int push(int x) { t += x; return t; }
}
class F2 {
  local static int inc(int x) { return x + 1; }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var a = new Acc2(0);
    var g = xs.source(1) => ([ task inc ]) => ([ task a.push ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}

let test_fusability_verdicts () =
  let prog = compile fusable_src in
  let effects = Effects.infer prog in
  (match Fusability.analyze prog effects with
  | [ p ] -> (
    match p.Fusability.fz_verdict with
    | Ok _ -> ()
    | Error why -> Alcotest.failf "pure adjacent pair should fuse: %s" why)
  | ps -> Alcotest.failf "expected 1 adjacent pair, got %d" (List.length ps));
  let prog = compile stateful_pair_src in
  let effects = Effects.infer prog in
  match Fusability.analyze prog effects with
  | [ p ] -> (
    match p.Fusability.fz_verdict with
    | Error why ->
      check_bool "names the aliased state" true
        (Test_types.contains why "state")
    | Ok why -> Alcotest.failf "stateful pair must not fuse (%s)" why)
  | ps -> Alcotest.failf "expected 1 adjacent pair, got %d" (List.length ps)

(* --- lattice laws (property-based) ------------------------------------- *)

let gen_interval =
  QCheck2.Gen.(
    let* a = int_range (-64) 64 in
    let* b = int_range (-64) 64 in
    let* k = int_range 0 4 in
    return
      (match k with
      | 0 -> Iv.top
      | 1 -> Iv.of_bounds 1 0 (* bottom *)
      | 2 -> Iv.of_int a
      | 3 -> Iv.nonneg
      | _ -> Iv.of_bounds (min a b) (max a b)))

let prop_interval_lattice_laws =
  QCheck2.Test.make ~name:"interval join/meet lattice laws" ~count:500
    QCheck2.Gen.(triple gen_interval gen_interval gen_interval)
    (fun (x, y, z) ->
      Iv.equal (Iv.join x y) (Iv.join y x)
      && Iv.equal (Iv.meet x y) (Iv.meet y x)
      && Iv.equal (Iv.join x (Iv.join y z)) (Iv.join (Iv.join x y) z)
      && Iv.equal (Iv.join x x) x
      && Iv.equal (Iv.meet x x) x
      (* widening covers the join *)
      &&
      let j = Iv.join x y in
      let w = Iv.widen x j in
      Iv.equal (Iv.join w j) w)

let prop_interval_widening_terminates =
  QCheck2.Test.make ~name:"interval widening chains stabilize" ~count:500
    QCheck2.Gen.(pair gen_interval (list_size (int_range 1 12) gen_interval))
    (fun (x0, ys) ->
      (* Iterate x <- widen x (join x y): the number of strict growth
         steps is bounded by the widening ladder, not the data. *)
      let x = ref x0 and changes = ref 0 in
      List.iter
        (fun y ->
          let next = Iv.widen !x (Iv.join !x y) in
          if not (Iv.equal next !x) then incr changes;
          x := next)
        ys;
      !changes <= 4)

(* Soundness of the symbolic bounds: whenever the relational domain
   proves every access of a generated loop, the concrete interpreter
   must not trap on it — for any array length. *)
let prop_symbolic_proofs_sound =
  let gen =
    QCheck2.Gen.(
      let* start = int_range 0 2 in
      let* slack = int_range 0 2 in
      let* step = int_range 1 3 in
      let* off = int_range 0 2 in
      let* incl = bool in
      let* n = int_range 0 24 in
      return (start, slack, step, off, incl, n))
  in
  QCheck2.Test.make ~name:"symbolic proofs sound vs concrete runs" ~count:150
    gen
    (fun (start, slack, step, off, incl, n) ->
      let src =
        Printf.sprintf
          {|
class P {
  local static int f(int[[]] xs) {
    int acc = 0;
    for (int i = %d; i %s xs.length - %d; i += %d) {
      acc = acc + xs[i + %d];
    }
    return acc;
  }
}
|}
          start
          (if incl then "<=" else "<")
          slack step off
      in
      let prog = compile src in
      let facts = Symbolic.analyze_fn prog (Ir.func_exn prog "P.f") in
      let all_proven =
        facts.Symbolic.sf_total > 0
        && facts.Symbolic.sf_proven = facts.Symbolic.sf_total
      in
      let xs = Lime_ir.Interp.Prim (Wire.Value.Int_array (Array.make n 1)) in
      let ran_ok =
        match Lime_ir.Interp.call prog "P.f" [ xs ] with
        | _ -> true
        | exception Lime_ir.Interp.Runtime_error _ -> false
      in
      (not all_proven) || ran_ok)

(* --- report rendering -------------------------------------------------- *)

let test_report_json_shape () =
  let prog = compile rate0_src in
  let report = Report.analyze prog in
  let json = Report.to_json report.Report.diags in
  List.iter
    (fun needle -> check_bool needle true (Test_types.contains json needle))
    [
      "\"diagnostics\":[";
      "\"LMA002\"";
      "\"LMA010\"";
      "\"errors\":2";
      "\"severity\":\"error\"";
    ]

let suite =
  ( "analysis",
    [
      Alcotest.test_case "fixpoint widening terminates" `Quick
        test_fixpoint_widening_terminates;
      Alcotest.test_case "fixpoint unreachable bottom" `Quick
        test_fixpoint_unreachable_stays_bottom;
      Alcotest.test_case "interval arithmetic" `Quick test_interval_arithmetic;
      Alcotest.test_case "range return intervals" `Quick
        test_range_return_intervals;
      Alcotest.test_case "range array bounds" `Quick test_range_array_bounds;
      Alcotest.test_case "effect inference" `Quick test_effect_inference;
      Alcotest.test_case "pure global promoted to gpu" `Quick
        test_pure_global_promoted_to_gpu;
      Alcotest.test_case "graph lint rate 0" `Quick
        test_graphlint_rate0_is_static_error;
      Alcotest.test_case "lint agrees with runtime" `Quick
        test_graphlint_agrees_with_runtime;
      Alcotest.test_case "purity differential" `Quick test_purity_differential;
      Alcotest.test_case "report json" `Quick test_report_json_shape;
      Alcotest.test_case "symbolic length loops proven" `Quick
        test_symbolic_length_loops_proven;
      Alcotest.test_case "symbolic opencl unguarded" `Quick
        test_symbolic_opencl_unguarded;
      Alcotest.test_case "symbolic derived indices proven" `Quick
        test_symbolic_derived_indices;
      Alcotest.test_case "symbolic bytecode unchecked" `Quick
        test_symbolic_bytecode_unchecked;
      Alcotest.test_case "algebra verdicts" `Quick test_algebra_verdicts;
      Alcotest.test_case "fusability verdicts" `Quick test_fusability_verdicts;
      QCheck_alcotest.to_alcotest prop_interval_lattice_laws;
      QCheck_alcotest.to_alcotest prop_interval_widening_terminates;
      QCheck_alcotest.to_alcotest prop_symbolic_proofs_sound;
    ] )
