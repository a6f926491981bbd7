module Ir = Lime_ir.Ir
(* Bytecode compiler + VM tests, including differential tests against
   the reference interpreter: the two execution engines must agree
   bit-for-bit on every program (the "functionally-equivalent
   configurations" property of paper section 1). *)

module I = Lime_ir.Interp
module V = Wire.Value

let check_int = Alcotest.(check int)

let compile src =
  Bytecode.Compile.compile_program
    (Lime_ir.Lower.lower
       (Lime_types.Typecheck.check (Lime_syntax.Parser.parse ~file:"t" src)))

let prim v = I.Prim v

let interp_value = Alcotest.testable I.pp (fun a b ->
    match a, b with
    | I.Prim x, I.Prim y -> V.equal x y
    | _ -> a == b)

(* Run the same entry point on the VM and the interpreter and require
   identical results. *)
let differential unit_ key args =
  let vm = (Bytecode.Vm.run (Bytecode.Vm.prepare unit_) key args).value in
  let ref_ = I.call unit_.Bytecode.Compile.u_program key args in
  Alcotest.check interp_value (key ^ " (vm = interp)") ref_ vm;
  vm

let fig1 = compile Test_syntax.figure1_source

let test_fig1_on_vm () =
  let input = prim (V.Bits (Bits.Bitvec.of_literal "101010101")) in
  (match differential fig1 "Bitflip.mapFlip" [ input ] with
  | I.Prim (V.Bits b) ->
    Alcotest.(check string) "mapFlip" "010101010" (Bits.Bitvec.to_literal b)
  | v -> Alcotest.failf "got %a" I.pp v);
  match differential fig1 "Bitflip.taskFlip" [ input ] with
  | I.Prim (V.Bits b) ->
    Alcotest.(check string) "taskFlip" "010101010" (Bits.Bitvec.to_literal b)
  | v -> Alcotest.failf "got %a" I.pp v

let test_sum_program () =
  let u = compile Test_ir.sum_src in
  let xs = prim (V.Int_array [| 5; 6; 7 |]) in
  (match differential u "Sum.sumOfSquares" [ xs ] with
  | I.Prim (V.Int 110) -> ()
  | v -> Alcotest.failf "sumOfSquares: %a" I.pp v);
  match differential u "Sum.loopSum" [ xs ] with
  | I.Prim (V.Int 18) -> ()
  | v -> Alcotest.failf "loopSum: %a" I.pp v

let test_control_flow () =
  let u =
    compile
      {|
class C {
  local static int collatzSteps(int n) {
    int steps = 0;
    while (n != 1) {
      if (n % 2 == 0) {
        n = n / 2;
      } else {
        n = 3 * n + 1;
      }
      steps++;
    }
    return steps;
  }
  local static int gcd(int a, int b) {
    while (b != 0) {
      int t = b;
      b = a % b;
      a = t;
    }
    return a;
  }
}
|}
  in
  (match differential u "C.collatzSteps" [ prim (V.Int 27) ] with
  | I.Prim (V.Int 111) -> ()
  | v -> Alcotest.failf "collatz: %a" I.pp v);
  match differential u "C.gcd" [ prim (V.Int 1071); prim (V.Int 462) ] with
  | I.Prim (V.Int 21) -> ()
  | v -> Alcotest.failf "gcd: %a" I.pp v

let test_stateful_pipeline_on_vm () =
  let u =
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
  in
  match differential u "Main.prefixSums" [ prim (V.Int_array [| 2; 4; 8 |]) ] with
  | I.Prim (V.Int_array [| 2; 6; 14 |]) -> ()
  | v -> Alcotest.failf "prefixSums: %a" I.pp v

let test_instruction_counting () =
  let u =
    compile
      {|
class C {
  local static int sumTo(int n) {
    int acc = 0;
    for (int i = 1; i <= n; i++) {
      acc += i;
    }
    return acc;
  }
}
|}
  in
  let p = Bytecode.Vm.prepare u in
  let r10 = Bytecode.Vm.run p "C.sumTo" [ prim (V.Int 10) ] in
  let r100 = Bytecode.Vm.run p "C.sumTo" [ prim (V.Int 100) ] in
  (match r100.value with
  | I.Prim (V.Int 5050) -> ()
  | v -> Alcotest.failf "sumTo(100): %a" I.pp v);
  Alcotest.(check bool)
    "instruction count scales with work" true
    (r100.executed > 5 * r10.executed);
  check_int "deterministic count" r10.executed
    (Bytecode.Vm.run p "C.sumTo" [ prim (V.Int 10) ]).executed

let test_disassembler () =
  let code =
    Ir.String_map.find "Bitflip.flip" fig1.Bytecode.Compile.u_funcs
  in
  let text = Bytecode.Compile.disassemble code in
  Alcotest.(check bool) "mentions call" true
    (Test_types.contains text "call bit");
  Alcotest.(check bool) "one-instruction body has load" true
    (Test_types.contains text "load 0")

(* Every trap keeps its exception constructor and its text, and the
   instruction counts below are the ones the VM has always charged. *)
let traps_src =
  {|
class T {
  local static int div(int a, int b) { return a / b; }
  local static int get(int[[]] xs, int i) { return xs[i]; }
  local static int put(int n, int i) { int[] xs = new int[n]; xs[i] = 7; return xs[0]; }
  local static int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
  local static int inc(int x) { return x + 1; }
  local static int add(int a, int b) { return a + b; }
  static int[[]] addAll(int[[]] xs, int[[]] ys) { return T @ add(xs, ys); }
  static int sum(int[[]] xs) { return T @@ add(xs); }
  static int sumInc(int[[]] xs) { var ys = T @ inc(xs); return T @@ add(ys); }
}
|}

let ints a = prim (V.Int_array a)
let int i = prim (V.Int i)

let trap f =
  match f () with
  | (_ : Bytecode.Vm.result) -> "no trap"
  | exception Bytecode.Vm.Vm_error m -> "Vm_error: " ^ m
  | exception I.Runtime_error m -> "Runtime_error: " ^ m

let test_vm_errors () =
  let p = Bytecode.Vm.prepare (compile traps_src) in
  List.iter
    (fun (what, expected, key, args) ->
      Alcotest.(check string) what expected
        (trap (fun () -> Bytecode.Vm.run p key args)))
    [
      "division by zero", "Runtime_error: division by zero", "T.div",
      [ int 1; int 0 ];
      "load out of bounds", "Runtime_error: array index 3 out of bounds (length 3)",
      "T.get", [ ints [| 1; 2; 3 |]; int 3 ];
      "store out of bounds",
      "Runtime_error: array index 5 out of bounds (length 2)", "T.put",
      [ int 2; int 5 ];
      "missing function", "Vm_error: no function named T.nothere", "T.nothere", [];
      "argument count", "Vm_error: T.div expects 2 argument(s), got 1", "T.div",
      [ int 1 ];
      "intrinsic on an int", "Vm_error: Math.sqrt expects one float argument",
      "Math.sqrt", [ int 4 ];
      "empty reduce", "Vm_error: reduce of an empty array", "T.sum", [ ints [||] ];
      "map lengths", "Vm_error: mapped arrays have different lengths", "T.addAll",
      [ ints [| 1; 2 |]; ints [| 1; 2; 3 |] ];
    ]

(* Hand-assembled code reaches the traps the compiler never emits. *)
let test_vm_hand_traps () =
  let module Insn = Bytecode.Insn in
  (* figure 1's taskFlip supplies a task-graph template *)
  let base = compile Test_syntax.figure1_source in
  let uid, _ = Ir.String_map.choose base.u_program.Ir.templates in
  let i32 n = Insn.CONST (Ir.C_i32 n) in
  let hand =
    [
      "H.under", [ i32 1; Insn.BINOP Ir.Add_i; Insn.RET ],
      "Vm_error: operand stack underflow in H.under at 1";
      "H.fall", [ i32 1; Insn.POP ],
      "Vm_error: H.fall fell off the end without returning a value";
      "H.types", [ Insn.CONST (Ir.C_bool true); i32 1; Insn.BINOP Ir.Add_i; Insn.RET ],
      "Runtime_error: bad binary operands boolean, int";
      "H.cond", [ i32 1; Insn.JMPF 0; Insn.RETVOID ],
      "Vm_error: expected a boolean on the operand stack";
      "H.callunder", [ i32 1; Insn.CALL ("H.fall", 2); Insn.RET ],
      "Vm_error: operand stack underflow calling H.fall";
      "H.arity", [ i32 1; Insn.CALL ("H.fall", 1); Insn.RET ],
      "Vm_error: H.fall expects 0 argument(s), got 1";
      "H.stale",
      [ Insn.MKGRAPH (uid, 0); Insn.DUP; Insn.RUNGRAPH true; Insn.RUNGRAPH true; Insn.RETVOID ],
      "Vm_error: stale task-graph handle";
      "H.nongraph", [ i32 1; Insn.RUNGRAPH true; Insn.RETVOID ],
      "Vm_error: rungraph on a non-graph";
    ]
  in
  let code key insns =
    {
      Bytecode.Compile.c_key = key;
      c_insns = Array.of_list insns;
      c_slots = 0;
      c_params = 0;
      c_ret = Ir.I32;
    }
  in
  let funcs =
    List.fold_left
      (fun m (key, insns, _) -> Ir.String_map.add key (code key insns) m)
      base.u_funcs hand
  in
  let p = Bytecode.Vm.prepare { base with Bytecode.Compile.u_funcs = funcs } in
  (* every graph counts as run, so a second run of one handle is stale *)
  let hooks =
    { Bytecode.Vm.no_hooks with on_run_graph = Some (fun _ _ ~blocking:_ -> true) }
  in
  List.iter
    (fun (key, _, expected) ->
      Alcotest.(check string) key expected
        (trap (fun () -> Bytecode.Vm.run ~hooks p key [])))
    hand

let test_vm_recursion_and_reuse () =
  let p = Bytecode.Vm.prepare (compile traps_src) in
  let r = Bytecode.Vm.run p "T.fact" [ int 10 ] in
  Alcotest.check interp_value "fact(10)" (int 3628800) r.value;
  check_int "fact(10) instructions" 179 r.executed;
  (* a trap leaves nothing behind for the next run *)
  ignore (trap (fun () -> Bytecode.Vm.run p "T.div" [ int 1; int 0 ]));
  let r = Bytecode.Vm.run p "T.div" [ int 7; int 2 ] in
  Alcotest.check interp_value "div after a trap" (int 3) r.value;
  check_int "div instructions" 6 r.executed

(* A map hook that re-enters the VM once per element, as the runtime's
   lowered map does: every run keeps its own count. *)
let test_vm_reentrant_hook () =
  let p = Bytecode.Vm.prepare (compile traps_src) in
  let inner = ref [] in
  let on_map (desc : Bytecode.Insn.map_desc) args =
    match args with
    | [ I.Prim xs ] ->
      let n = I.array_length xs in
      let out = I.new_array desc.bm_elem_ty n in
      for i = 0 to n - 1 do
        let r = Bytecode.Vm.run p desc.bm_fn [ I.Prim (I.array_get xs i) ] in
        inner := r.executed :: !inner;
        I.array_set out i (I.prim_exn r.value)
      done;
      Some (I.Prim (I.freeze out))
    | _ -> None
  in
  let xs = ints [| 1; 2; 3; 4 |] in
  let hooked =
    Bytecode.Vm.run ~hooks:{ Bytecode.Vm.no_hooks with on_map } p "T.sumInc" [ xs ]
  in
  Alcotest.check interp_value "hooked value" (int 14) hooked.value;
  check_int "outer run" 28 hooked.executed;
  Alcotest.(check (list int)) "inner runs" [ 6; 6; 6; 6 ] !inner;
  check_int "unhooked run" 52 (Bytecode.Vm.run p "T.sumInc" [ xs ]).executed

(* Every operator the VM runs unboxed, one Lime function each, on the
   VM and under the interpreter over edge operands: 32-bit wrapping,
   [min_int / -1], negative remainders, shift counts of 32 and above
   and negative ones, signed zeros, infinities, NaN (Lime's [==] holds
   for it) and zero divisors. Values must agree under
   [Wire.Value.equal]; traps by constructor and text. *)
let typed_ops =
  (* name, operand type, result type, arity, body *)
  let bin ty ret ops =
    List.map (fun (name, op) -> name, ty, ret, 2, "a " ^ op ^ " b") ops
  in
  bin "int" "int"
    [ "iadd", "+"; "isub", "-"; "imul", "*"; "idiv", "/"; "irem", "%"; "ishl", "<<";
      "ishr", ">>"; "iand", "&"; "ior", "|"; "ixor", "^" ]
  @ bin "int" "boolean"
      [ "ilt", "<"; "ileq", "<="; "igt", ">"; "igeq", ">="; "ieq", "=="; "ineq", "!=" ]
  @ bin "boolean" "boolean"
      [ "band", "&"; "bor", "|"; "bxor", "^"; "bandand", "&&"; "boror", "||";
        "beq", "=="; "bneq", "!=" ]
  @ bin "float" "float"
      [ "fadd", "+"; "fsub", "-"; "fmul", "*"; "fdiv", "/"; "frem", "%" ]
  @ bin "float" "boolean"
      [ "flt", "<"; "fleq", "<="; "fgt", ">"; "fgeq", ">="; "feq", "=="; "fneq", "!=" ]
  @ [
      "ineg", "int", "int", 1, "-a"; "inot", "int", "int", 1, "~a";
      "bnot", "boolean", "boolean", 1, "!a"; "fneg", "float", "float", 1, "-a";
      "widen", "int", "float", 1, "a";
    ]

let typed_ops_src =
  let fn (name, ty, ret, arity, body) =
    let params = if arity = 1 then ty ^ " a" else Printf.sprintf "%s a, %s b" ty ty in
    Printf.sprintf "  local static %s %s(%s) { return %s; }\n" ret name params body
  in
  "class Op {\n" ^ String.concat "" (List.map fn typed_ops) ^ "}\n"

let edge_operands = function
  | "int" ->
    List.map (fun i -> V.Int i)
      [ 0; 1; -1; 2; 7; -7; 31; 32; 33; 64; -33; 2147483647; -2147483648 ]
  | "boolean" -> [ V.Bool false; V.Bool true ]
  | _ ->
    List.map (fun f -> V.Float f)
      [ 0.0; -0.0; 1.0; -2.5; 3.0; 1.4e-45; 3.4028234663852886e38; infinity;
        neg_infinity; nan ]

let test_typed_operators () =
  let u = compile typed_ops_src in
  let p = Bytecode.Vm.prepare u in
  let outcome f =
    match f () with
    | I.Prim v -> Ok v
    | v -> Error (Format.asprintf "non-value %a" I.pp v)
    | exception Bytecode.Vm.Vm_error m -> Error ("Vm_error: " ^ m)
    | exception I.Runtime_error m -> Error ("Runtime_error: " ^ m)
  in
  let show = function Ok v -> V.to_string v | Error m -> m in
  List.iter
    (fun (name, ty, _, arity, _) ->
      let xs = edge_operands ty in
      let argss =
        if arity = 1 then List.map (fun x -> [ x ]) xs
        else List.concat_map (fun x -> List.map (fun y -> [ x; y ]) xs) xs
      in
      List.iter
        (fun args ->
          let key = "Op." ^ name and args = List.map prim args in
          let vm = outcome (fun () -> (Bytecode.Vm.run p key args).value) in
          let ref_ = outcome (fun () -> I.call u.Bytecode.Compile.u_program key args) in
          let agree =
            match vm, ref_ with
            | Ok a, Ok b -> V.equal a b
            | Error a, Error b -> String.equal a b
            | _ -> false
          in
          if not agree then
            Alcotest.failf "%s(%s): vm %s, interp %s" name
              (String.concat ", " (List.map (Format.asprintf "%a" I.pp) args))
              (show vm) (show ref_))
        argss)
    typed_ops

(* A reused frame keeps nothing alive: once a run returns and its
   argument is dropped, the argument can be collected. *)
let test_vm_frame_keeps_nothing () =
  let p = Bytecode.Vm.prepare (compile traps_src) in
  let weak = Weak.create 1 in
  let run () =
    let xs = Array.init 100_000 (fun i -> i) in
    Weak.set weak 0 (Some xs);
    let r = Bytecode.Vm.run p "T.get" [ ints xs; int 5 ] in
    Alcotest.check interp_value "get" (int 5) r.value
  in
  run ();
  Gc.full_major ();
  Alcotest.(check bool) "argument collected" false (Weak.check weak 0);
  (* the program, and so its spare frames, stayed alive throughout *)
  ignore (Sys.opaque_identity p)

(* Property: for random inputs, VM and interpreter agree on a small
   arithmetic-heavy kernel. *)
let mix_src =
  {|
class Mix {
  local static int mix(int a, int b) {
    int x = a ^ (b << 3);
    x = x + (a * 7) - (b / (1 + (a & 15)));
    if (x > 1000) {
      x = x % 1001;
    } else {
      x = -x;
    }
    return x ^ (x >> 2);
  }
}
|}

let prop_vm_matches_interp =
  let u = compile mix_src in
  let p = Bytecode.Vm.prepare u in
  QCheck2.Test.make ~name:"vm: agrees with interpreter on Mix.mix" ~count:300
    QCheck2.Gen.(pair (int_range (-10000) 10000) (int_range (-10000) 10000))
    (fun (a, b) ->
      let args = [ prim (V.Int a); prim (V.Int b) ] in
      let vm = (Bytecode.Vm.run p "Mix.mix" args).value in
      let ref_ = I.call u.Bytecode.Compile.u_program "Mix.mix" args in
      match vm, ref_ with
      | I.Prim x, I.Prim y -> V.equal x y
      | _ -> false)

let suite =
  ( "bytecode",
    [
      Alcotest.test_case "figure 1 on the VM" `Quick test_fig1_on_vm;
      Alcotest.test_case "map/reduce program" `Quick test_sum_program;
      Alcotest.test_case "control flow" `Quick test_control_flow;
      Alcotest.test_case "stateful pipeline" `Quick test_stateful_pipeline_on_vm;
      Alcotest.test_case "instruction counting" `Quick test_instruction_counting;
      Alcotest.test_case "disassembler" `Quick test_disassembler;
      Alcotest.test_case "vm traps" `Quick test_vm_errors;
      Alcotest.test_case "vm traps in hand-assembled code" `Quick test_vm_hand_traps;
      Alcotest.test_case "vm recursion and reuse" `Quick test_vm_recursion_and_reuse;
      Alcotest.test_case "vm re-entrant hook" `Quick test_vm_reentrant_hook;
      QCheck_alcotest.to_alcotest prop_vm_matches_interp;
      Alcotest.test_case "vm typed operators match the interpreter" `Quick
        test_typed_operators;
      Alcotest.test_case "vm reused frame keeps nothing alive" `Quick
        test_vm_frame_keeps_nothing;
    ] )
