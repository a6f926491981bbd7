module Ir = Lime_ir.Ir
(* Optimizer tests: constant folding, copy propagation, branch folding
   and DCE must shrink code without ever changing results. *)

module I = Lime_ir.Interp
module V = Wire.Value
open Lime_ir

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile src =
  Lower.lower (Lime_types.Typecheck.check (Lime_syntax.Parser.parse ~file:"t" src))

let fn prog key = Ir.func_exn prog key

let test_constant_folding () =
  let p =
    compile
      {|
class C {
  local static int f(int x) {
    int a = 2 + 3;
    int b = a * 4;
    return x + b;
  }
}
|}
  in
  let before = fn p "C.f" in
  let after = Opt.optimize_function before in
  check_bool "fewer instructions" true (Opt.stats after < Opt.stats before);
  (* semantics preserved *)
  let p' = Opt.optimize p in
  (match I.call p' "C.f" [ I.Prim (V.Int 1) ] with
  | I.Prim (V.Int 21) -> ()
  | v -> Alcotest.failf "got %a" I.pp v);
  (* the folded body should reduce to a single add plus return *)
  check_bool "folded to few instructions" true (Opt.stats after <= 4)

let test_branch_folding () =
  let p =
    compile
      {|
class C {
  local static int f(int x) {
    if (1 < 2) {
      return x + 1;
    }
    return x - 1;
  }
}
|}
  in
  let after = Opt.optimize_function (fn p "C.f") in
  (* the branch is static: no I_if remains *)
  let rec has_if = function
    | [] -> false
    | Ir.I_if _ :: _ -> true
    | Ir.I_while (c, _, b) :: rest -> has_if c || has_if b || has_if rest
    | _ :: rest -> has_if rest
  in
  check_bool "if folded away" false (has_if after.fn_body);
  match I.call (Opt.optimize p) "C.f" [ I.Prim (V.Int 5) ] with
  | I.Prim (V.Int 6) -> ()
  | v -> Alcotest.failf "got %a" I.pp v

let test_dead_code_removed () =
  let p =
    compile
      {|
class C {
  local static int f(int x) {
    int unused = x * 17 + 4;
    int unused2 = unused + 1;
    return x;
  }
}
|}
  in
  let after = Opt.optimize_function (fn p "C.f") in
  check_int "only the return remains" 1 (Opt.stats after)

let test_division_not_folded_away () =
  (* x/0 traps; DCE must not delete it, folding must not evaluate it. *)
  let p =
    compile
      {|
class C {
  local static int f(int x) {
    int trap = x / 0;
    return 7;
  }
}
|}
  in
  let p' = Opt.optimize p in
  match I.call p' "C.f" [ I.Prim (V.Int 1) ] with
  | exception I.Runtime_error _ -> ()
  | v -> Alcotest.failf "expected a trap, got %a" I.pp v

let test_while_false_dropped () =
  let p =
    compile
      {|
class C {
  local static int f(int x) {
    while (false) {
      x = x + 1;
    }
    return x;
  }
}
|}
  in
  let after = Opt.optimize_function (fn p "C.f") in
  let rec has_while = function
    | [] -> false
    | Ir.I_while _ :: _ -> true
    | Ir.I_if (_, a, b) :: rest -> has_while a || has_while b || has_while rest
    | _ :: rest -> has_while rest
  in
  check_bool "while(false) removed" false (has_while after.fn_body)

let test_loops_still_work () =
  let p =
    Opt.optimize
      (compile
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
|})
  in
  match I.call p "C.sumTo" [ I.Prim (V.Int 100) ] with
  | I.Prim (V.Int 5050) -> ()
  | v -> Alcotest.failf "got %a" I.pp v

let test_instruction_count_drops_on_vm () =
  let src =
    {|
class C {
  local static int f(int x) {
    int a = 10 * 10;
    int b = a + 5;
    int dead = b * 3;
    return x + b;
  }
}
|}
  in
  let raw = Bytecode.Vm.prepare (Bytecode.Compile.compile_program (compile src)) in
  let opt =
    Bytecode.Vm.prepare (Bytecode.Compile.compile_program (Opt.optimize (compile src)))
  in
  let run u = (Bytecode.Vm.run u "C.f" [ I.Prim (V.Int 1) ]).Bytecode.Vm.executed in
  check_bool "optimized executes fewer instructions" true (run opt < run raw);
  check_bool "same result" true
    ((Bytecode.Vm.run raw "C.f" [ I.Prim (V.Int 1) ]).value
    = (Bytecode.Vm.run opt "C.f" [ I.Prim (V.Int 1) ]).value)

(* Property: optimization never changes the result of the Mix kernel. *)
let prop_opt_preserves_semantics =
  let p = compile Test_bytecode.mix_src in
  let p' = Opt.optimize p in
  QCheck2.Test.make ~name:"opt: semantics preserved on Mix.mix" ~count:300
    QCheck2.Gen.(pair (int_range (-10000) 10000) (int_range (-10000) 10000))
    (fun (a, b) ->
      let args = [ I.Prim (V.Int a); I.Prim (V.Int b) ] in
      match I.call p "Mix.mix" args, I.call p' "Mix.mix" args with
      | I.Prim x, I.Prim y -> V.equal x y
      | _ -> false)

let test_whole_program_figure1 () =
  let p = Opt.optimize (compile Test_syntax.figure1_source) in
  match
    I.call p "Bitflip.taskFlip" [ I.Prim (V.Bits (Bits.Bitvec.of_literal "1010")) ]
  with
  | I.Prim (V.Bits b) ->
    Alcotest.(check string) "still flips" "0101" (Bits.Bitvec.to_literal b)
  | v -> Alcotest.failf "got %a" I.pp v

let suite =
  ( "optimizer",
    [
      Alcotest.test_case "constant folding" `Quick test_constant_folding;
      Alcotest.test_case "branch folding" `Quick test_branch_folding;
      Alcotest.test_case "dead code removed" `Quick test_dead_code_removed;
      Alcotest.test_case "trapping code kept" `Quick test_division_not_folded_away;
      Alcotest.test_case "while(false) dropped" `Quick test_while_false_dropped;
      Alcotest.test_case "loops still work" `Quick test_loops_still_work;
      Alcotest.test_case "VM instruction count drops" `Quick
        test_instruction_count_drops_on_vm;
      Alcotest.test_case "figure 1 after optimization" `Quick
        test_whole_program_figure1;
      QCheck_alcotest.to_alcotest prop_opt_preserves_semantics;
    ] )
