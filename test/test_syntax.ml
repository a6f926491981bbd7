(* Lexer and parser tests, centred on the paper's Figure 1. *)

open Lime_syntax

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The Bitflip program from Figure 1, verbatim modulo the paper's
   truncated for-loop increment (line 16 of the figure elides "++"). *)
let figure1_source =
  {|
public value enum bit {
  zero, one;
  public bit ~ this {
    return this == zero ? one : zero;
  }
}

public class Bitflip {
  local static bit flip(bit b) {
    return ~b;
  }
  local static bit[[]] mapFlip(bit[[]] input) {
    var flipped = Bitflip @ flip(input);
    return flipped;
  }
  static bit[[]] taskFlip(bit[[]] input) {
    bit[] result = new bit[input.length];
    var flipit = input.source(1)
      => ([ task flip ])
      => result.<bit>sink();
    flipit.finish();
    return new bit[[]](result);
  }
}
|}

let tokens_of s = List.map (fun t -> t.Lexer.token) (Lexer.tokenize ~file:"t" s)

let test_lex_bit_literals () =
  (match tokens_of "100b" with
  | [ Token.BIT_LIT "100"; Token.EOF ] -> ()
  | _ -> Alcotest.fail "100b should lex as a bit literal");
  match tokens_of "123" with
  | [ Token.INT_LIT 123; Token.EOF ] -> ()
  | _ -> Alcotest.fail "123 should lex as an int"

let test_lex_bad_bit_literal () =
  match tokens_of "123b" with
  | exception Support.Diag.Compile_error _ -> ()
  | _ -> Alcotest.fail "123b must be a lexical error"

let test_lex_operators () =
  let expected =
    [
      Token.AT; Token.ATAT; Token.CONNECT; Token.EQ; Token.ASSIGN; Token.SHL;
      Token.SHR; Token.LEQ; Token.GEQ; Token.NEQ; Token.AMPAMP; Token.BARBAR;
      Token.LVALUEBRACKET; Token.RVALUEBRACKET; Token.LBRACKET; Token.RBRACKET;
      Token.EOF;
    ]
  in
  Alcotest.(check int)
    "operator token count" (List.length expected)
    (List.length (tokens_of "@ @@ => == = << >> <= >= != && || [[ ]] [ ]"));
  List.iteri
    (fun i t ->
      check_bool (Printf.sprintf "token %d" i) true
        (t = List.nth (tokens_of "@ @@ => == = << >> <= >= != && || [[ ]] [ ]") i))
    expected

let test_lex_comments_and_floats () =
  (match tokens_of "// line\n1.5 /* block */ 2e3 7f" with
  | [ Token.FLOAT_LIT a; Token.FLOAT_LIT b; Token.FLOAT_LIT c; Token.EOF ] ->
    Alcotest.(check (float 0.0)) "1.5" 1.5 a;
    Alcotest.(check (float 0.0)) "2e3" 2000.0 b;
    Alcotest.(check (float 0.0)) "7f" 7.0 c
  | _ -> Alcotest.fail "floats and comments");
  match tokens_of "/* unterminated" with
  | exception Support.Diag.Compile_error _ -> ()
  | _ -> Alcotest.fail "unterminated comment must error"

let test_lex_locations () =
  match Lexer.tokenize ~file:"f" "ab\n  cd" with
  | [ a; b; _eof ] ->
    check_int "a line" 1 a.Lexer.loc.line;
    check_int "a col" 1 a.Lexer.loc.col;
    check_int "b line" 2 b.Lexer.loc.line;
    check_int "b col" 3 b.Lexer.loc.col
  | _ -> Alcotest.fail "expected two tokens"

let parse_fig1 () = Parser.parse ~file:"Bitflip.lime" figure1_source

let test_parse_figure1_shape () =
  let prog = parse_fig1 () in
  match prog.Ast.decls with
  | [ Ast.D_enum e; Ast.D_class k ] ->
    Alcotest.(check string) "enum name" "bit" e.e_name;
    Alcotest.(check (list string)) "cases" [ "zero"; "one" ] e.e_cases;
    check_int "enum methods" 1 (List.length e.e_methods);
    Alcotest.(check string) "operator method" "~"
      (List.hd e.e_methods).m_name;
    Alcotest.(check string) "class name" "Bitflip" k.k_name;
    check_int "class methods" 3 (List.length k.k_methods)
  | _ -> Alcotest.fail "expected one enum and one class"

let find_method prog name =
  match prog.Ast.decls with
  | [ _; Ast.D_class k ] -> List.find (fun m -> m.Ast.m_name = name) k.k_methods
  | _ -> Alcotest.fail "unexpected program shape"

let test_parse_figure1_modifiers () =
  let prog = parse_fig1 () in
  let flip = find_method prog "flip" in
  check_bool "flip static" true flip.m_static;
  check_bool "flip local" true (flip.m_locality = Ast.L_local);
  let task_flip = find_method prog "taskFlip" in
  check_bool "taskFlip default locality" true
    (task_flip.m_locality = Ast.L_default)

let test_parse_figure1_map () =
  let prog = parse_fig1 () in
  let map_flip = find_method prog "mapFlip" in
  match map_flip.m_body with
  | [ { sdesc = Ast.Var_decl (None, "flipped", Some e); _ }; _ ] -> (
    match e.desc with
    | Ast.Map (Some "Bitflip", "flip", [ _ ]) -> ()
    | _ -> Alcotest.fail "expected a map expression")
  | _ -> Alcotest.fail "unexpected mapFlip body"

let test_parse_figure1_taskgraph () =
  let prog = parse_fig1 () in
  let task_flip = find_method prog "taskFlip" in
  match task_flip.m_body with
  | [ _decl; { sdesc = Ast.Var_decl (None, "flipit", Some g); _ }; _; _ ] -> (
    (* input.source(1) => ([task flip]) => result.<bit>sink() *)
    match g.desc with
    | Ast.Connect ({ desc = Ast.Connect (src, mid); _ }, snk) ->
      (match src.Ast.desc with
      | Ast.Source (_, { desc = Ast.Int_lit 1; _ }) -> ()
      | _ -> Alcotest.fail "expected source(1)");
      (match mid.Ast.desc with
      | Ast.Relocate { desc = Ast.Task (None, "flip"); _ } -> ()
      | _ -> Alcotest.fail "expected relocated task flip");
      (match snk.Ast.desc with
      | Ast.Sink (Ast.T_bit, _) -> ()
      | _ -> Alcotest.fail "expected .<bit>sink()")
    | _ -> Alcotest.fail "expected a two-connect chain")
  | _ -> Alcotest.fail "unexpected taskFlip body"

let test_parse_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  (match (Parser.parse_expr_string "1 + 2 * 3").desc with
  | Ast.Binop (Ast.Add, _, { desc = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "mul binds tighter than add");
  (* a < b && c parses as (a < b) && c *)
  (match (Parser.parse_expr_string "a < b && c").desc with
  | Ast.Binop (Ast.And, { desc = Ast.Binop (Ast.Lt, _, _); _ }, _) -> ()
  | _ -> Alcotest.fail "comparison binds tighter than &&");
  (* ternary *)
  match (Parser.parse_expr_string "a == b ? c : d").desc with
  | Ast.Cond ({ desc = Ast.Binop (Ast.Eq, _, _); _ }, _, _) -> ()
  | _ -> Alcotest.fail "ternary over equality"

let test_parse_reduce () =
  match (Parser.parse_expr_string "Acc @@ add(xs)").desc with
  | Ast.Reduce (Some "Acc", "add", [ _ ]) -> ()
  | _ -> Alcotest.fail "reduce syntax"

let test_parse_new_forms () =
  (match (Parser.parse_expr_string "new bit[n]").desc with
  | Ast.New_array (Ast.T_bit, _) -> ()
  | _ -> Alcotest.fail "new array");
  match (Parser.parse_expr_string "new bit[[]](result)").desc with
  | Ast.New_value_array (Ast.T_bit, _) -> ()
  | _ -> Alcotest.fail "new value array"

let test_parse_qualified_enum () =
  match (Parser.parse_expr_string "bit.zero").desc with
  | Ast.Qualified ("bit", "zero") -> ()
  | _ -> Alcotest.fail "bit.zero"

let test_parse_for_loop () =
  let src =
    {|
class Sum {
  local static int sum(int[[]] values) {
    int acc = 0;
    for (int i = 0; i < values.length; i++) {
      acc += values[i];
    }
    return acc;
  }
}
|}
  in
  let prog = Parser.parse ~file:"Sum.lime" src in
  match prog.Ast.decls with
  | [ Ast.D_class k ] -> (
    match (List.hd k.k_methods).m_body with
    | [ _; { sdesc = Ast.For (Some _, Some _, Some _, body); _ }; _ ] ->
      check_int "loop body" 1 (List.length body)
    | _ -> Alcotest.fail "expected for loop")
  | _ -> Alcotest.fail "expected class"

let test_parse_fields_and_ctor () =
  let src =
    {|
class Avg {
  int window = 4;
  float total;
  local Avg(int w) { window = w; }
  local float push(float x) { total += x; return total / window; }
}
|}
  in
  let prog = Parser.parse ~file:"Avg.lime" src in
  match prog.Ast.decls with
  | [ Ast.D_class k ] ->
    check_int "fields" 2 (List.length k.k_fields);
    check_int "ctors" 1 (List.length k.k_ctors);
    check_int "methods" 1 (List.length k.k_methods)
  | _ -> Alcotest.fail "expected class"

let test_parse_errors () =
  let bad = [ "class X {"; "class X { int f( }"; "class 3 {}" ] in
  List.iter
    (fun src ->
      match Parser.parse ~file:"bad" src with
      | exception Support.Diag.Compile_error _ -> ()
      | _ -> Alcotest.fail ("should not parse: " ^ src))
    bad

(* --- int literal range ---------------------------------------------------- *)

(* A located compile error at [line]:[col] from the lexer or parser:
   out-of-range literals must never escape as an OCaml exception nor
   wrap silently. *)
let rejects_literal ~line ~col src =
  match Liquid_metal.Compiler.compile ~file:"Lit.lime" src with
  | exception Support.Diag.Compile_error d ->
    check_bool "message names the range" true
      (String.starts_with ~prefix:"integer literal" d.message);
    check_int "line" line d.loc.line;
    check_int "col" col d.loc.col
  | _ -> Alcotest.fail ("should be rejected: " ^ src)

let returning lit =
  Printf.sprintf "class C {\n  static int f() { return %s; }\n}" lit

(* Wider than OCaml's int: a located error, not an OCaml exception. *)
let test_literal_wider_than_host_int () =
  rejects_literal ~line:2 ~col:27 (returning "99999999999999999999")

(* Fits OCaml's int but not Java's: an error, not a wrapped value. *)
let test_literal_wider_than_int () =
  rejects_literal ~line:2 ~col:27 (returning "4294967297")

(* An array length beyond int fails at compile time, not at run time. *)
let test_array_length_literal () =
  rejects_literal ~line:2 ~col:38
    "class C {\n  static int f() { int[] a = new int[4611686018427387903]; \
     return a.length; }\n}"

(* 2147483648 is legal only as the operand of unary minus, as in Java. *)
let test_int_minimum_literal () =
  rejects_literal ~line:2 ~col:27 (returning "2147483648");
  rejects_literal ~line:2 ~col:31 (returning "1 - 2147483648");
  rejects_literal ~line:2 ~col:29 (returning "-(2147483648)");
  let run lit =
    Liquid_metal.Lm.run (Liquid_metal.Lm.load (returning lit)) "C.f" []
  in
  List.iter
    (fun (lit, expected) ->
      match run lit with
      | Lime_ir.Interp.Prim (Wire.Value.Int i) -> check_int lit expected i
      | v -> Alcotest.failf "%s gave %s" lit (Liquid_metal.Lm.show v))
    [
      "-2147483648", -2147483648;
      "2147483647", 2147483647;
      "- -2147483648", -2147483648;
      "-2147483648 + 1", -2147483647;
    ];
  (* the pretty-printer keeps the minimum re-parseable *)
  let e = Parser.parse ~file:"t" (returning "- -2147483648") in
  let text = Pretty.program_to_string e in
  check_bool "reparses" true
    (Pretty.program_to_string (Parser.parse ~file:"t" text) = text)

let suite =
  ( "lime-syntax",
    [
      Alcotest.test_case "bit literals lex" `Quick test_lex_bit_literals;
      Alcotest.test_case "bad bit literal" `Quick test_lex_bad_bit_literal;
      Alcotest.test_case "operators lex" `Quick test_lex_operators;
      Alcotest.test_case "comments and floats" `Quick test_lex_comments_and_floats;
      Alcotest.test_case "source locations" `Quick test_lex_locations;
      Alcotest.test_case "figure 1 parses" `Quick test_parse_figure1_shape;
      Alcotest.test_case "figure 1 modifiers" `Quick test_parse_figure1_modifiers;
      Alcotest.test_case "figure 1 map operator" `Quick test_parse_figure1_map;
      Alcotest.test_case "figure 1 task graph" `Quick test_parse_figure1_taskgraph;
      Alcotest.test_case "precedence" `Quick test_parse_precedence;
      Alcotest.test_case "reduce operator" `Quick test_parse_reduce;
      Alcotest.test_case "new forms" `Quick test_parse_new_forms;
      Alcotest.test_case "qualified enum case" `Quick test_parse_qualified_enum;
      Alcotest.test_case "for loop" `Quick test_parse_for_loop;
      Alcotest.test_case "fields and constructor" `Quick test_parse_fields_and_ctor;
      Alcotest.test_case "int literal wider than the host int" `Quick
        test_literal_wider_than_host_int;
      Alcotest.test_case "int literal wider than int" `Quick
        test_literal_wider_than_int;
      Alcotest.test_case "array length literal wider than int" `Quick
        test_array_length_literal;
      Alcotest.test_case "int minimum literal" `Quick test_int_minimum_literal;
      Alcotest.test_case "syntax errors" `Quick test_parse_errors;
    ] )
