(** Pretty-printer for the Lime AST.

    Produces valid Lime source: for every program [p],
    [Parser.parse (print p)] succeeds and yields a structurally equal
    AST (locations aside) — a property the test suite checks. Used by
    tooling and error reporting. *)

val expr_to_string : Ast.expr -> string
val program_to_string : Ast.program -> string

val strip_locations : Ast.program -> Ast.program
(** Normalize every location to [Srcloc.dummy] so parsed and reparsed
    programs compare structurally. *)
