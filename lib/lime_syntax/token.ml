type t =
  | INT_LIT of int
  | FLOAT_LIT of float
  | BIT_LIT of string
  | TRUE
  | FALSE
  | IDENT of string
  | PUBLIC
  | STATIC
  | LOCAL
  | GLOBAL
  | VALUE
  | ENUM
  | CLASS
  | VAR
  | NEW
  | RETURN
  | IF
  | ELSE
  | FOR
  | WHILE
  | TASK
  | THIS
  | KW_INT
  | KW_FLOAT
  | KW_BOOLEAN
  | KW_BIT
  | KW_VOID
  | FINAL
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | LVALUEBRACKET
  | RVALUEBRACKET
  | SEMI
  | COMMA
  | DOT
  | QUESTION
  | COLON
  | ASSIGN
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | TILDE
  | BANG
  | AMP
  | BAR
  | CARET
  | AMPAMP
  | BARBAR
  | EQ
  | NEQ
  | LT
  | LEQ
  | GT
  | GEQ
  | SHL
  | SHR
  | AT
  | ATAT
  | CONNECT
  | PLUSPLUS
  | MINUSMINUS
  | PLUSASSIGN
  | MINUSASSIGN
  | STARASSIGN
  | EOF

let to_string = function
  | INT_LIT i -> string_of_int i
  | FLOAT_LIT f -> string_of_float f
  | BIT_LIT s -> s ^ "b"
  | TRUE -> "true"
  | FALSE -> "false"
  | IDENT s -> s
  | PUBLIC -> "public"
  | STATIC -> "static"
  | LOCAL -> "local"
  | GLOBAL -> "global"
  | VALUE -> "value"
  | ENUM -> "enum"
  | CLASS -> "class"
  | VAR -> "var"
  | NEW -> "new"
  | RETURN -> "return"
  | IF -> "if"
  | ELSE -> "else"
  | FOR -> "for"
  | WHILE -> "while"
  | TASK -> "task"
  | THIS -> "this"
  | KW_INT -> "int"
  | KW_FLOAT -> "float"
  | KW_BOOLEAN -> "boolean"
  | KW_BIT -> "bit"
  | KW_VOID -> "void"
  | FINAL -> "final"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | LVALUEBRACKET -> "[["
  | RVALUEBRACKET -> "]]"
  | SEMI -> ";"
  | COMMA -> ","
  | DOT -> "."
  | QUESTION -> "?"
  | COLON -> ":"
  | ASSIGN -> "="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | TILDE -> "~"
  | BANG -> "!"
  | AMP -> "&"
  | BAR -> "|"
  | CARET -> "^"
  | AMPAMP -> "&&"
  | BARBAR -> "||"
  | EQ -> "=="
  | NEQ -> "!="
  | LT -> "<"
  | LEQ -> "<="
  | GT -> ">"
  | GEQ -> ">="
  | SHL -> "<<"
  | SHR -> ">>"
  | AT -> "@"
  | ATAT -> "@@"
  | CONNECT -> "=>"
  | PLUSPLUS -> "++"
  | MINUSMINUS -> "--"
  | PLUSASSIGN -> "+="
  | MINUSASSIGN -> "-="
  | STARASSIGN -> "*="
  | EOF -> "<eof>"
