(** Lexical tokens of the Lime subset. *)

type t =
  (* literals *)
  | INT_LIT of int
  | FLOAT_LIT of float
  | BIT_LIT of string  (** body of a bit literal, e.g. "100" for [100b] *)
  | TRUE
  | FALSE
  (* identifiers and keywords *)
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
  (* punctuation *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | LVALUEBRACKET  (** [[ *)
  | RVALUEBRACKET  (** ]] *)
  | SEMI
  | COMMA
  | DOT
  | QUESTION
  | COLON
  (* operators *)
  | ASSIGN  (** = *)
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
  | EQ  (** == *)
  | NEQ
  | LT
  | LEQ
  | GT
  | GEQ
  | SHL
  | SHR
  | AT  (** @, the map operator *)
  | ATAT  (** @@, the reduce operator *)
  | CONNECT  (** => *)
  | PLUSPLUS
  | MINUSMINUS
  | PLUSASSIGN
  | MINUSASSIGN
  | STARASSIGN
  | EOF

val to_string : t -> string
