open Support

type spanned = { token : Token.t; loc : Srcloc.t }

type state = {
  file : string;
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the beginning of the current line *)
}

let keyword_table : (string * Token.t) list =
  [
    "true", TRUE;
    "false", FALSE;
    "public", PUBLIC;
    "static", STATIC;
    "local", LOCAL;
    "global", GLOBAL;
    "value", VALUE;
    "enum", ENUM;
    "class", CLASS;
    "var", VAR;
    "new", NEW;
    "return", RETURN;
    "if", IF;
    "else", ELSE;
    "for", FOR;
    "while", WHILE;
    "task", TASK;
    "this", THIS;
    "int", KW_INT;
    "float", KW_FLOAT;
    "boolean", KW_BOOLEAN;
    "bit", KW_BIT;
    "void", KW_VOID;
    "final", FINAL;
  ]

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let peek st offset =
  let i = st.pos + offset in
  if i < String.length st.src then Some st.src.[i] else None

let cur st = peek st 0

let advance st =
  (match cur st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  | Some _ | None -> ());
  st.pos <- st.pos + 1

let loc_here st start =
  Srcloc.make ~file:st.file ~line:st.line ~col:(start - st.bol + 1) ~start
    ~stop:st.pos

let error st start fmt =
  Diag.error ~loc:(loc_here st start) ~phase:"lex" fmt

let rec skip_trivia st =
  match cur st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_trivia st
  | Some '/' -> (
    match peek st 1 with
    | Some '/' ->
      while cur st <> None && cur st <> Some '\n' do
        advance st
      done;
      skip_trivia st
    | Some '*' ->
      let start = st.pos in
      advance st;
      advance st;
      let rec close () =
        match cur st, peek st 1 with
        | Some '*', Some '/' ->
          advance st;
          advance st
        | Some _, _ ->
          advance st;
          close ()
        | None, _ -> error st start "unterminated block comment"
      in
      close ();
      skip_trivia st
    | Some _ | None -> ())
  | Some _ | None -> ()

(* An int literal, in Java's range: at most 2147483647, or 2147483648,
   which the parser accepts only as the operand of unary minus. *)
let int_literal st start digits =
  match int_of_string_opt digits with
  | Some i when i <= 2147483648 -> Token.INT_LIT i
  | Some _ | None ->
    error st start
      "integer literal %s is out of range for int (at most 2147483647)" digits

(* A run of digits followed by [b] is a bit literal when every digit is
   binary; [100b] is bit[2]=1, bit[0]=0. Otherwise digit runs lex as
   int or float literals (with optional fraction, exponent, and an
   ignored Java-style [f]/[d] suffix). *)
let lex_number st =
  let start = st.pos in
  while (match cur st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  let digits = String.sub st.src start (st.pos - start) in
  match cur st with
  | Some 'b' when String.for_all (fun c -> c = '0' || c = '1') digits ->
    advance st;
    Token.BIT_LIT digits
  | Some 'b' -> error st start "bit literal %sb contains non-binary digits" digits
  | Some ('.' | 'e' | 'E' | 'f' | 'F' | 'd' | 'D') ->
    let is_float = ref false in
    (if cur st = Some '.' then begin
       is_float := true;
       advance st;
       while (match cur st with Some c -> is_digit c | None -> false) do
         advance st
       done
     end);
    (match cur st with
    | Some ('e' | 'E') ->
      is_float := true;
      advance st;
      (match cur st with
      | Some ('+' | '-') -> advance st
      | Some _ | None -> ());
      while (match cur st with Some c -> is_digit c | None -> false) do
        advance st
      done
    | Some _ | None -> ());
    let text = String.sub st.src start (st.pos - start) in
    (match cur st with
    | Some ('f' | 'F' | 'd' | 'D') ->
      is_float := true;
      advance st
    | Some _ | None -> ());
    if !is_float then
      Token.FLOAT_LIT (float_of_string text)
    else int_literal st start text
  | Some _ | None -> int_literal st start digits

let lex_ident st =
  let start = st.pos in
  while (match cur st with Some c -> is_ident_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match List.assoc_opt text keyword_table with
  | Some kw -> kw
  | None -> Token.IDENT text

let two st (second : char) (yes : Token.t) (no : Token.t) =
  if peek st 1 = Some second then begin
    advance st;
    advance st;
    yes
  end
  else begin
    advance st;
    no
  end

let next_token st : Token.t =
  match cur st with
  | None -> EOF
  | Some c when is_digit c -> lex_number st
  | Some c when is_ident_start c -> lex_ident st
  | Some '(' ->
    advance st;
    LPAREN
  | Some ')' ->
    advance st;
    RPAREN
  | Some '{' ->
    advance st;
    LBRACE
  | Some '}' ->
    advance st;
    RBRACE
  | Some '[' -> two st '[' LVALUEBRACKET LBRACKET
  | Some ']' -> two st ']' RVALUEBRACKET RBRACKET
  | Some ';' ->
    advance st;
    SEMI
  | Some ',' ->
    advance st;
    COMMA
  | Some '.' ->
    advance st;
    DOT
  | Some '?' ->
    advance st;
    QUESTION
  | Some ':' ->
    advance st;
    COLON
  | Some '~' ->
    advance st;
    TILDE
  | Some '^' ->
    advance st;
    CARET
  | Some '%' ->
    advance st;
    PERCENT
  | Some '*' -> two st '=' STARASSIGN STAR
  | Some '/' ->
    advance st;
    SLASH
  | Some '+' -> (
    match peek st 1 with
    | Some '+' ->
      advance st;
      advance st;
      PLUSPLUS
    | Some '=' ->
      advance st;
      advance st;
      PLUSASSIGN
    | Some _ | None ->
      advance st;
      PLUS)
  | Some '-' -> (
    match peek st 1 with
    | Some '-' ->
      advance st;
      advance st;
      MINUSMINUS
    | Some '=' ->
      advance st;
      advance st;
      MINUSASSIGN
    | Some _ | None ->
      advance st;
      MINUS)
  | Some '&' -> two st '&' AMPAMP AMP
  | Some '|' -> two st '|' BARBAR BAR
  | Some '!' -> two st '=' NEQ BANG
  | Some '<' -> (
    match peek st 1 with
    | Some '=' ->
      advance st;
      advance st;
      LEQ
    | Some '<' ->
      advance st;
      advance st;
      SHL
    | Some _ | None ->
      advance st;
      LT)
  | Some '>' -> (
    match peek st 1 with
    | Some '=' ->
      advance st;
      advance st;
      GEQ
    | Some '>' ->
      advance st;
      advance st;
      SHR
    | Some _ | None ->
      advance st;
      GT)
  | Some '=' -> (
    match peek st 1 with
    | Some '=' ->
      advance st;
      advance st;
      EQ
    | Some '>' ->
      advance st;
      advance st;
      CONNECT
    | Some _ | None ->
      advance st;
      ASSIGN)
  | Some '@' -> two st '@' ATAT AT
  | Some c -> error st st.pos "unexpected character %C" c

let tokenize ~file src =
  let st = { file; src; pos = 0; line = 1; bol = 0 } in
  let rec loop acc =
    skip_trivia st;
    let start = st.pos in
    let line = st.line in
    let col = start - st.bol + 1 in
    let token = next_token st in
    let loc = Srcloc.make ~file ~line ~col ~start ~stop:st.pos in
    let acc = { token; loc } :: acc in
    match token with Token.EOF -> List.rev acc | _ -> loop acc
  in
  loop []
