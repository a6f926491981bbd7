open Support

type state = { tokens : Lexer.spanned array; mutable pos : int }

let cur st = st.tokens.(st.pos).Lexer.token
let cur_loc st = st.tokens.(st.pos).Lexer.loc

let peek st n =
  let i = min (st.pos + n) (Array.length st.tokens - 1) in
  st.tokens.(i).Lexer.token

let advance st = if st.pos < Array.length st.tokens - 1 then st.pos <- st.pos + 1

let error st fmt = Diag.error ~loc:(cur_loc st) ~phase:"parse" fmt

let expect st (t : Token.t) =
  if cur st = t then advance st
  else error st "expected '%s' but found '%s'" (Token.to_string t)
      (Token.to_string (cur st))

let expect_ident st =
  match cur st with
  | Token.IDENT s ->
    advance st;
    s
  | t -> error st "expected identifier but found '%s'" (Token.to_string t)

let is_upper_name s = String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

(* ------------------------------------------------------------------ *)
(* Types                                                              *)
(* ------------------------------------------------------------------ *)

let base_ty st : Ast.ty option =
  match cur st with
  | Token.KW_INT ->
    advance st;
    Some Ast.T_int
  | Token.KW_FLOAT ->
    advance st;
    Some Ast.T_float
  | Token.KW_BOOLEAN ->
    advance st;
    Some Ast.T_bool
  | Token.KW_BIT ->
    advance st;
    Some Ast.T_bit
  | Token.KW_VOID ->
    advance st;
    Some Ast.T_void
  | Token.IDENT s ->
    (* Class and enum names; enum names may be lowercase (e.g. the
       paper's [bit]), so any identifier can denote a type here and
       statement parsing backtracks when it does not. *)
    advance st;
    Some (Ast.T_named s)
  | _ -> None

let rec array_suffix st ty =
  match cur st with
  | Token.LBRACKET when peek st 1 = Token.RBRACKET ->
    advance st;
    advance st;
    array_suffix st (Ast.T_array (ty, Ast.Mut))
  | Token.LVALUEBRACKET when peek st 1 = Token.RVALUEBRACKET ->
    advance st;
    advance st;
    array_suffix st (Ast.T_array (ty, Ast.Immut))
  | _ -> ty

let parse_ty st : Ast.ty =
  match base_ty st with
  | Some ty -> array_suffix st ty
  | None -> error st "expected a type but found '%s'" (Token.to_string (cur st))

(* Attempt [ty IDENT]: the start of a declaration. Restores the cursor
   and returns [None] when the tokens do not form one, so statements
   can fall back to expression parsing. *)
let try_decl_prefix st : (Ast.ty * string) option =
  let saved = st.pos in
  match base_ty st with
  | None -> None
  | Some ty -> (
    let ty = array_suffix st ty in
    match cur st with
    | Token.IDENT name when not (is_upper_name name) ->
      advance st;
      if cur st = Token.ASSIGN || cur st = Token.SEMI then Some (ty, name)
      else begin
        st.pos <- saved;
        None
      end
    | _ ->
      st.pos <- saved;
      None)

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

let mk loc desc : Ast.expr = { desc; loc }

let rec parse_expr st : Ast.expr = parse_connect st

(* a => b => c, left-associative, lowest precedence. *)
and parse_connect st =
  let lhs = parse_cond st in
  let rec loop lhs =
    if cur st = Token.CONNECT then begin
      let loc = cur_loc st in
      advance st;
      let rhs = parse_cond st in
      loop (mk loc (Ast.Connect (lhs, rhs)))
    end
    else lhs
  in
  loop lhs

and parse_cond st =
  let c = parse_or st in
  if cur st = Token.QUESTION then begin
    let loc = cur_loc st in
    advance st;
    let a = parse_expr st in
    expect st Token.COLON;
    let b = parse_cond st in
    mk loc (Ast.Cond (c, a, b))
  end
  else c

and binop_level st next (table : (Token.t * Ast.binop) list) =
  let lhs = next st in
  let rec loop lhs =
    match List.assoc_opt (cur st) table with
    | Some op ->
      let loc = cur_loc st in
      advance st;
      let rhs = next st in
      loop (mk loc (Ast.Binop (op, lhs, rhs)))
    | None -> lhs
  in
  loop lhs

and parse_or st = binop_level st parse_and [ Token.BARBAR, Ast.Or ]
and parse_and st = binop_level st parse_bor [ Token.AMPAMP, Ast.And ]
and parse_bor st = binop_level st parse_bxor [ Token.BAR, Ast.Bor ]
and parse_bxor st = binop_level st parse_band [ Token.CARET, Ast.Bxor ]
and parse_band st = binop_level st parse_equality [ Token.AMP, Ast.Band ]

and parse_equality st =
  binop_level st parse_relational [ Token.EQ, Ast.Eq; Token.NEQ, Ast.Neq ]

and parse_relational st =
  binop_level st parse_shift
    [ Token.LT, Ast.Lt; Token.LEQ, Ast.Leq; Token.GT, Ast.Gt; Token.GEQ, Ast.Geq ]

and parse_shift st =
  binop_level st parse_additive [ Token.SHL, Ast.Shl; Token.SHR, Ast.Shr ]

and parse_additive st =
  binop_level st parse_multiplicative [ Token.PLUS, Ast.Add; Token.MINUS, Ast.Sub ]

and parse_multiplicative st =
  binop_level st parse_unary
    [ Token.STAR, Ast.Mul; Token.SLASH, Ast.Div; Token.PERCENT, Ast.Rem ]

and parse_unary st =
  let loc = cur_loc st in
  match cur st with
  | Token.MINUS when peek st 1 = Token.INT_LIT 2147483648 ->
    (* as in Java, the one literal beyond int's range, allowed only
       here: -2147483648 is int's minimum *)
    advance st;
    advance st;
    mk loc (Ast.Int_lit (-2147483648))
  | Token.MINUS ->
    advance st;
    mk loc (Ast.Unop (Ast.Neg, parse_unary st))
  | Token.BANG ->
    advance st;
    mk loc (Ast.Unop (Ast.Not, parse_unary st))
  | Token.TILDE ->
    advance st;
    mk loc (Ast.Unop (Ast.Bit_not, parse_unary st))
  | _ -> parse_postfix st

and parse_args st =
  expect st Token.LPAREN;
  if cur st = Token.RPAREN then begin
    advance st;
    []
  end
  else begin
    let rec loop acc =
      let e = parse_expr st in
      if cur st = Token.COMMA then begin
        advance st;
        loop (e :: acc)
      end
      else begin
        expect st Token.RPAREN;
        List.rev (e :: acc)
      end
    in
    loop []
  end

and parse_postfix st =
  let e = parse_primary st in
  postfix_loop st e

and postfix_loop st (e : Ast.expr) =
  match cur st with
  | Token.DOT -> (
    let loc = cur_loc st in
    advance st;
    match cur st with
    | Token.LT ->
      (* [dest.<t>sink()] *)
      advance st;
      let ty = parse_ty st in
      expect st Token.GT;
      let m = expect_ident st in
      if m <> "sink" then error st "expected 'sink' after type argument";
      let args = parse_args st in
      if args <> [] then error st "sink() takes no arguments";
      postfix_loop st (mk loc (Ast.Sink (ty, e)))
    | Token.IDENT "length" when peek st 1 <> Token.LPAREN ->
      advance st;
      postfix_loop st (mk loc (Ast.Length e))
    | Token.IDENT m -> (
      advance st;
      if cur st = Token.LPAREN then begin
        let args = parse_args st in
        match m, args, e.desc with
        | "source", [ rate ], _ -> postfix_loop st (mk loc (Ast.Source (e, rate)))
        | _, _, Ast.Name s when is_upper_name s ->
          postfix_loop st (mk loc (Ast.Call (Ast.Qualified_call (s, m), args)))
        | _ -> postfix_loop st (mk loc (Ast.Call (Ast.Method_call (e, m), args)))
      end
      else
        match e.desc with
        | Ast.Name s -> postfix_loop st (mk loc (Ast.Qualified (s, m)))
        | _ -> error st "expected a call after '.%s'" m)
    | t -> error st "expected member name after '.' but found '%s'" (Token.to_string t))
  | Token.LBRACKET ->
    let loc = cur_loc st in
    advance st;
    let i = parse_expr st in
    expect st Token.RBRACKET;
    postfix_loop st (mk loc (Ast.Index (e, i)))
  | Token.AT | Token.ATAT -> (
    let is_map = cur st = Token.AT in
    let loc = cur_loc st in
    advance st;
    let m = expect_ident st in
    let args = parse_args st in
    let cls =
      match e.desc with
      | Ast.Name s -> Some s
      | _ -> error st "the receiver of '@' must be a class name"
    in
    if is_map then postfix_loop st (mk loc (Ast.Map (cls, m, args)))
    else postfix_loop st (mk loc (Ast.Reduce (cls, m, args))))
  | _ -> e

and parse_primary st =
  let loc = cur_loc st in
  match cur st with
  | Token.INT_LIT i when i > 2147483647 ->
    error st "integer literal %d is out of range for int (at most 2147483647)"
      i
  | Token.INT_LIT i ->
    advance st;
    mk loc (Ast.Int_lit i)
  | Token.FLOAT_LIT f ->
    advance st;
    mk loc (Ast.Float_lit f)
  | Token.BIT_LIT s ->
    advance st;
    mk loc (Ast.Bit_lit s)
  | Token.TRUE ->
    advance st;
    mk loc (Ast.Bool_lit true)
  | Token.FALSE ->
    advance st;
    mk loc (Ast.Bool_lit false)
  | Token.THIS ->
    advance st;
    mk loc Ast.This
  | Token.KW_BIT when peek st 1 = Token.DOT ->
    (* [bit.zero] / [bit.one]: the builtin enum used as a qualifier. *)
    advance st;
    advance st;
    let case = expect_ident st in
    mk loc (Ast.Qualified ("bit", case))
  | Token.IDENT s -> (
    advance st;
    if cur st = Token.LPAREN then
      let args = parse_args st in
      mk loc (Ast.Call (Ast.Unresolved_call s, args))
    else mk loc (Ast.Name s))
  | Token.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Token.RPAREN;
    e
  | Token.LBRACKET ->
    (* relocation brackets around a task expression *)
    advance st;
    let e = parse_expr st in
    expect st Token.RBRACKET;
    mk loc (Ast.Relocate e)
  | Token.TASK -> (
    advance st;
    let first =
      match cur st with
      | Token.IDENT s ->
        advance st;
        s
      | t -> error st "expected method name after 'task' but found '%s'" (Token.to_string t)
    in
    if cur st = Token.DOT then begin
      advance st;
      let m = expect_ident st in
      mk loc (Ast.Task (Some first, m))
    end
    else mk loc (Ast.Task (None, first)))
  | Token.NEW when
      (match peek st 1, peek st 2 with
      | Token.IDENT s, Token.LPAREN -> is_upper_name s
      | _ -> false) ->
    advance st;
    let cls =
      match cur st with
      | Token.IDENT s ->
        advance st;
        s
      | _ -> assert false
    in
    let args = parse_args st in
    mk loc (Ast.New_instance (cls, args))
  | Token.NEW -> (
    advance st;
    let base =
      match base_ty st with
      | Some t -> t
      | None -> error st "expected element type after 'new'"
    in
    match cur st with
    | Token.LBRACKET ->
      advance st;
      let n = parse_expr st in
      expect st Token.RBRACKET;
      mk loc (Ast.New_array (base, n))
    | Token.LVALUEBRACKET ->
      advance st;
      expect st Token.RVALUEBRACKET;
      let args = parse_args st in
      (match args with
      | [ e ] -> mk loc (Ast.New_value_array (base, e))
      | _ -> error st "new t[[]](e) takes exactly one argument")
    | t -> error st "expected '[' or '[[]]' after 'new %s' but found '%s'"
             (Ast.ty_to_string base) (Token.to_string t))
  | t -> error st "expected an expression but found '%s'" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

let lvalue_of_expr st (e : Ast.expr) : Ast.lvalue =
  match e.desc with
  | Ast.Name s -> Ast.Lv_name s
  | Ast.Index (a, i) -> Ast.Lv_index (a, i)
  | _ -> error st "this expression is not assignable"

let rec parse_stmt st : Ast.stmt =
  let sloc = cur_loc st in
  let s d : Ast.stmt = { sdesc = d; sloc } in
  match cur st with
  | Token.LBRACE -> s (Ast.Block (parse_block st))
  | Token.RETURN ->
    advance st;
    if cur st = Token.SEMI then begin
      advance st;
      s (Ast.Return None)
    end
    else begin
      let e = parse_expr st in
      expect st Token.SEMI;
      s (Ast.Return (Some e))
    end
  | Token.IF ->
    advance st;
    expect st Token.LPAREN;
    let c = parse_expr st in
    expect st Token.RPAREN;
    let then_ = parse_block_or_stmt st in
    let else_ =
      if cur st = Token.ELSE then begin
        advance st;
        Some (parse_block_or_stmt st)
      end
      else None
    in
    s (Ast.If (c, then_, else_))
  | Token.WHILE ->
    advance st;
    expect st Token.LPAREN;
    let c = parse_expr st in
    expect st Token.RPAREN;
    s (Ast.While (c, parse_block_or_stmt st))
  | Token.FOR ->
    advance st;
    expect st Token.LPAREN;
    let init =
      if cur st = Token.SEMI then None else Some (parse_simple_stmt st)
    in
    expect st Token.SEMI;
    let cond = if cur st = Token.SEMI then None else Some (parse_expr st) in
    expect st Token.SEMI;
    let update =
      if cur st = Token.RPAREN then None else Some (parse_simple_stmt st)
    in
    expect st Token.RPAREN;
    s (Ast.For (init, cond, update, parse_block_or_stmt st))
  | Token.VAR ->
    advance st;
    let name = expect_ident st in
    expect st Token.ASSIGN;
    let e = parse_expr st in
    expect st Token.SEMI;
    s (Ast.Var_decl (None, name, Some e))
  | _ -> (
    match try_decl_prefix st with
    | Some (ty, name) ->
      if cur st = Token.SEMI then begin
        advance st;
        s (Ast.Var_decl (Some ty, name, None))
      end
      else begin
        expect st Token.ASSIGN;
        let e = parse_expr st in
        expect st Token.SEMI;
        s (Ast.Var_decl (Some ty, name, Some e))
      end
    | None ->
      let stmt = parse_simple_stmt st in
      expect st Token.SEMI;
      stmt)

(* Assignment / increment / expression statement, without the
   trailing semicolon (shared with for-loop headers). *)
and parse_simple_stmt st : Ast.stmt =
  let sloc = cur_loc st in
  let s d : Ast.stmt = { sdesc = d; sloc } in
  match cur st with
  | Token.VAR ->
    advance st;
    let name = expect_ident st in
    expect st Token.ASSIGN;
    s (Ast.Var_decl (None, name, Some (parse_expr st)))
  | _ -> (
    match try_decl_prefix st with
    | Some (ty, name) ->
      expect st Token.ASSIGN;
      s (Ast.Var_decl (Some ty, name, Some (parse_expr st)))
    | None -> (
      let e = parse_expr st in
      match cur st with
      | Token.ASSIGN ->
        advance st;
        s (Ast.Assign (lvalue_of_expr st e, parse_expr st))
      | Token.PLUSASSIGN ->
        advance st;
        s (Ast.Op_assign (Ast.Add, lvalue_of_expr st e, parse_expr st))
      | Token.MINUSASSIGN ->
        advance st;
        s (Ast.Op_assign (Ast.Sub, lvalue_of_expr st e, parse_expr st))
      | Token.STARASSIGN ->
        advance st;
        s (Ast.Op_assign (Ast.Mul, lvalue_of_expr st e, parse_expr st))
      | Token.PLUSPLUS ->
        advance st;
        s (Ast.Incr (lvalue_of_expr st e))
      | Token.MINUSMINUS ->
        advance st;
        s (Ast.Decr (lvalue_of_expr st e))
      | _ -> s (Ast.Expr_stmt e)))

and parse_block st : Ast.block =
  expect st Token.LBRACE;
  let rec loop acc =
    if cur st = Token.RBRACE then begin
      advance st;
      List.rev acc
    end
    else loop (parse_stmt st :: acc)
  in
  loop []

and parse_block_or_stmt st : Ast.block =
  if cur st = Token.LBRACE then parse_block st else [ parse_stmt st ]

(* ------------------------------------------------------------------ *)
(* Declarations                                                       *)
(* ------------------------------------------------------------------ *)

type modifiers = {
  mod_static : bool;
  mod_locality : Ast.locality;
}

let parse_modifiers st =
  let rec loop acc =
    match cur st with
    | Token.PUBLIC | Token.FINAL ->
      advance st;
      loop acc
    | Token.STATIC ->
      advance st;
      loop { acc with mod_static = true }
    | Token.LOCAL ->
      advance st;
      loop { acc with mod_locality = Ast.L_local }
    | Token.GLOBAL ->
      advance st;
      loop { acc with mod_locality = Ast.L_global }
    | _ -> acc
  in
  loop { mod_static = false; mod_locality = Ast.L_default }

let parse_params st : (string * Ast.ty) list =
  expect st Token.LPAREN;
  if cur st = Token.RPAREN then begin
    advance st;
    []
  end
  else begin
    let rec loop acc =
      let ty = parse_ty st in
      let name = expect_ident st in
      let acc = (name, ty) :: acc in
      if cur st = Token.COMMA then begin
        advance st;
        loop acc
      end
      else begin
        expect st Token.RPAREN;
        List.rev acc
      end
    in
    loop []
  end

(* [public bit ~ this { ... }]: a value enum's unary operator method. *)
let parse_operator_method st mods ret loc : Ast.method_decl =
  expect st Token.TILDE;
  expect st Token.THIS;
  let body = parse_block st in
  {
    Ast.m_name = "~";
    m_static = mods.mod_static;
    m_locality = mods.mod_locality;
    m_ret = ret;
    m_params = [];
    m_body = body;
    m_loc = loc;
  }

let parse_enum_decl st : Ast.enum_decl =
  let e_loc = cur_loc st in
  expect st Token.VALUE;
  expect st Token.ENUM;
  let e_name =
    match cur st with
    | Token.IDENT s ->
      advance st;
      s
    | Token.KW_BIT ->
      (* [value enum bit] as in Figure 1: declares the builtin. *)
      advance st;
      "bit"
    | t -> error st "expected enum name but found '%s'" (Token.to_string t)
  in
  expect st Token.LBRACE;
  let rec cases acc =
    let c = expect_ident st in
    if cur st = Token.COMMA then begin
      advance st;
      cases (c :: acc)
    end
    else begin
      expect st Token.SEMI;
      List.rev (c :: acc)
    end
  in
  let e_cases = cases [] in
  let rec methods acc =
    if cur st = Token.RBRACE then begin
      advance st;
      List.rev acc
    end
    else begin
      let m_loc = cur_loc st in
      let mods = parse_modifiers st in
      let ret = parse_ty st in
      if cur st = Token.TILDE then
        methods (parse_operator_method st mods ret m_loc :: acc)
      else begin
        let name = expect_ident st in
        let params = parse_params st in
        let body = parse_block st in
        methods
          ({
             Ast.m_name = name;
             m_static = mods.mod_static;
             m_locality = mods.mod_locality;
             m_ret = ret;
             m_params = params;
             m_body = body;
             m_loc;
           }
          :: acc)
      end
    end
  in
  { e_name; e_cases; e_methods = methods []; e_loc }

let parse_class_decl st : Ast.class_decl =
  let k_loc = cur_loc st in
  let k_is_value =
    if cur st = Token.VALUE then begin
      advance st;
      true
    end
    else false
  in
  expect st Token.CLASS;
  let k_name = expect_ident st in
  expect st Token.LBRACE;
  let fields = ref [] in
  let ctors = ref [] in
  let methods = ref [] in
  let rec members () =
    if cur st = Token.RBRACE then advance st
    else begin
      let m_loc = cur_loc st in
      let mods = parse_modifiers st in
      (* Constructor: the class name followed directly by '('. *)
      (match cur st with
      | Token.IDENT s when s = k_name && peek st 1 = Token.LPAREN ->
        advance st;
        let params = parse_params st in
        let body = parse_block st in
        ctors :=
          {
            Ast.c_locality = mods.mod_locality;
            c_params = params;
            c_body = body;
            c_loc = m_loc;
          }
          :: !ctors
      | _ -> (
        let ty = parse_ty st in
        let name = expect_ident st in
        match cur st with
        | Token.LPAREN ->
          let params = parse_params st in
          let body = parse_block st in
          methods :=
            {
              Ast.m_name = name;
              m_static = mods.mod_static;
              m_locality = mods.mod_locality;
              m_ret = ty;
              m_params = params;
              m_body = body;
              m_loc;
            }
            :: !methods
        | Token.ASSIGN ->
          advance st;
          let init = parse_expr st in
          expect st Token.SEMI;
          fields :=
            { Ast.f_name = name; f_ty = ty; f_init = Some init; f_loc = m_loc }
            :: !fields
        | Token.SEMI ->
          advance st;
          fields :=
            { Ast.f_name = name; f_ty = ty; f_init = None; f_loc = m_loc }
            :: !fields
        | t ->
          error st "expected '(', '=' or ';' after member name but found '%s'"
            (Token.to_string t)));
      members ()
    end
  in
  members ();
  {
    k_name;
    k_is_value;
    k_fields = List.rev !fields;
    k_ctors = List.rev !ctors;
    k_methods = List.rev !methods;
    k_loc;
  }

let parse_program st : Ast.program =
  let rec loop acc =
    match cur st with
    | Token.EOF -> { Ast.decls = List.rev acc }
    | Token.PUBLIC ->
      advance st;
      loop acc
    | Token.VALUE when peek st 1 = Token.ENUM ->
      loop (Ast.D_enum (parse_enum_decl st) :: acc)
    | Token.VALUE | Token.CLASS ->
      loop (Ast.D_class (parse_class_decl st) :: acc)
    | t -> error st "expected a declaration but found '%s'" (Token.to_string t)
  in
  loop []

let parse ~file src =
  let tokens = Array.of_list (Lexer.tokenize ~file src) in
  parse_program { tokens; pos = 0 }

let parse_expr_string src =
  let tokens = Array.of_list (Lexer.tokenize ~file:"<expr>" src) in
  let st = { tokens; pos = 0 } in
  let e = parse_expr st in
  expect st Token.EOF;
  e
