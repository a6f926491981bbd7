open Support

(* Printing uses full parenthesization inside binary expressions, so
   no precedence table is needed and reparsing is trivially faithful. *)

let unop_text (u : Ast.unop) =
  match u with Ast.Neg -> "-" | Ast.Not -> "!" | Ast.Bit_not -> "~"

let binop_text (b : Ast.binop) =
  match b with
  | Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/"
  | Ast.Rem -> "%" | Ast.Shl -> "<<" | Ast.Shr -> ">>"
  | Ast.Band -> "&" | Ast.Bor -> "|" | Ast.Bxor -> "^"
  | Ast.And -> "&&" | Ast.Or -> "||"
  | Ast.Eq -> "==" | Ast.Neq -> "!="
  | Ast.Lt -> "<" | Ast.Leq -> "<=" | Ast.Gt -> ">" | Ast.Geq -> ">="

let float_text f =
  (* Always include a decimal point or exponent so the literal reparses
     as a float. *)
  let s = Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s
  else s ^ ".0"

let rec expr_text (e : Ast.expr) : string =
  match e.desc with
  | Ast.Int_lit i -> string_of_int i
  | Ast.Float_lit f -> float_text f
  | Ast.Bool_lit b -> string_of_bool b
  | Ast.Bit_lit s -> s ^ "b"
  | Ast.Name s -> s
  | Ast.Qualified (q, m) -> q ^ "." ^ m
  | Ast.This -> "this"
  | Ast.Unop (u, a) -> Printf.sprintf "%s%s" (unop_text u) (atom a)
  | Ast.Binop (b, x, y) ->
    Printf.sprintf "(%s %s %s)" (expr_text x) (binop_text b) (expr_text y)
  | Ast.Cond (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (expr_text c) (expr_text a) (expr_text b)
  | Ast.Index (a, i) -> Printf.sprintf "%s[%s]" (atom a) (expr_text i)
  | Ast.Length a -> Printf.sprintf "%s.length" (atom a)
  | Ast.Call (target, args) ->
    let args = String.concat ", " (List.map expr_text args) in
    (match target with
    | Ast.Unresolved_call m -> Printf.sprintf "%s(%s)" m args
    | Ast.Qualified_call (c, m) -> Printf.sprintf "%s.%s(%s)" c m args
    | Ast.Method_call (recv, m) ->
      Printf.sprintf "%s.%s(%s)" (atom recv) m args)
  | Ast.New_array (ty, n) ->
    Printf.sprintf "new %s[%s]" (Ast.ty_to_string ty) (expr_text n)
  | Ast.New_value_array (ty, src) ->
    Printf.sprintf "new %s[[]](%s)" (Ast.ty_to_string ty) (expr_text src)
  | Ast.New_instance (cls, args) ->
    Printf.sprintf "new %s(%s)" cls (String.concat ", " (List.map expr_text args))
  | Ast.Map (cls, m, args) ->
    Printf.sprintf "%s @ %s(%s)"
      (Option.value cls ~default:"")
      m
      (String.concat ", " (List.map expr_text args))
  | Ast.Reduce (cls, m, args) ->
    Printf.sprintf "%s @@ %s(%s)"
      (Option.value cls ~default:"")
      m
      (String.concat ", " (List.map expr_text args))
  | Ast.Task (None, m) -> Printf.sprintf "(task %s)" m
  | Ast.Task (Some r, m) -> Printf.sprintf "(task %s.%s)" r m
  | Ast.Relocate inner -> Printf.sprintf "[ %s ]" (expr_text inner)
  | Ast.Connect (a, b) -> Printf.sprintf "%s => %s" (expr_text a) (expr_text b)
  | Ast.Source (arr, rate) ->
    Printf.sprintf "%s.source(%s)" (atom arr) (expr_text rate)
  | Ast.Sink (ty, dest) ->
    Printf.sprintf "%s.<%s>sink()" (atom dest) (Ast.ty_to_string ty)

(* Receivers and indexing bases need parentheses unless atomic. *)
and atom (e : Ast.expr) : string =
  match e.desc with
  | Ast.Int_lit i when i < 0 -> "(" ^ expr_text e ^ ")"
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Bit_lit _
  | Ast.Name _ | Ast.Qualified _ | Ast.This | Ast.Call _ | Ast.Index _
  | Ast.Length _ | Ast.Source _ | Ast.Sink _ ->
    expr_text e
  | _ -> "(" ^ expr_text e ^ ")"

let expr_to_string = expr_text

let lvalue_text (lv : Ast.lvalue) =
  match lv with
  | Ast.Lv_name s -> s
  | Ast.Lv_index (a, i) -> Printf.sprintf "%s[%s]" (atom a) (expr_text i)

let rec stmt_text indent (s : Ast.stmt) : string =
  let pad = String.make indent ' ' in
  match s.sdesc with
  | Ast.Var_decl (Some ty, name, Some e) ->
    Printf.sprintf "%s%s %s = %s;\n" pad (Ast.ty_to_string ty) name (expr_text e)
  | Ast.Var_decl (Some ty, name, None) ->
    Printf.sprintf "%s%s %s;\n" pad (Ast.ty_to_string ty) name
  | Ast.Var_decl (None, name, Some e) ->
    Printf.sprintf "%svar %s = %s;\n" pad name (expr_text e)
  | Ast.Var_decl (None, name, None) ->
    Printf.sprintf "%svar %s;\n" pad name (* unreachable from the parser *)
  | Ast.Assign (lv, e) ->
    Printf.sprintf "%s%s = %s;\n" pad (lvalue_text lv) (expr_text e)
  | Ast.Op_assign (op, lv, e) ->
    Printf.sprintf "%s%s %s= %s;\n" pad (lvalue_text lv) (binop_text op)
      (expr_text e)
  | Ast.Incr lv -> Printf.sprintf "%s%s++;\n" pad (lvalue_text lv)
  | Ast.Decr lv -> Printf.sprintf "%s%s--;\n" pad (lvalue_text lv)
  | Ast.If (c, then_, else_) ->
    let else_text =
      match else_ with
      | None | Some [] -> ""
      | Some b -> Printf.sprintf "%selse {\n%s%s}\n" pad (block_text (indent + 2) b) pad
    in
    Printf.sprintf "%sif (%s) {\n%s%s}\n%s" pad (expr_text c)
      (block_text (indent + 2) then_)
      pad else_text
  | Ast.While (c, body) ->
    Printf.sprintf "%swhile (%s) {\n%s%s}\n" pad (expr_text c)
      (block_text (indent + 2) body)
      pad
  | Ast.For (init, cond, update, body) ->
    let simple s =
      (* statement text without its newline/indent/semicolon *)
      let text = stmt_text 0 s in
      let text = String.trim text in
      if String.length text > 0 && text.[String.length text - 1] = ';' then
        String.sub text 0 (String.length text - 1)
      else text
    in
    Printf.sprintf "%sfor (%s; %s; %s) {\n%s%s}\n" pad
      (match init with Some s -> simple s | None -> "")
      (match cond with Some e -> expr_text e | None -> "")
      (match update with Some s -> simple s | None -> "")
      (block_text (indent + 2) body)
      pad
  | Ast.Return None -> pad ^ "return;\n"
  | Ast.Return (Some e) -> Printf.sprintf "%sreturn %s;\n" pad (expr_text e)
  | Ast.Expr_stmt e -> Printf.sprintf "%s%s;\n" pad (expr_text e)
  | Ast.Block b ->
    Printf.sprintf "%s{\n%s%s}\n" pad (block_text (indent + 2) b) pad

and block_text indent (b : Ast.block) =
  String.concat "" (List.map (stmt_text indent) b)

let locality_text (l : Ast.locality) =
  match l with
  | Ast.L_local -> "local "
  | Ast.L_global -> "global "
  | Ast.L_default -> ""

let params_text params =
  String.concat ", "
    (List.map (fun (n, ty) -> Ast.ty_to_string ty ^ " " ^ n) params)

let method_text indent (m : Ast.method_decl) =
  let pad = String.make indent ' ' in
  if m.m_name = "~" then
    Printf.sprintf "%spublic %s ~ this {\n%s%s}\n" pad
      (Ast.ty_to_string m.m_ret)
      (block_text (indent + 2) m.m_body)
      pad
  else
    Printf.sprintf "%s%s%s%s %s(%s) {\n%s%s}\n" pad
      (locality_text m.m_locality)
      (if m.m_static then "static " else "")
      (Ast.ty_to_string m.m_ret)
      m.m_name (params_text m.m_params)
      (block_text (indent + 2) m.m_body)
      pad

let decl_text (d : Ast.decl) =
  match d with
  | Ast.D_enum e ->
    Printf.sprintf "public value enum %s {\n  %s;\n%s}\n" e.e_name
      (String.concat ", " e.e_cases)
      (String.concat "" (List.map (method_text 2) e.e_methods))
  | Ast.D_class k ->
    let fields =
      String.concat ""
        (List.map
           (fun (f : Ast.field_decl) ->
             match f.f_init with
             | Some e ->
               Printf.sprintf "  %s %s = %s;\n" (Ast.ty_to_string f.f_ty)
                 f.f_name (expr_text e)
             | None ->
               Printf.sprintf "  %s %s;\n" (Ast.ty_to_string f.f_ty) f.f_name)
           k.k_fields)
    in
    let ctors =
      String.concat ""
        (List.map
           (fun (c : Ast.ctor_decl) ->
             Printf.sprintf "  %s%s(%s) {\n%s  }\n"
               (locality_text c.c_locality)
               k.k_name (params_text c.c_params)
               (block_text 4 c.c_body))
           k.k_ctors)
    in
    Printf.sprintf "%sclass %s {\n%s%s%s}\n"
      (if k.k_is_value then "value " else "")
      k.k_name fields ctors
      (String.concat "" (List.map (method_text 2) k.k_methods))

let program_to_string (p : Ast.program) =
  String.concat "\n" (List.map decl_text p.decls)

(* --- location stripping (for structural comparison) ------------------ *)

let rec strip_expr (e : Ast.expr) : Ast.expr =
  let desc =
    match e.desc with
    | ( Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Bit_lit _
      | Ast.Name _ | Ast.Qualified _ | Ast.This ) as d ->
      d
    | Ast.Unop (u, a) -> Ast.Unop (u, strip_expr a)
    | Ast.Binop (b, x, y) -> Ast.Binop (b, strip_expr x, strip_expr y)
    | Ast.Cond (c, a, b) -> Ast.Cond (strip_expr c, strip_expr a, strip_expr b)
    | Ast.Index (a, i) -> Ast.Index (strip_expr a, strip_expr i)
    | Ast.Length a -> Ast.Length (strip_expr a)
    | Ast.Call (t, args) ->
      let t =
        match t with
        | Ast.Method_call (recv, m) -> Ast.Method_call (strip_expr recv, m)
        | (Ast.Unresolved_call _ | Ast.Qualified_call _) as t -> t
      in
      Ast.Call (t, List.map strip_expr args)
    | Ast.New_array (ty, n) -> Ast.New_array (ty, strip_expr n)
    | Ast.New_value_array (ty, src) -> Ast.New_value_array (ty, strip_expr src)
    | Ast.New_instance (cls, args) ->
      Ast.New_instance (cls, List.map strip_expr args)
    | Ast.Map (c, m, args) -> Ast.Map (c, m, List.map strip_expr args)
    | Ast.Reduce (c, m, args) -> Ast.Reduce (c, m, List.map strip_expr args)
    | Ast.Task _ as d -> d
    | Ast.Relocate inner -> Ast.Relocate (strip_expr inner)
    | Ast.Connect (a, b) -> Ast.Connect (strip_expr a, strip_expr b)
    | Ast.Source (arr, rate) -> Ast.Source (strip_expr arr, strip_expr rate)
    | Ast.Sink (ty, dest) -> Ast.Sink (ty, strip_expr dest)
  in
  { desc; loc = Srcloc.dummy }

let strip_lvalue (lv : Ast.lvalue) =
  match lv with
  | Ast.Lv_name _ as l -> l
  | Ast.Lv_index (a, i) -> Ast.Lv_index (strip_expr a, strip_expr i)

let rec strip_stmt (s : Ast.stmt) : Ast.stmt =
  let sdesc =
    match s.sdesc with
    | Ast.Var_decl (ty, n, e) -> Ast.Var_decl (ty, n, Option.map strip_expr e)
    | Ast.Assign (lv, e) -> Ast.Assign (strip_lvalue lv, strip_expr e)
    | Ast.Op_assign (op, lv, e) ->
      Ast.Op_assign (op, strip_lvalue lv, strip_expr e)
    | Ast.Incr lv -> Ast.Incr (strip_lvalue lv)
    | Ast.Decr lv -> Ast.Decr (strip_lvalue lv)
    | Ast.If (c, a, b) ->
      Ast.If
        ( strip_expr c,
          List.map strip_stmt a,
          Option.map (List.map strip_stmt) b )
    | Ast.While (c, b) -> Ast.While (strip_expr c, List.map strip_stmt b)
    | Ast.For (i, c, u, b) ->
      Ast.For
        ( Option.map strip_stmt i,
          Option.map strip_expr c,
          Option.map strip_stmt u,
          List.map strip_stmt b )
    | Ast.Return e -> Ast.Return (Option.map strip_expr e)
    | Ast.Expr_stmt e -> Ast.Expr_stmt (strip_expr e)
    | Ast.Block b -> Ast.Block (List.map strip_stmt b)
  in
  { sdesc; sloc = Srcloc.dummy }

let strip_method (m : Ast.method_decl) =
  { m with m_body = List.map strip_stmt m.m_body; m_loc = Srcloc.dummy }

let strip_locations (p : Ast.program) : Ast.program =
  {
    Ast.decls =
      List.map
        (function
          | Ast.D_enum e ->
            Ast.D_enum
              {
                e with
                e_methods = List.map strip_method e.e_methods;
                e_loc = Srcloc.dummy;
              }
          | Ast.D_class k ->
            Ast.D_class
              {
                k with
                k_fields =
                  List.map
                    (fun (f : Ast.field_decl) ->
                      {
                        f with
                        f_init = Option.map strip_expr f.f_init;
                        f_loc = Srcloc.dummy;
                      })
                    k.k_fields;
                k_ctors =
                  List.map
                    (fun (c : Ast.ctor_decl) ->
                      {
                        c with
                        c_body = List.map strip_stmt c.c_body;
                        c_loc = Srcloc.dummy;
                      })
                    k.k_ctors;
                k_methods = List.map strip_method k.k_methods;
                k_loc = Srcloc.dummy;
              })
        p.decls;
  }
