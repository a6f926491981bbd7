module V = Wire.Value

exception Runtime_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type v =
  | Prim of Wire.Value.t
  | Obj of obj
  | Graph_handle of int

and obj = { obj_class : string; obj_fields : v array }

type hooks = {
  on_map : Ir.map_site -> v list -> v option;
  on_reduce : Ir.reduce_site -> v -> v option;
  on_run_graph :
    (Ir.graph_template -> v list -> blocking:bool -> bool) option;
}

let no_hooks =
  { on_map = (fun _ _ -> None); on_reduce = (fun _ _ -> None); on_run_graph = None }

let rec default_value (ty : Ir.ty) : v =
  match ty with
  | Ir.I32 -> Prim (V.Int 0)
  | Ir.F32 -> Prim (V.Float 0.0)
  | Ir.Bool -> Prim (V.Bool false)
  | Ir.Bit -> Prim (V.Bit false)
  | Ir.Enum e -> Prim (V.Enum { enum = e; tag = 0 })
  | Ir.Arr elt -> (
    match default_value elt with
    | Prim _ -> Prim (V.Array [||])
    | _ -> Prim (V.Array [||]))
  | Ir.Obj c -> Obj { obj_class = c; obj_fields = [||] }
  | Ir.Graph -> Graph_handle (-1)
  | Ir.Unit -> Prim V.Unit

let prim_exn = function
  | Prim p -> p
  | Obj o -> fail "expected a value but found an instance of %s" o.obj_class
  | Graph_handle _ -> fail "expected a value but found a task graph"

let pp ppf = function
  | Prim p -> V.pp ppf p
  | Obj o -> Format.fprintf ppf "<%s instance>" o.obj_class
  | Graph_handle i -> Format.fprintf ppf "<graph %d>" i

(* --- array helpers: every Lime array representation ---------------- *)

let array_length (p : V.t) =
  match p with
  | V.Int_array a -> Array.length a
  | V.Float_array a -> Array.length a
  | V.Bool_array a -> Array.length a
  | V.Array a -> Array.length a
  | V.Bits b -> Bits.Bitvec.length b
  | v -> fail "'.length' on a non-array %s" (V.type_name v)

let check_bounds what n i =
  if i < 0 || i >= n then fail "%s index %d out of bounds (length %d)" what i n

let array_get (p : V.t) i : V.t =
  match p with
  | V.Int_array a ->
    check_bounds "array" (Array.length a) i;
    V.Int a.(i)
  | V.Float_array a ->
    check_bounds "array" (Array.length a) i;
    V.Float a.(i)
  | V.Bool_array a ->
    check_bounds "array" (Array.length a) i;
    V.Bool a.(i)
  | V.Array a ->
    check_bounds "array" (Array.length a) i;
    a.(i)
  | V.Bits b ->
    check_bounds "bit array" (Bits.Bitvec.length b) i;
    V.Bit (Bits.Bitvec.get b i)
  | v -> fail "indexing a non-array %s" (V.type_name v)

let array_set (p : V.t) i (x : V.t) : unit =
  match p, x with
  | V.Int_array a, V.Int x ->
    check_bounds "array" (Array.length a) i;
    a.(i) <- x
  | V.Float_array a, V.Float x ->
    check_bounds "array" (Array.length a) i;
    a.(i) <- x
  | V.Bool_array a, V.Bool x ->
    check_bounds "array" (Array.length a) i;
    a.(i) <- x
  | V.Array a, x ->
    check_bounds "array" (Array.length a) i;
    a.(i) <- x
  | V.Bits _, _ -> fail "value bit arrays are immutable"
  | a, _ -> fail "cannot store into %s" (V.type_name a)

(* Unchecked variants for accesses the relational analysis proved in
   bounds ([Analysis.Symbolic]): the Lime-level trap check is elided.
   OCaml's own array bounds check remains underneath as a safety net —
   a wrong proof surfaces as [Invalid_argument], not memory unsafety. *)

let array_get_unchecked (p : V.t) i : V.t =
  match p with
  | V.Int_array a -> V.Int a.(i)
  | V.Float_array a -> V.Float a.(i)
  | V.Bool_array a -> V.Bool a.(i)
  | V.Array a -> a.(i)
  | V.Bits b -> V.Bit (Bits.Bitvec.get b i)
  | v -> fail "indexing a non-array %s" (V.type_name v)

let array_set_unchecked (p : V.t) i (x : V.t) : unit =
  match p, x with
  | V.Int_array a, V.Int x -> a.(i) <- x
  | V.Float_array a, V.Float x -> a.(i) <- x
  | V.Bool_array a, V.Bool x -> a.(i) <- x
  | V.Array a, x -> a.(i) <- x
  | V.Bits _, _ -> fail "value bit arrays are immutable"
  | a, _ -> fail "cannot store into %s" (V.type_name a)

(* Mutable bit[] arrays are represented as [Array] of [Bit] values so
   they can be written in place; freezing packs them into [Bits]. *)
let new_array (elt : Ir.ty) n : V.t =
  if n < 0 then fail "negative array length %d" n;
  match elt with
  | Ir.I32 -> V.Int_array (Array.make n 0)
  | Ir.F32 -> V.Float_array (Array.make n 0.0)
  | Ir.Bool -> V.Bool_array (Array.make n false)
  | Ir.Bit -> V.Array (Array.make n (V.Bit false))
  | Ir.Enum e -> V.Array (Array.make n (V.Enum { enum = e; tag = 0 }))
  | Ir.Arr _ -> V.Array (Array.make n (V.Array [||]))
  | Ir.Obj _ | Ir.Graph | Ir.Unit -> fail "invalid array element type"

let freeze (p : V.t) : V.t =
  match p with
  | V.Int_array a -> V.Int_array (Array.copy a)
  | V.Float_array a -> V.Float_array (Array.copy a)
  | V.Bool_array a -> V.Bool_array (Array.copy a)
  | V.Array a when
      Array.length a > 0 && (match a.(0) with V.Bit _ -> true | _ -> false) ->
    V.Bits
      (Bits.Bitvec.of_bool_array
         (Array.map (function V.Bit b -> b | _ -> fail "mixed bit array") a))
  | V.Array [||] -> V.Bits (Bits.Bitvec.create 0 false)
  | V.Array a -> V.Array (Array.copy a)
  | V.Bits b -> V.Bits b
  | v -> fail "cannot freeze %s" (V.type_name v)

(* --- operators ------------------------------------------------------ *)

let eval_unop (op : Ir.unop) (a : V.t) : V.t =
  match op, a with
  | Ir.Neg_i, V.Int x -> V.Int (V.norm32 (-x))
  | Ir.Neg_f, V.Float x -> V.Float (V.f32 (-.x))
  | Ir.Not_b, V.Bool b -> V.Bool (not b)
  | Ir.Bnot_i, V.Int x -> V.Int (V.norm32 (lnot x))
  | Ir.I2f, V.Int x -> V.Float (V.f32 (float_of_int x))
  | _, v -> fail "bad unary operand %s" (V.type_name v)

let eval_binop (op : Ir.binop) (a : V.t) (b : V.t) : V.t =
  match op, a, b with
  | Ir.Add_i, V.Int x, V.Int y -> V.Int (V.add32 x y)
  | Ir.Sub_i, V.Int x, V.Int y -> V.Int (V.sub32 x y)
  | Ir.Mul_i, V.Int x, V.Int y -> V.Int (V.mul32 x y)
  | Ir.Div_i, V.Int x, V.Int y ->
    if y = 0 then fail "division by zero" else V.Int (V.div32 x y)
  | Ir.Rem_i, V.Int x, V.Int y ->
    if y = 0 then fail "division by zero" else V.Int (V.rem32 x y)
  | Ir.Add_f, V.Float x, V.Float y -> V.Float (V.add_f32 x y)
  | Ir.Sub_f, V.Float x, V.Float y -> V.Float (V.sub_f32 x y)
  | Ir.Mul_f, V.Float x, V.Float y -> V.Float (V.mul_f32 x y)
  | Ir.Div_f, V.Float x, V.Float y -> V.Float (V.div_f32 x y)
  | Ir.Rem_f, V.Float x, V.Float y -> V.Float (V.f32 (Float.rem x y))
  | Ir.Shl_i, V.Int x, V.Int y -> V.Int (V.shl32 x y)
  | Ir.Shr_i, V.Int x, V.Int y -> V.Int (V.shr32 x y)
  | Ir.And_i, V.Int x, V.Int y -> V.Int (x land y)
  | Ir.Or_i, V.Int x, V.Int y -> V.Int (x lor y)
  | Ir.Xor_i, V.Int x, V.Int y -> V.Int (V.norm32 (x lxor y))
  | Ir.And_b, V.Bool x, V.Bool y -> V.Bool (x && y)
  | Ir.Or_b, V.Bool x, V.Bool y -> V.Bool (x || y)
  | Ir.Xor_b, V.Bool x, V.Bool y -> V.Bool (x <> y)
  | Ir.And_bit, V.Bit x, V.Bit y -> V.Bit (x && y)
  | Ir.Or_bit, V.Bit x, V.Bit y -> V.Bit (x || y)
  | Ir.Xor_bit, V.Bit x, V.Bit y -> V.Bit (x <> y)
  | Ir.Eq, x, y -> V.Bool (V.equal x y)
  | Ir.Neq, x, y -> V.Bool (not (V.equal x y))
  | Ir.Lt_i, V.Int x, V.Int y -> V.Bool (x < y)
  | Ir.Leq_i, V.Int x, V.Int y -> V.Bool (x <= y)
  | Ir.Gt_i, V.Int x, V.Int y -> V.Bool (x > y)
  | Ir.Geq_i, V.Int x, V.Int y -> V.Bool (x >= y)
  | Ir.Lt_f, V.Float x, V.Float y -> V.Bool (x < y)
  | Ir.Leq_f, V.Float x, V.Float y -> V.Bool (x <= y)
  | Ir.Gt_f, V.Float x, V.Float y -> V.Bool (x > y)
  | Ir.Geq_f, V.Float x, V.Float y -> V.Bool (x >= y)
  | _, x, y ->
    fail "bad binary operands %s, %s" (V.type_name x) (V.type_name y)

let const_value (c : Ir.const) : V.t =
  match c with
  | Ir.C_unit -> V.Unit
  | Ir.C_bool b -> V.Bool b
  | Ir.C_i32 i -> V.Int i
  | Ir.C_f32 f -> V.Float f
  | Ir.C_bit b -> V.Bit b
  | Ir.C_enum (e, tag) -> V.Enum { enum = e; tag }
  | Ir.C_bits s -> V.Bits (Bits.Bitvec.of_literal s)

(* --- execution ------------------------------------------------------ *)

exception Return of v

type state = {
  prog : Ir.program;
  hooks : hooks;
  proven : Ir.instr -> bool;
      (** per-access bounds proofs, keyed by physical instruction *)
  mutable graph_counter : int;
  (* Graph handles are transient: created by R_mkgraph and consumed
     by the I_run_graph that lowering emits right after. *)
  mutable pending : (int * (Ir.graph_template * v list)) list;
}

type frame = { slots : v array }

let operand st frame (o : Ir.operand) : v =
  ignore st;
  match o with
  | Ir.O_const c -> Prim (const_value c)
  | Ir.O_var var -> frame.slots.(var.Ir.v_id)

let rec call_fn st (key : string) (args : v list) : v =
  if Intrinsics.is_intrinsic key then
    match Intrinsics.apply key (List.map prim_exn args) with
    | v -> Prim v
    | exception Intrinsics.Error m -> fail "%s" m
  else
  let fn =
    match Ir.find_func st.prog key with
    | Some f -> f
    | None -> fail "no function named %s" key
  in
  if List.length args <> List.length fn.fn_params then
    fail "%s expects %d argument(s), got %d" key (List.length fn.fn_params)
      (List.length args);
  let frame = { slots = Array.make (Ir.var_slot_count fn) (Prim V.Unit) } in
  List.iter2
    (fun (p : Ir.var) a -> frame.slots.(p.v_id) <- a)
    fn.fn_params args;
  match exec_block st frame fn.fn_body with
  | () -> (
    match fn.fn_ret with
    | Ir.Unit -> Prim V.Unit
    | _ -> fail "%s fell off the end without returning a value" key)
  | exception Return v -> v

and exec_block st frame (b : Ir.block) : unit =
  List.iter (exec_instr st frame) b

and exec_instr st frame (i : Ir.instr) : unit =
  match i with
  | Ir.I_let (v, Ir.R_aload (a, idx)) | Ir.I_set (v, Ir.R_aload (a, idx))
    when st.proven i -> (
    (* proven in bounds: skip the per-access trap check *)
    match prim_exn (operand st frame idx) with
    | V.Int n ->
      frame.slots.(v.Ir.v_id) <-
        Prim (array_get_unchecked (prim_exn (operand st frame a)) n)
    | v -> fail "array index must be an int, found %s" (V.type_name v))
  | Ir.I_let (v, rhs) | Ir.I_set (v, rhs) ->
    frame.slots.(v.Ir.v_id) <- eval_rhs st frame rhs
  | Ir.I_astore (a, idx, x) -> (
    let set = if st.proven i then array_set_unchecked else array_set in
    let a = prim_exn (operand st frame a) in
    match prim_exn (operand st frame idx) with
    | V.Int i -> set a i (prim_exn (operand st frame x))
    | v -> fail "array index must be an int, found %s" (V.type_name v))
  | Ir.I_setfield (o, slot, x) -> (
    match operand st frame o with
    | Obj obj -> obj.obj_fields.(slot) <- operand st frame x
    | v -> fail "field write on non-object %s" (Format.asprintf "%a" pp v))
  | Ir.I_if (c, then_, else_) -> (
    match prim_exn (operand st frame c) with
    | V.Bool true -> exec_block st frame then_
    | V.Bool false -> exec_block st frame else_
    | v -> fail "condition must be a boolean, found %s" (V.type_name v))
  | Ir.I_while (cond_block, cond_op, body) ->
    let rec loop () =
      exec_block st frame cond_block;
      match prim_exn (operand st frame cond_op) with
      | V.Bool true ->
        exec_block st frame body;
        loop ()
      | V.Bool false -> ()
      | v -> fail "loop condition must be a boolean, found %s" (V.type_name v)
    in
    loop ()
  | Ir.I_return None -> raise (Return (Prim V.Unit))
  | Ir.I_return (Some o) -> raise (Return (operand st frame o))
  | Ir.I_run_graph (g, blocking) -> (
    match operand st frame g with
    | Graph_handle h -> run_graph_handle st h ~blocking
    | v -> fail "run on a non-graph %s" (Format.asprintf "%a" pp v))
  | Ir.I_do rhs -> ignore (eval_rhs st frame rhs)

and eval_rhs st frame (rhs : Ir.rhs) : v =
  match rhs with
  | Ir.R_op o -> operand st frame o
  | Ir.R_unop (op, a) ->
    Prim (eval_unop op (prim_exn (operand st frame a)))
  | Ir.R_binop (op, a, b) ->
    Prim
      (eval_binop op
         (prim_exn (operand st frame a))
         (prim_exn (operand st frame b)))
  | Ir.R_alen a -> Prim (V.Int (array_length (prim_exn (operand st frame a))))
  | Ir.R_aload (a, i) -> (
    match prim_exn (operand st frame i) with
    | V.Int i -> Prim (array_get (prim_exn (operand st frame a)) i)
    | v -> fail "array index must be an int, found %s" (V.type_name v))
  | Ir.R_call (key, args) ->
    call_fn st key (List.map (operand st frame) args)
  | Ir.R_newarr (elt, n) -> (
    match prim_exn (operand st frame n) with
    | V.Int n -> Prim (new_array elt n)
    | v -> fail "array length must be an int, found %s" (V.type_name v))
  | Ir.R_freeze a -> Prim (freeze (prim_exn (operand st frame a)))
  | Ir.R_newobj (cls, args) -> (
    match Ir.String_map.find_opt cls st.prog.classes with
    | None -> fail "no class named %s" cls
    | Some meta ->
      let fields =
        Array.of_list (List.map (fun (_, ty) -> default_value ty) meta.cm_fields)
      in
      let obj = Obj { obj_class = cls; obj_fields = fields } in
      (match meta.cm_ctor with
      | Some ctor ->
        ignore (call_fn st ctor (obj :: List.map (operand st frame) args))
      | None -> ());
      obj)
  | Ir.R_field (o, slot) -> (
    match operand st frame o with
    | Obj obj -> obj.obj_fields.(slot)
    | v -> fail "field read on non-object %s" (Format.asprintf "%a" pp v))
  | Ir.R_map site -> (
    let args = List.map (fun (o, _) -> operand st frame o) site.map_args in
    match st.hooks.on_map site args with
    | Some result -> result
    | None -> eval_map st site args)
  | Ir.R_reduce site -> (
    let arg = operand st frame site.red_arg in
    match st.hooks.on_reduce site arg with
    | Some result -> result
    | None -> eval_reduce st site arg)
  | Ir.R_mkgraph (uid, operands) ->
    let template = Ir.template_exn st.prog uid in
    let ops = List.map (operand st frame) operands in
    st.graph_counter <- st.graph_counter + 1;
    st.pending <- (st.graph_counter, (template, ops)) :: st.pending;
    Graph_handle st.graph_counter

and run_graph_handle st h ~blocking =
  match List.assoc_opt h st.pending with
  | None -> fail "stale task-graph handle"
  | Some (template, ops) ->
    st.pending <- List.remove_assoc h st.pending;
    let handled =
      match st.hooks.on_run_graph with
      | Some hook -> hook template ops ~blocking
      | None -> false
    in
    if not handled then run_graph_seq st template ops

(* Map semantics: apply the function elementwise; broadcast scalar
   arguments are passed unchanged. *)
and eval_map st (site : Ir.map_site) (args : v list) : v =
  let flags = List.map snd site.map_args in
  let pairs = List.combine args flags in
  let mapped_lengths =
    List.filter_map
      (fun (a, mapped) ->
        if mapped then Some (array_length (prim_exn a)) else None)
      pairs
  in
  let n =
    match mapped_lengths with
    | [] -> fail "map needs at least one array argument"
    | n :: rest ->
      if List.exists (fun m -> m <> n) rest then
        fail "mapped arrays have different lengths";
      n
  in
  let result = new_array site.map_elem_ty n in
  for i = 0 to n - 1 do
    let call_args =
      List.map
        (fun (a, mapped) ->
          if mapped then Prim (array_get (prim_exn a) i) else a)
        pairs
    in
    let r = call_fn st site.map_fn call_args in
    array_set result i (prim_exn r)
  done;
  (* Maps produce value arrays. *)
  Prim (freeze result)

(* Reduce semantics: a left fold. (Timing models may simulate a tree,
   but the value semantics stay the deterministic left fold so every
   backend produces identical results.) *)
and eval_reduce st (site : Ir.reduce_site) (arg : v) : v =
  let p = prim_exn arg in
  let n = array_length p in
  if n = 0 then fail "reduce of an empty array";
  let acc = ref (Prim (array_get p 0)) in
  for i = 1 to n - 1 do
    acc := call_fn st site.red_fn [ !acc; Prim (array_get p i) ]
  done;
  !acc

(* Sequential in-process graph execution (no runtime, no devices). *)
and run_graph_seq st (template : Ir.graph_template) (ops : v list) : unit =
  let take_operands n ops =
    let rec go n acc = function
      | rest when n = 0 -> List.rev acc, rest
      | x :: rest -> go (n - 1) (x :: acc) rest
      | [] -> fail "graph template operand underflow"
    in
    go n [] ops
  in
  (* Pair each node with its dynamic operands. *)
  let nodes_with_ops, rest =
    List.fold_left
      (fun (acc, ops) node ->
        let k = Ir.tnode_operand_count node in
        let mine, ops = take_operands k ops in
        (node, mine) :: acc, ops)
      ([], ops) template.gt_nodes
  in
  if rest <> [] then fail "graph template operand overflow";
  let nodes_with_ops = List.rev nodes_with_ops in
  let source_array, filters, sink_array =
    match nodes_with_ops with
    | (Ir.N_source _, [ arr; _rate ]) :: rest -> (
      let rec split filters = function
        | [ (Ir.N_sink _, [ dest ]) ] -> List.rev filters, dest
        | (Ir.N_filter f, fops) :: rest -> split ((f, fops) :: filters) rest
        | _ -> fail "malformed graph template"
      in
      let filters, dest = split [] rest in
      prim_exn arr, filters, prim_exn dest)
    | _ -> fail "malformed graph template"
  in
  let n = array_length source_array in
  let apply (f : _) fops x =
    match f.Ir.target, fops with
    | Ir.F_static key, [] -> call_fn st key [ x ]
    | Ir.F_instance (cls, m), [ recv ] -> call_fn st (cls ^ "." ^ m) [ recv; x ]
    | _ -> fail "malformed filter operands"
  in
  for i = 0 to n - 1 do
    let x = ref (Prim (array_get source_array i)) in
    List.iter (fun (f, fops) -> x := apply f fops !x) filters;
    array_set sink_array i (prim_exn !x)
  done

let no_proofs : Ir.instr -> bool = fun _ -> false

let call ?(hooks = no_hooks) ?(proven = no_proofs) prog key args =
  call_fn { prog; hooks; proven; graph_counter = 0; pending = [] } key args
