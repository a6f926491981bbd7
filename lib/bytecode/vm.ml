module Ir = Lime_ir.Ir

module I = Lime_ir.Interp
module V = Wire.Value

type v = I.v

exception Vm_error of string
exception Device_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Vm_error s)) fmt
let device_fail fmt = Format.kasprintf (fun s -> raise (Device_error s)) fmt

type graph = {
  g_uid : string;
  g_source : V.t;
  g_rate : int;
  g_filters : (Ir.filter_info * v option) list;
  g_sink : V.t;
}

type hooks = {
  on_map : Insn.map_desc -> v list -> v option;
  on_reduce : Insn.reduce_desc -> v -> v option;
  on_run_graph : (Ir.graph_template -> v list -> blocking:bool -> bool) option;
}

let no_hooks =
  { on_map = (fun _ _ -> None); on_reduce = (fun _ _ -> None); on_run_graph = None }

type result = { value : v; executed : int }

type weights = {
  cycles : Insn.t -> int;
  bytes : Insn.t -> int;
  entry : int;
  intrinsic : string -> int;
}

type lane = { mutable mem_bytes : int; mutable branch_sig : int }

(* A static type. [None] is the unknown type: its values stay boxed. *)
type ty = Ir.ty option

(* The slot classes: ints and booleans (as 0 or 1) unboxed, floats
   flat, and everything else boxed. *)
type cls = Ints | Floats | Boxed

let cls_of : ty -> cls = function
  | Some (Ir.I32 | Ir.Bool) -> Ints
  | Some Ir.F32 -> Floats
  | _ -> Boxed

let cls_index = function Ints -> 0 | Floats -> 1 | Boxed -> 2

(* A function activation's frame: one array per slot class. A slot is a
   local or an operand-stack position, in the array of its static
   type's class. *)
type frame = { ints : int array; floats : float array; boxed : v array }

let no_frame = { ints = [||]; floats = [||]; boxed = [||] }

(* Where a function's values live. Each local has one static type. The
   operand stack has static types before each instruction, top first
   ([None] where unreachable; index [n] is falling off the end). A
   class's array holds its locals, then its typed constants, which a
   frame gets when it is made, then one home per stack depth, then,
   for an int, boolean or float function, the slot its result returns
   in. So every typed operand is a slot. *)
type layout = {
  local_ty : ty array;
  local_at : int array;  (** each local's index in its class's array *)
  stacks : ty list option array;
  const_at : int array;  (** per pc: a typed constant's slot, or -1 *)
  int_consts : (int * int) list;
  float_consts : (int * float) list;
  base : int array;  (** per class: where its stack homes start *)
  size : int array;  (** per class: the length of its array *)
  ret_at : int;  (** the typed return slot, in the return type's class *)
}

(* A bytecode function. The body starts as a stub that specialises the
   code into closures on the first call and replaces itself. A body
   that leaves its result in the typed return slot answers
   [typed_ret]. *)
type fn = {
  code : Compile.code;
  layout : layout;
  params : (frame -> v -> unit) array;  (** binds a host argument *)
  mutable body : state -> frame -> v;
  mutable spare : frame;  (** a frame no activation holds, or [no_frame] *)
  stored : bool array Lazy.t;
      (** per parameter, whether the body stores to it; the launch
          entry, worked out on a launch's first use of the function *)
}

and callee =
  | Fn of fn
  | Intrinsic of (V.t list -> V.t) * Lime_ir.Intrinsics.op option * int
      (** the operation boxed and by tag, and its charge *)
  | Missing of string

(* A device program charges its weights instead of instruction counts
   and keeps its lane's other counters. *)
and program = {
  unit_ : Compile.unit_;
  fns : (string, callee) Hashtbl.t;
  device : (weights * lane) option;
}

(* One run: its hooks, its instruction count and its task graphs in
   flight. Compiled code takes it as an argument rather than closing
   over it, so a hook can re-enter the VM on the same program and that
   run keeps its own count. *)
and state = {
  prog : program;
  hooks : hooks;
  mutable executed : int;
  mutable graph_counter : int;
  mutable pending : (int * (Ir.graph_template * v list)) list;
}

type code = state -> frame -> v

let prepare unit_ = { unit_; fns = Hashtbl.create 16; device = None }

let prepare_device weights lane unit_ =
  { unit_; fns = Hashtbl.create 16; device = Some (weights, lane) }

let on_device st = st.prog.device <> None

let prim = I.prim_exn
let unit_v = I.Prim V.Unit

let as_int (x : v) =
  match x with
  | I.Prim (V.Int i) -> i
  | _ -> fail "expected an int on the operand stack"

let as_bool (x : v) =
  match x with
  | I.Prim (V.Bool b) -> b
  | _ -> fail "expected a boolean on the operand stack"

let as_float (x : v) =
  match x with
  | I.Prim (V.Float f) -> f
  | _ -> fail "expected a float on the operand stack"

(* An int-class value of type [t] (int or boolean), unboxed and boxed. *)
let unbox_int (t : Ir.ty) : v -> int =
  if t = Ir.Bool then fun x -> Bool.to_int (as_bool x) else as_int

let box_int (t : Ir.ty) i : V.t = if t = Ir.Bool then V.Bool (i <> 0) else V.Int i

(* --- typed arithmetic -------------------------------------------------- *)

(* [Wire.Value]'s 32-bit wrapping and f32 rounding, restated so they
   inline here: a build that passes [-opaque] (dune's dev profile)
   never inlines a call into another library, and boxes a float to
   pass it. The operator tests pin both against the interpreter. *)
let[@inline] norm32 v = (v lsl 31) asr 31
let[@inline] f32 x = Int32.float_of_bits (Int32.bits_of_float x)

let division_by_zero () = raise (I.Runtime_error "division by zero")

let[@inline] feq (x : float) y = x = y || (x <> x && y <> y)

(* The int-class operators, exactly as [Interp.eval_binop] computes
   them; booleans are 0 or 1. *)
let[@inline] int_op (op : Ir.binop) (x : int) (y : int) : int =
  match op with
  | Ir.Add_i -> norm32 (x + y)
  | Ir.Sub_i -> norm32 (x - y)
  | Ir.Mul_i -> norm32 (x * y)
  | Ir.Div_i -> if y = 0 then division_by_zero () else norm32 (x / y)
  | Ir.Rem_i -> if y = 0 then division_by_zero () else norm32 (x mod y)
  | Ir.Shl_i -> norm32 (x lsl (y land 31))
  | Ir.Shr_i -> norm32 (norm32 x asr (y land 31))
  | Ir.And_i | Ir.And_b -> x land y
  | Ir.Or_i | Ir.Or_b -> x lor y
  | Ir.Xor_i -> norm32 (x lxor y)
  | Ir.Xor_b -> x lxor y
  | Ir.Eq -> Bool.to_int (x = y)
  | Ir.Neq -> Bool.to_int (x <> y)
  | Ir.Lt_i -> Bool.to_int (x < y)
  | Ir.Leq_i -> Bool.to_int (x <= y)
  | Ir.Gt_i -> Bool.to_int (x > y)
  | Ir.Geq_i -> Bool.to_int (x >= y)
  | _ -> assert false

let[@inline] float_op (op : Ir.binop) (x : float) (y : float) : float =
  match op with
  | Ir.Add_f -> f32 (x +. y)
  | Ir.Sub_f -> f32 (x -. y)
  | Ir.Mul_f -> f32 (x *. y)
  | Ir.Div_f -> f32 (x /. y)
  | Ir.Rem_f -> f32 (Float.rem x y)
  | _ -> assert false

(* Float comparisons; [==] holds for NaN, as [Wire.Value.equal] says *)
let[@inline] float_cmp (op : Ir.binop) (x : float) (y : float) : int =
  match op with
  | Ir.Lt_f -> Bool.to_int (x < y)
  | Ir.Leq_f -> Bool.to_int (x <= y)
  | Ir.Gt_f -> Bool.to_int (x > y)
  | Ir.Geq_f -> Bool.to_int (x >= y)
  | Ir.Eq -> Bool.to_int (feq x y)
  | Ir.Neq -> Bool.to_int (not (feq x y))
  | _ -> assert false

(* A typed operator's closure on slots [i] and [j] into slot [d], one
   per slot class, or [None] where these operand types do not run
   unboxed. *)
let typed_binop (op : Ir.binop) (a : ty) (b : ty) i j d (k : code) : code option =
  match op, a, b with
  | ( ( Ir.Add_i | Ir.Sub_i | Ir.Mul_i | Ir.Div_i | Ir.Rem_i | Ir.Shl_i | Ir.Shr_i
      | Ir.And_i | Ir.Or_i | Ir.Xor_i | Ir.Lt_i | Ir.Leq_i | Ir.Gt_i | Ir.Geq_i | Ir.Eq
      | Ir.Neq ),
      Some Ir.I32,
      Some Ir.I32 )
  | (Ir.And_b | Ir.Or_b | Ir.Xor_b | Ir.Eq | Ir.Neq), Some Ir.Bool, Some Ir.Bool ->
    Some
      (fun st fr ->
        let r = fr.ints in
        r.(d) <- int_op op r.(i) r.(j);
        k st fr)
  | (Ir.Add_f | Ir.Sub_f | Ir.Mul_f | Ir.Div_f | Ir.Rem_f), Some Ir.F32, Some Ir.F32 ->
    Some
      (fun st fr ->
        let r = fr.floats in
        r.(d) <- float_op op r.(i) r.(j);
        k st fr)
  | (Ir.Lt_f | Ir.Leq_f | Ir.Gt_f | Ir.Geq_f | Ir.Eq | Ir.Neq), Some Ir.F32, Some Ir.F32 ->
    Some
      (fun st fr ->
        let r = fr.floats in
        fr.ints.(d) <- float_cmp op r.(i) r.(j);
        k st fr)
  | _ -> None

(* Element [i] of array [p] read or written unboxed: the fast path
   for the representation the element type has, else the boxed access
   with its traps. An unchecked access keeps OCaml's own bounds check. *)
let[@inline] in_bounds checked n i = (not checked) || (i >= 0 && i < n)

let[@inline] get_int want checked (p : v) i =
  match want, p with
  | Ir.I32, I.Prim (V.Int_array xs) when in_bounds checked (Array.length xs) i -> xs.(i)
  | Ir.Bool, I.Prim (V.Bool_array xs) when in_bounds checked (Array.length xs) i ->
    Bool.to_int xs.(i)
  | _ ->
    let get = if checked then I.array_get else I.array_get_unchecked in
    unbox_int want (I.Prim (get (prim p) i))

let[@inline] get_float checked (p : v) i =
  match p with
  | I.Prim (V.Float_array xs) when in_bounds checked (Array.length xs) i -> xs.(i)
  | _ ->
    let get = if checked then I.array_get else I.array_get_unchecked in
    as_float (I.Prim (get (prim p) i))

let[@inline] set_int want checked (p : v) i x =
  match want, p with
  | Ir.I32, I.Prim (V.Int_array xs) when in_bounds checked (Array.length xs) i ->
    xs.(i) <- x
  | Ir.Bool, I.Prim (V.Bool_array xs) when in_bounds checked (Array.length xs) i ->
    xs.(i) <- x <> 0
  | _ ->
    let set = if checked then I.array_set else I.array_set_unchecked in
    set (prim p) i (box_int want x)

let[@inline] set_float checked (p : v) i x =
  match p with
  | I.Prim (V.Float_array xs) when in_bounds checked (Array.length xs) i -> xs.(i) <- x
  | _ ->
    let set = if checked then I.array_set else I.array_set_unchecked in
    set (prim p) i (V.Float x)

(* --- operands ------------------------------------------------------------ *)

(* Where a pushed value lives while its block runs: a constant, or a
   frame slot (a local, or an operand-stack position) in the array of
   its static type's class. *)
type loc = Const of v | Slot of int
type operand = { ty : ty; loc : loc }

(* An operand boxed: a value leaving the frame. *)
let read_boxed (o : operand) : frame -> v =
  match o.loc, cls_of o.ty with
  | Const x, _ -> fun _ -> x
  | Slot i, Boxed -> fun fr -> fr.boxed.(i)
  | Slot i, Floats -> fun fr -> I.Prim (V.Float fr.floats.(i))
  | Slot i, Ints ->
    if o.ty = Some Ir.Bool then fun fr -> I.Prim (V.Bool (fr.ints.(i) <> 0))
    else fun fr -> I.Prim (V.Int fr.ints.(i))

(* An operand as an unboxed int or boolean; one not statically of type
   [want] is read boxed and unboxed, with the trap that has. (There is
   no float reader: a closure's float result is boxed, so code reads
   float slots directly.) *)
let read_int (want : Ir.ty) (o : operand) : frame -> int =
  match o.loc with
  | Slot i when o.ty = Some want -> fun fr -> fr.ints.(i)
  | _ ->
    let r = read_boxed o and unbox = unbox_int want in
    fun fr -> unbox (r fr)

(* Unbox a value into slot [d] of static type [t]. *)
let store_v (t : ty) d : frame -> v -> unit =
  match t with
  | Some ((Ir.I32 | Ir.Bool) as w) ->
    let unbox = unbox_int w in
    fun fr x -> fr.ints.(d) <- unbox x
  | Some Ir.F32 -> fun fr x -> fr.floats.(d) <- as_float x
  | _ -> fun fr x -> fr.boxed.(d) <- x

(* --- emitters: each takes the code that follows it ----------------------- *)

(* An operation whose value arrives boxed, written into slot [d] of
   static type [t]. *)
let boxed_result t d (f : state -> frame -> v) (k : code) : code =
  let set = store_v t d in
  fun st fr ->
    set fr (f st fr);
    k st fr

(* Copy an operand into slot [d] of static type [t]. *)
let copy (o : operand) (t : ty) d (k : code) : code =
  match cls_of t, o.loc with
  | Ints, Slot i when o.ty = t ->
    fun st fr ->
      let r = fr.ints in
      r.(d) <- r.(i);
      k st fr
  | Floats, Slot i when o.ty = t ->
    fun st fr ->
      let r = fr.floats in
      r.(d) <- r.(i);
      k st fr
  | _ ->
    let x = read_boxed o in
    boxed_result t d (fun _ fr -> x fr) k

(* A binary operation into slot [d] of static type [t]. Typed operands
   run unboxed; untyped ones take the boxed path through
   [Interp.eval_binop], which unwraps the right operand first, as the
   VM always has. *)
let binop op (a : operand) (b : operand) t d (k : code) : code =
  let typed =
    match a.loc, b.loc with
    | Slot i, Slot j -> typed_binop op a.ty b.ty i j d k
    | _ -> None
  in
  match typed with
  | Some code -> code
  | None ->
    let a = read_boxed a and b = read_boxed b in
    boxed_result t d
      (fun _ fr ->
        let y = prim (b fr) in
        I.Prim (I.eval_binop op (prim (a fr)) y))
      k

let unop op (a : operand) t d (k : code) : code =
  match op, a.ty, a.loc with
  | Ir.Neg_i, Some Ir.I32, Slot i ->
    fun st fr ->
      let r = fr.ints in
      r.(d) <- norm32 (-r.(i));
      k st fr
  | Ir.Bnot_i, Some Ir.I32, Slot i ->
    fun st fr ->
      let r = fr.ints in
      r.(d) <- norm32 (lnot r.(i));
      k st fr
  | Ir.Not_b, Some Ir.Bool, Slot i ->
    fun st fr ->
      let r = fr.ints in
      r.(d) <- 1 - r.(i);
      k st fr
  | Ir.Neg_f, Some Ir.F32, Slot i ->
    fun st fr ->
      let r = fr.floats in
      r.(d) <- f32 (-.r.(i));
      k st fr
  | Ir.I2f, Some Ir.I32, Slot i ->
    fun st fr ->
      fr.floats.(d) <- f32 (float_of_int fr.ints.(i));
      k st fr
  | _ ->
    let a = read_boxed a in
    boxed_result t d (fun _ fr -> I.Prim (I.eval_unop op (prim (a fr)))) k

(* An array load into slot [d] of static type [t], the element type.
   The index is unwrapped before the array, as it always was. *)
let aload checked (a : operand) (idx : operand) t d (k : code) : code =
  match t, a.loc, idx with
  | Some ((Ir.I32 | Ir.Bool) as w), Slot ai, { ty = Some Ir.I32; loc = Slot ii } ->
    fun st fr ->
      fr.ints.(d) <- get_int w checked fr.boxed.(ai) fr.ints.(ii);
      k st fr
  | Some Ir.F32, Slot ai, { ty = Some Ir.I32; loc = Slot ii } ->
    fun st fr ->
      fr.floats.(d) <- get_float checked fr.boxed.(ai) fr.ints.(ii);
      k st fr
  | _ ->
    let get = if checked then I.array_get else I.array_get_unchecked in
    let a = read_boxed a and idx = read_int Ir.I32 idx in
    boxed_result t d
      (fun _ fr ->
        let i = idx fr in
        I.Prim (get (prim (a fr)) i))
      k

(* An array store. The value is unwrapped first, then the index, then
   the array, as they always were. *)
let astore checked (a : operand) (idx : operand) (x : operand) (k : code) : code =
  let elem = match a.ty with Some (Ir.Arr t) when x.ty = Some t -> Some t | _ -> None in
  match elem, a.loc, idx, x.loc with
  | Some ((Ir.I32 | Ir.Bool) as w), Slot ai, { ty = Some Ir.I32; loc = Slot ii }, Slot xi
    ->
    fun st fr ->
      let r = fr.ints in
      set_int w checked fr.boxed.(ai) r.(ii) r.(xi);
      k st fr
  | Some Ir.F32, Slot ai, { ty = Some Ir.I32; loc = Slot ii }, Slot xi ->
    fun st fr ->
      set_float checked fr.boxed.(ai) fr.ints.(ii) fr.floats.(xi);
      k st fr
  | _ ->
    let set = if checked then I.array_set else I.array_set_unchecked in
    let a = read_boxed a and idx = read_int Ir.I32 idx and x = read_boxed x in
    fun st fr ->
      let x = prim (x fr) in
      let i = idx fr in
      set (prim (a fr)) i x;
      k st fr

(* The slots of a [Math] intrinsic's operands, when each is a float
   slot and there are as many as it takes. *)
let float_slots (op : Lime_ir.Intrinsics.op) (args : operand list) =
  match Lime_ir.Intrinsics.arity op, args with
  | 1, [ { ty = Some Ir.F32; loc = Slot i } ] -> Some [ i ]
  | 2, [ { ty = Some Ir.F32; loc = Slot i }; { ty = Some Ir.F32; loc = Slot j } ] ->
    Some [ i; j ]
  | _ -> None

(* An intrinsic's result [x] into float slot [d], charging [charge]. *)
let[@inline] put st fr charge d x (k : code) =
  st.executed <- st.executed + charge;
  fr.floats.(d) <- x;
  k st fr

(* A [Math] intrinsic on float slots into slot [d], charging [charge]:
   one closure per operation, each calling its float primitive on
   unboxed floats and rounding as [Lime_ir.Intrinsics.apply] does. *)
let intrinsic_call (op : Lime_ir.Intrinsics.op) charge slots d (k : code) : code =
  let module M = Lime_ir.Intrinsics in
  match op, slots with
  | M.Sqrt, [ i ] -> fun st fr -> put st fr charge d (f32 (sqrt fr.floats.(i))) k
  | M.Exp, [ i ] -> fun st fr -> put st fr charge d (f32 (exp fr.floats.(i))) k
  | M.Log, [ i ] -> fun st fr -> put st fr charge d (f32 (log fr.floats.(i))) k
  | M.Sin, [ i ] -> fun st fr -> put st fr charge d (f32 (sin fr.floats.(i))) k
  | M.Cos, [ i ] -> fun st fr -> put st fr charge d (f32 (cos fr.floats.(i))) k
  | M.Abs, [ i ] -> fun st fr -> put st fr charge d (f32 (Float.abs fr.floats.(i))) k
  | M.Floor, [ i ] -> fun st fr -> put st fr charge d (f32 (Float.floor fr.floats.(i))) k
  | M.Pow, [ i; j ] ->
    fun st fr -> put st fr charge d (f32 (fr.floats.(i) ** fr.floats.(j))) k
  | M.Min, [ i; j ] ->
    fun st fr -> put st fr charge d (f32 (Float.min fr.floats.(i) fr.floats.(j))) k
  | M.Max, [ i; j ] ->
    fun st fr -> put st fr charge d (f32 (Float.max fr.floats.(i) fr.floats.(j))) k
  | _ -> invalid_arg "Vm.intrinsic_call"

(* --- static types -------------------------------------------------------- *)

(* Operands an instruction pops, and values it pushes. *)
let stack_effect (i : Insn.t) =
  match i with
  | Insn.CONST _ | Insn.LOAD _ | Insn.NEW _ -> 0, 1
  | Insn.RETVOID | Insn.JMP _ -> 0, 0
  | Insn.STORE _ | Insn.POP | Insn.RET | Insn.JMPF _ | Insn.RUNGRAPH _ -> 1, 0
  | Insn.DUP -> 1, 2
  | Insn.UNOP _ | Insn.ALEN | Insn.NEWARR _ | Insn.FREEZE | Insn.GETFIELD _
  | Insn.REDUCE _ ->
    1, 1
  | Insn.BINOP _ | Insn.ALOAD | Insn.ALOAD_U -> 2, 1
  | Insn.PUTFIELD _ -> 2, 0
  | Insn.ASTORE | Insn.ASTORE_U -> 3, 0
  | Insn.CALL (_, n) | Insn.MKGRAPH (_, n) -> n, 1
  | Insn.MAP d -> List.length d.Insn.bm_flags, 1

(* IR operators are monomorphic, so the op gives its result's type. *)
let unop_ty : Ir.unop -> Ir.ty = function
  | Ir.Neg_i | Ir.Bnot_i -> Ir.I32
  | Ir.Neg_f | Ir.I2f -> Ir.F32
  | Ir.Not_b -> Ir.Bool

let binop_ty : Ir.binop -> Ir.ty = function
  | Ir.Add_i | Ir.Sub_i | Ir.Mul_i | Ir.Div_i | Ir.Rem_i | Ir.Shl_i | Ir.Shr_i
  | Ir.And_i | Ir.Or_i | Ir.Xor_i ->
    Ir.I32
  | Ir.Add_f | Ir.Sub_f | Ir.Mul_f | Ir.Div_f | Ir.Rem_f -> Ir.F32
  | Ir.And_bit | Ir.Or_bit | Ir.Xor_bit -> Ir.Bit
  | Ir.And_b | Ir.Or_b | Ir.Xor_b | Ir.Eq | Ir.Neq | Ir.Lt_i | Ir.Leq_i | Ir.Gt_i
  | Ir.Geq_i | Ir.Lt_f | Ir.Leq_f | Ir.Gt_f | Ir.Geq_f ->
    Ir.Bool

(* The operand stack after [i], from the one before it. Intrinsics win
   over functions and return a float. *)
let step (u : Compile.unit_) (local_ty : ty array) (i : Insn.t) (s : ty list) =
  let rec drop k s = if k = 0 then s else drop (k - 1) (List.tl s) in
  let rest = drop (fst (stack_effect i)) s in
  let top = match s with t :: _ -> t | [] -> None in
  match i with
  | Insn.CONST k -> Some (Ir.operand_ty (Ir.O_const k)) :: rest
  | Insn.LOAD l -> local_ty.(l) :: rest
  | Insn.DUP -> top :: s
  | Insn.UNOP op -> Some (unop_ty op) :: rest
  | Insn.BINOP op -> Some (binop_ty op) :: rest
  | Insn.ALOAD | Insn.ALOAD_U ->
    (match s with _ :: Some (Ir.Arr t) :: _ -> Some t | _ -> None) :: rest
  | Insn.ALEN -> Some Ir.I32 :: rest
  | Insn.NEWARR t -> Some (Ir.Arr t) :: rest
  | Insn.FREEZE -> top :: rest
  | Insn.GETFIELD slot ->
    let field =
      match top with
      | Some (Ir.Obj cls) -> (
        match Ir.String_map.find_opt cls u.u_program.Ir.classes with
        | Some meta -> Option.map snd (List.nth_opt meta.Ir.cm_fields slot)
        | None -> None)
      | _ -> None
    in
    field :: rest
  | Insn.NEW cls -> Some (Ir.Obj cls) :: rest
  | Insn.CALL (key, _) ->
    (if Lime_ir.Intrinsics.is_intrinsic key then Some Ir.F32
     else
       Option.map
         (fun (c : Compile.code) -> c.c_ret)
         (Ir.String_map.find_opt key u.u_funcs))
    :: rest
  | Insn.MAP d -> Some (Ir.Arr d.bm_elem_ty) :: rest
  | Insn.REDUCE d -> Some d.br_elem_ty :: rest
  | Insn.MKGRAPH _ -> Some Ir.Graph :: rest
  | Insn.STORE _ | Insn.POP | Insn.RET | Insn.RETVOID | Insn.JMP _ | Insn.JMPF _
  | Insn.ASTORE | Insn.ASTORE_U | Insn.PUTFIELD _ | Insn.RUNGRAPH _ ->
    rest

(* The operand stack's static types before each instruction, under the
   locals' types; whether every join agrees on them; and the typed
   locals a [store] of another type demotes. The depth must agree at
   every join. An instruction that would underflow traps, so nothing
   follows it. *)
let stack_types u (c : Compile.code) local_ty =
  let insns = c.c_insns in
  let n = Array.length insns in
  let stacks = Array.make (n + 1) None in
  let agree = ref true and demoted = ref [] in
  let rec visit pc s =
    let pc = min pc n in
    match stacks.(pc) with
    | Some s' ->
      if pc < n then begin
        if List.compare_lengths s s' <> 0 then
          fail "%s: inconsistent operand stack depth at %d" c.c_key pc;
        if s <> s' then agree := false
      end
    | None ->
      stacks.(pc) <- Some s;
      if pc < n && List.length s >= fst (stack_effect insns.(pc)) then begin
        (match insns.(pc), s with
        | Insn.STORE l, t :: _ when local_ty.(l) <> None && t <> local_ty.(l) ->
          demoted := l :: !demoted
        | _ -> ());
        let s' = step u local_ty insns.(pc) s in
        match insns.(pc) with
        | Insn.RET | Insn.RETVOID -> ()
        | Insn.JMP t -> visit t s'
        | Insn.JMPF t ->
          visit (pc + 1) s';
          visit t s'
        | _ -> visit (pc + 1) s'
      end
  in
  visit 0 [];
  stacks, !agree, !demoted

(* The declared type of each local, when the code is the IR function's
   of its key: a local's slot is its variable's id. *)
let ir_local_types (u : Compile.unit_) (c : Compile.code) =
  match Ir.find_func u.u_program c.c_key with
  | Some f
    when Ir.var_slot_count f = c.c_slots && List.length f.fn_params = c.c_params ->
    let tys = Array.make c.c_slots None and seen = Array.make c.c_slots false in
    Ir.iter_vars
      (fun v ->
        let t = Some v.Ir.v_ty in
        if not seen.(v.v_id) then begin
          seen.(v.v_id) <- true;
          tys.(v.v_id) <- t
        end
        else if tys.(v.v_id) <> t then tys.(v.v_id) <- None)
      f;
    Some tys
  | _ -> None

(* Type a function's slots. Demotions repeat until no store disagrees
   with its local. Code the IR does not describe, and code whose stack
   types disagree at a join, gets the unknown type everywhere: it runs
   fully boxed. *)
let layout u (c : Compile.code) =
  let rec settle local_ty =
    match stack_types u c local_ty with
    | stacks, agree, [] -> if agree then Some (local_ty, stacks) else None
    | _, _, demoted ->
      List.iter (fun l -> local_ty.(l) <- None) demoted;
      settle local_ty
  in
  let local_ty, stacks =
    match Option.bind (ir_local_types u c) settle with
    | Some typed -> typed
    | None ->
      let local_ty = Array.make (max c.c_slots c.c_params) None in
      let stacks, _, _ = stack_types u c local_ty in
      local_ty, Array.map (Option.map (List.map (fun _ -> None))) stacks
  in
  let count = Array.make 3 0 in
  let next_slot t =
    let k = cls_index (cls_of t) in
    count.(k) <- count.(k) + 1;
    count.(k) - 1
  in
  let local_at = Array.map next_slot local_ty in
  let int_consts = ref [] and float_consts = ref [] in
  let const_at =
    Array.mapi
      (fun pc i ->
        match i, stacks.(pc + 1) with
        | Insn.CONST k, Some (t :: _) when stacks.(pc) <> None && cls_of t <> Boxed -> (
          let at = next_slot t in
          (match I.const_value k with
          | V.Float x -> float_consts := (at, x) :: !float_consts
          | x -> int_consts := (at, unbox_int (Option.get t) (I.Prim x)) :: !int_consts);
          at)
        | _ -> -1)
      c.c_insns
  in
  let size = Array.copy count in
  Array.iter
    (Option.iter (fun s ->
         let depth = List.length s in
         List.iteri
           (fun j t ->
             let k = cls_index (cls_of t) in
             size.(k) <- max size.(k) (count.(k) + depth - j))
           s))
    stacks;
  let ret_at =
    match cls_of (Some c.c_ret) with
    | Boxed -> -1
    | cls ->
      let k = cls_index cls in
      size.(k) <- size.(k) + 1;
      size.(k) - 1
  in
  {
    local_ty;
    local_at;
    stacks;
    const_at;
    int_consts = !int_consts;
    float_consts = !float_consts;
    base = count;
    size;
    ret_at;
  }

(* --- device programs -------------------------------------------------------- *)

(* A device runs no allocation, object, nested kernel or task graph:
   those trap where they execute. *)
let runs_on_device (i : Insn.t) =
  match i with
  | Insn.NEWARR _ | Insn.FREEZE | Insn.NEW _ | Insn.GETFIELD _ | Insn.PUTFIELD _
  | Insn.MAP _ | Insn.REDUCE _ | Insn.MKGRAPH _ | Insn.RUNGRAPH _ ->
    false
  | _ -> true

let device_trap (i : Insn.t) : code =
  match i with
  | Insn.PUTFIELD _ -> fun _ _ -> device_fail "field write on the device"
  | Insn.RUNGRAPH _ -> fun _ _ -> device_fail "nested graph on the device"
  | _ -> fun _ _ -> device_fail "construct not supported on the device (should be excluded)"

(* --- frames ---------------------------------------------------------------- *)

(* Each function keeps one spare frame. An activation takes it, or a
   new one while another activation holds it (recursion, a re-entrant
   hook). A normal return clears the boxed slots, so a spare frame
   keeps no value alive, and gives the frame back; an exception drops
   it. *)
let new_frame (f : fn) =
  let l = f.layout in
  let fr =
    {
      ints = Array.make l.size.(0) 0;
      floats = Array.make l.size.(1) 0.0;
      boxed = Array.make l.size.(2) unit_v;
    }
  in
  List.iter (fun (at, x) -> fr.ints.(at) <- x) l.int_consts;
  List.iter (fun (at, x) -> fr.floats.(at) <- x) l.float_consts;
  fr

let take (f : fn) =
  let fr = f.spare in
  if fr == no_frame then new_frame f
  else begin
    f.spare <- no_frame;
    fr
  end

let release (f : fn) fr =
  let b = fr.boxed in
  if Array.length b > 0 then Array.fill b 0 (Array.length b) unit_v;
  f.spare <- fr

(* Pair a template's nodes with the operands of one start: the source
   array and rate, each filter's receiver (an instance filter takes
   one, a static filter none) and the sink array. The runtime's graph
   hook and the VM's own inline run both run what this returns. *)
let bind_graph (template : Ir.graph_template) (ops : v list) : graph =
  let take k ops =
    let rec go k acc = function
      | rest when k = 0 -> List.rev acc, rest
      | x :: rest -> go (k - 1) (x :: acc) rest
      | [] -> fail "graph template operand underflow"
    in
    go k [] ops
  in
  let nodes, rest =
    List.fold_left
      (fun (acc, ops) node ->
        let mine, ops = take (Ir.tnode_operand_count node) ops in
        (node, mine) :: acc, ops)
      ([], ops) template.Ir.gt_nodes
  in
  if rest <> [] then fail "graph template operand overflow";
  match List.rev nodes with
  | (Ir.N_source _, [ arr; rate ]) :: rest ->
    let rec split fs = function
      | [ (Ir.N_sink _, [ dest ]) ] -> List.rev fs, dest
      | (Ir.N_filter f, []) :: rest -> split ((f, None) :: fs) rest
      | (Ir.N_filter f, [ recv ]) :: rest -> split ((f, Some recv) :: fs) rest
      | _ -> fail "malformed graph template"
    in
    let fs, dest = split [] rest in
    {
      g_uid = template.Ir.gt_uid;
      g_source = prim arr;
      g_rate = (match prim rate with V.Int r -> r | _ -> 1);
      g_filters = fs;
      g_sink = prim dest;
    }
  | _ -> fail "malformed graph template"

(* What a body answers when it left its result in its function's typed
   return slot ([layout.ret_at]): a block that is nothing else. *)
let typed_ret : v = I.Obj { I.obj_class = "(typed return)"; obj_fields = [||] }

(* What [f]'s body answered in frame [fr], as a value: the typed return
   slot boxed, or the boxed result. Only the host and hooks box a
   typed result. *)
let value_of (f : fn) fr (v : v) : V.t =
  if v != typed_ret then prim v
  else
    let r = f.layout.ret_at in
    match f.code.c_ret with
    | Ir.F32 -> V.Float fr.floats.(r)
    | t -> box_int t fr.ints.(r)

let result_of (f : fn) fr (v : v) : v = if v != typed_ret then v else I.Prim (value_of f fr v)

(* Bind a host call's arguments, from the [j]th on. *)
let rec bind_params (f : fn) fr j = function
  | [] -> ()
  | a :: rest ->
    f.params.(j) fr a;
    bind_params f fr (j + 1) rest

(* Bind argument [j] of a call to [g] from the caller's operand. *)
let bind_arg (g : fn) j (a : operand) : frame -> frame -> unit =
  let t = g.layout.local_ty.(j) and at = g.layout.local_at.(j) in
  match cls_of t, a.loc with
  | Ints, Slot i when a.ty = t -> fun fr callee -> callee.ints.(at) <- fr.ints.(i)
  | Floats, Slot i when a.ty = t ->
    fun fr callee -> callee.floats.(at) <- fr.floats.(i)
  | _ ->
    let x = read_boxed a and set = store_v t at in
    fun fr callee -> set callee (x fr)

(* --- launches ---------------------------------------------------------------

   A launch applies functions to a stream of elements on frames of its
   own and one run state. It runs stages: a map or a fold is one, a
   chain of filters one per filter. Each parameter of a stage has a
   source: a value bound once, before element 0 (a receiver, a scalar,
   an unmapped array), element i of an array, or the flow: what the
   stage before answered, the previous stage of a chain or, for a lone
   stage, itself on the element before, which makes a fold. Each
   element binds its array elements and its flow, and again any
   parameter the body stores to. Element i of a flat array goes
   straight into its typed slot, and a typed result flows from the
   return slot straight into the next parameter or a flat result array.
   [on_elem] hears each element's count once the element completes, so
   a trap at element k leaves exactly elements 0 to k-1 reported.

   A launch from outside ([fresh]) starts every element on a fresh run
   state, as a call does; a site or graph the VM runs itself counts
   into its own run. A callee that is not a function of the stage's
   arity (an intrinsic, a missing function) is called boxed, element by
   element, and traps where such a call always trapped. *)

let[@inline] restart st =
  st.executed <- 0;
  st.graph_counter <- 0;
  st.pending <- []

(* Bind parameter [j] of [f] in [fr] to element i of the array [a]. *)
let elem_binder (f : fn) fr j (a : V.t) : int -> v -> unit =
  let at = f.layout.local_at.(j) in
  match f.layout.local_ty.(j), a with
  | Some Ir.I32, V.Int_array xs -> fun i _ -> fr.ints.(at) <- xs.(i)
  | Some Ir.Bool, V.Bool_array xs -> fun i _ -> fr.ints.(at) <- Bool.to_int xs.(i)
  | Some Ir.F32, V.Float_array xs -> fun i _ -> fr.floats.(at) <- xs.(i)
  | _ ->
    let set = f.params.(j) in
    fun i _ -> set fr (I.Prim (I.array_get a i))

(* Bind parameter [j] of [f] in [fr] to what [g]'s body answered in
   [src]: a typed result slot to slot. *)
let bind_result (g : fn) src (v : v) (f : fn) fr j =
  let at = f.layout.local_at.(j) and r = g.layout.ret_at in
  match v == typed_ret, g.code.c_ret, f.layout.local_ty.(j) with
  | true, Ir.I32, Some Ir.I32 | true, Ir.Bool, Some Ir.Bool -> fr.ints.(at) <- src.ints.(r)
  | true, Ir.F32, Some Ir.F32 -> fr.floats.(at) <- src.floats.(r)
  | _ -> f.params.(j) fr (result_of g src v)

type source = Whole of v | Each of V.t | Flow

type stage = {
  s_callee : callee;
  s_fn : fn option;  (** [s_callee], when a function of the stage's arity *)
  s_fr : frame;
  s_sources : source array;
  mutable s_each : (int -> v -> unit) array;
      (** what element i binds, given the flow into the stage *)
}

let stage (c : callee) (sources : source list) =
  let s_sources = Array.of_list sources in
  match c with
  | Fn f when f.code.c_params = Array.length s_sources ->
    { s_callee = c; s_fn = Some f; s_fr = new_frame f; s_sources; s_each = [||] }
  | _ -> { s_callee = c; s_fn = None; s_fr = no_frame; s_sources; s_each = [||] }

(* A filter's stage: its receiver, for an instance filter, then the
   element from [elem]. *)
let filter_stage (c, receiver) elem =
  stage c (match receiver with Some r -> [ Whole r; elem ] | None -> [ elem ])

(* What stage [s] answered, as a value, and boxed. *)
let value_out (s : stage) (v : v) : V.t =
  match s.s_fn with Some f -> value_of f s.s_fr v | None -> prim v

let flow_out (s : stage) (v : v) : v =
  match s.s_fn with Some f -> result_of f s.s_fr v | None -> v

(* Bind the launch's whole values once, and give every stage its
   element binders. The flow into stage k comes from stage k-1, into
   stage 0 from the last one. *)
let bind_stages (stages : stage array) =
  let n = Array.length stages in
  Array.iteri
    (fun k s ->
      match s.s_fn with
      | None -> ()
      | Some f ->
        let prev = stages.((k + n - 1) mod n) and fr = s.s_fr in
        let stored = Lazy.force f.stored in
        let bind j = function
          | Whole x ->
            f.params.(j) fr x;
            if stored.(j) then Some (fun _ _ -> f.params.(j) fr x) else None
          | Each a -> Some (elem_binder f fr j a)
          | Flow -> (
            match prev.s_fn with
            | Some g -> Some (fun _ v -> bind_result g prev.s_fr v f fr j)
            | None -> Some (fun _ v -> f.params.(j) fr v))
        in
        s.s_each <- Array.of_list (List.filter_map Fun.id (Array.to_list (Array.mapi bind s.s_sources))))
    stages

(* Write element k of [out], an array of at least [len] elements, from
   what the last stage answered. *)
let writer (stages : stage array) (out : V.t) ~len : int -> v -> unit =
  let last = stages.(Array.length stages - 1) in
  let boxed k v = I.array_set out k (value_out last v) in
  match last.s_fn, out with
  | Some f, V.Int_array o when f.code.c_ret = Ir.I32 && Array.length o >= len ->
    let r = f.layout.ret_at and fr = last.s_fr in
    fun k v -> if v == typed_ret then o.(k) <- fr.ints.(r) else boxed k v
  | Some f, V.Bool_array o when f.code.c_ret = Ir.Bool && Array.length o >= len ->
    let r = f.layout.ret_at and fr = last.s_fr in
    fun k v -> if v == typed_ret then o.(k) <- fr.ints.(r) <> 0 else boxed k v
  | Some f, V.Float_array o when f.code.c_ret = Ir.F32 && Array.length o >= len ->
    let r = f.layout.ret_at and fr = last.s_fr in
    fun k v -> if v == typed_ret then o.(k) <- fr.floats.(r) else boxed k v
  | _ -> boxed

(* A launch's fresh result array as a value: a flat one already is. *)
let frozen (out : V.t) =
  match out with V.Int_array _ | V.Float_array _ | V.Bool_array _ -> out | _ -> I.freeze out

(* The length of a map site's mapped arguments, which must agree. *)
let mapped_length (args : (v * bool) list) =
  match
    List.filter_map
      (fun (a, mapped) -> if mapped then Some (I.array_length (prim a)) else None)
      args
  with
  | [] -> fail "map needs at least one array argument"
  | n :: rest ->
    if List.exists (fun m -> m <> n) rest then fail "mapped arrays have different lengths";
    n

(* Look [key] up once per program. Intrinsics win over functions, as
   they always have; a missing function traps only when called. *)
let rec resolve p key : callee =
  match Hashtbl.find_opt p.fns key with
  | Some c -> c
  | None ->
    let c =
      if Lime_ir.Intrinsics.is_intrinsic key then
        let charge = match p.device with None -> 1 | Some (w, _) -> w.intrinsic key in
        Intrinsic (Lime_ir.Intrinsics.resolve key, Lime_ir.Intrinsics.op key, charge)
      else
        match Ir.String_map.find_opt key p.unit_.Compile.u_funcs with
        | None -> Missing key
        | Some code ->
          let l = layout p.unit_ code in
          let f =
            {
              code;
              layout = l;
              params =
                Array.init code.c_params (fun j ->
                    store_v l.local_ty.(j) l.local_at.(j));
              body = (fun _ _ -> unit_v);
              spare = no_frame;
              stored =
                lazy
                  (let s = Array.make code.c_params false in
                   Array.iter
                     (function
                       | Insn.STORE j when j < code.c_params -> s.(j) <- true
                       | _ -> ())
                     code.c_insns;
                   s);
            }
          in
          f.body <-
            (fun st fr ->
              let body = specialise p f in
              f.body <- body;
              body st fr);
          Fn f
    in
    Hashtbl.add p.fns key c;
    c

(* Call [c] on a list of arguments, with the arity check a call has
   always made: a run, a boxed launch element, and a call instruction
   to anything but a function of its arity. A device program traps
   with the device's text. *)
and invoke st (c : callee) (args : v list) : v =
  match c with
  | Intrinsic (apply, _, charge) -> (
    (* one dispatch charge for the intrinsic call, or its device cycles *)
    st.executed <- st.executed + charge;
    match apply (List.map prim args) with
    | v -> I.Prim v
    | exception Lime_ir.Intrinsics.Error m ->
      if on_device st then device_fail "%s" m else fail "%s" m)
  | Missing key ->
    if on_device st then device_fail "no device function %s" key
    else fail "no function named %s" key
  | Fn f ->
    let n = List.length args and k = f.code.c_key and params = f.code.c_params in
    if n <> params then
      if on_device st then device_fail "%s takes %d argument(s), got %d" k params n
      else fail "%s expects %d argument(s), got %d" k params n;
    let fr = take f in
    bind_params f fr 0 args;
    let v = result_of f fr (f.body st fr) in
    release f fr;
    v

(* Element [i] through stages [k] on, [v] flowing into stage [k];
   answers what the last stage answered. *)
and run_stages st (stages : stage array) i k (v : v) : v =
  if k = Array.length stages then v
  else
    let s = stages.(k) in
    let v =
      match s.s_fn with
      | Some f ->
        let each = s.s_each in
        for j = 0 to Array.length each - 1 do
          each.(j) i v
        done;
        f.body st s.s_fr
      | None ->
        let prev = stages.((k + Array.length stages - 1) mod Array.length stages) in
        let arg = function
          | Whole x -> x
          | Each a -> I.Prim (I.array_get a i)
          | Flow -> flow_out prev v
        in
        invoke st s.s_callee (List.map arg (Array.to_list s.s_sources))
    in
    run_stages st stages i (k + 1) v

(* Elements [first] to [first + len - 1] through [stages], [v] flowing
   into the first; [write k] takes element [first + k]'s answer.
   Answers the last element's. *)
and run_launch st ~fresh stages ~first ~len on_elem write (v : v) : v =
  bind_stages stages;
  let v = ref v in
  for k = 0 to len - 1 do
    if fresh then restart st;
    let before = st.executed in
    v := run_stages st stages (first + k) 0 !v;
    on_elem (st.executed - before);
    write k !v
  done;
  !v

(* [c] over elements [off] to [off + len - 1] of the mapped arguments
   (flag [true]), the others passed whole, into a fresh array of
   [elem]. *)
and launch_map st ~fresh c elem (args : (v * bool) list) ~off ~len on_elem : V.t =
  let out = I.new_array elem len in
  if len > 0 then begin
    let sources = List.map (fun (a, mapped) -> if mapped then Each (prim a) else Whole a) args in
    let stages = [| stage c sources |] in
    ignore (run_launch st ~fresh stages ~first:off ~len on_elem (writer stages out ~len) unit_v)
  end;
  frozen out

(* The left fold of [c] over elements [off] to [off + len - 1] of [a],
   [len] at least 1: the accumulator is the stage's own flow. *)
and launch_fold st ~fresh c (a : V.t) ~off ~len on_elem : v =
  let first = I.Prim (I.array_get a off) in
  if len = 1 then first
  else
    let stages = [| stage c [ Flow; Each a ] |] in
    let v =
      run_launch st ~fresh stages ~first:(off + 1) ~len:(len - 1) on_elem
        (fun _ _ -> ()) first
    in
    flow_out stages.(0) v

(* Every element of [input] through a chain of filters into [into]. *)
and launch_chain st ~fresh filters on_elem (input : V.t) ~(into : V.t) =
  let n = I.array_length input in
  match filters with
  | [] ->
    for i = 0 to n - 1 do
      I.array_set into i (I.array_get input i)
    done
  | _ when n = 0 -> ()
  | _ ->
    let stages =
      Array.of_list
        (List.mapi (fun k f -> filter_stage f (if k = 0 then Each input else Flow)) filters)
    in
    ignore (run_launch st ~fresh stages ~first:0 ~len:n on_elem (writer stages into ~len:n) unit_v)

and run_graph st h ~blocking =
  match List.assoc_opt h st.pending with
  | None -> fail "stale task-graph handle"
  | Some (template, ops) ->
    st.pending <- List.remove_assoc h st.pending;
    let handled =
      match st.hooks.on_run_graph with
      | Some hook -> hook template ops ~blocking
      | None -> false
    in
    (* unhandled, every filter applies inline on the VM (the
       all-bytecode configuration of section 4.1) *)
    if not handled then
      let g = bind_graph template ops in
      let filter ((f : Ir.filter_info), receiver) =
        ( resolve st.prog
            (match f.Ir.target with
            | Ir.F_static key -> key
            | Ir.F_instance (cls, m) -> cls ^ "." ^ m),
          receiver )
      in
      launch_chain st ~fresh:false (List.map filter g.g_filters) ignore g.g_source
        ~into:g.g_sink

(* Specialise one function into closures, one chain per basic block.

   The stack depth and static types at every instruction are known, so
   each operand-stack position is a frame slot after the locals, in the
   array of its value's class. Within a block the stack is symbolic: a
   [load] or [const] pushes the operand itself and its consumer reads
   the local or the constant directly, and an operation followed by a
   [store] to a local of its class writes straight into that local. A
   deferred [load] of a local is copied into its stack slot before that
   local is written, and every operand is in its stack slot at a block
   boundary.

   Counts are charged per block, when the block leaves: a run's count
   leaves [run] only on a normal return, so this is exactly the
   per-instruction count. Callees, classes and templates resolve here,
   once; what fails to resolve traps when executed, with the text and
   at the point the instruction always trapped.

   A device program charges each instruction its weight instead of 1,
   so a block's sum is the sum of its operations' weights. It also
   charges a function's entry, adds a block's memory bytes to the lane
   when the block starts, folds every conditional branch into the
   lane's branch signature, and traps with [Device_error] on what the
   device cannot run. *)
and specialise p (f : fn) : code =
  let c = f.code and l = f.layout in
  let insns = c.Compile.c_insns in
  let n = Array.length insns in
  let cost, traffic =
    match p.device with
    | None -> (fun _ -> 1), fun _ -> 0
    | Some (w, _) -> w.cycles, w.bytes
  in
  let leader = Array.make (n + 1) false in
  leader.(0) <- true;
  Array.iteri
    (fun pc i ->
      if l.stacks.(pc) <> None then
        match i with
        | Insn.JMP t -> leader.(min t n) <- true
        | Insn.JMPF t ->
          leader.(min t n) <- true;
          leader.(pc + 1) <- true
        | _ -> ())
    insns;
  let fell_off : code =
    match p.device with
    | None -> fun _ _ -> fail "%s fell off the end without returning a value" c.c_key
    | Some _ -> fun _ _ -> device_fail "%s fell off the end on the device" c.c_key
  in
  (* a jump reads its target when taken, so blocks may refer to each
     other in any order; a jump to the end falls off it *)
  let blocks = Array.make (n + 1) fell_off in
  let home t depth = l.base.(cls_index (cls_of t)) + depth in
  (* the static type of the value the instruction at [pc] pushes *)
  let pushed pc = match l.stacks.(pc + 1) with Some (t :: _) -> t | _ -> None in
  let local s = { ty = l.local_ty.(s); loc = Slot l.local_at.(s) } in
  let block start : code =
    let nins = ref 0 and bytes = ref 0 in
    let count pc =
      nins := !nins + cost insns.(pc);
      bytes := !bytes + traffic insns.(pc)
    in
    (* the symbolic stack, top first, and the emitted code in reverse;
       each emitter takes the code that follows it *)
    let stack =
      let s = Option.get l.stacks.(start) in
      let depth = List.length s in
      ref (List.mapi (fun k t -> { ty = t; loc = Slot (home t (depth - 1 - k)) }) s)
    in
    let emitted = ref [] in
    let emit e = emitted := e :: !emitted in
    let pop () =
      match !stack with
      | x :: rest ->
        stack := rest;
        x
      | [] -> assert false
    in
    (* the top [k] operands, deepest first *)
    let pops k =
      let rec go k acc = if k = 0 then acc else go (k - 1) (pop () :: acc) in
      go k []
    in
    (* copy each stack entry that satisfies [moved] into its own slot *)
    let spill moved =
      let depth = List.length !stack in
      stack :=
        List.mapi
          (fun k o ->
            let h = home o.ty (depth - 1 - k) in
            match o.loc with
            | Slot i when i = h -> o
            | _ when moved o ->
              emit (copy o o.ty h);
              { o with loc = Slot h }
            | _ -> o)
          !stack
    in
    let settle () = spill (fun _ -> true) in
    let reads s o =
      match o.loc with
      | Slot i -> i = l.local_at.(s) && cls_of o.ty = cls_of l.local_ty.(s)
      | Const _ -> false
    in
    (* leaving the block charges its instructions *)
    let jump t : code =
      let t = min t n and k = !nins in
      fun st fr ->
        st.executed <- st.executed + k;
        blocks.(t) st fr
    in
    (* The slot a value produced at [pc] goes to, with its static type:
       the local a following [store] names when that local is of the
       value's class, or the new top of the stack. Returns the pc after
       the producer (and its store). *)
    let dest pc =
      let t = pushed pc in
      let next =
        if pc + 1 < n && not leader.(pc + 1) then Some insns.(pc + 1) else None
      in
      match next with
      | Some (Insn.STORE s) when cls_of l.local_ty.(s) = cls_of t ->
        count (pc + 1);
        spill (reads s);
        t, l.local_at.(s), pc + 2
      | _ ->
        let d = home t (List.length !stack) in
        stack := { ty = t; loc = Slot d } :: !stack;
        t, d, pc + 1
    in
    (* an operation that writes its value into the slot it is given *)
    let produce pc (op : ty -> int -> code -> code) =
      let t, d, next = dest pc in
      emit (op t d);
      next
    in
    let underflow pc : code =
      match insns.(pc) with
      | Insn.CALL (key, _) -> fun _ _ -> fail "operand stack underflow calling %s" key
      | Insn.MAP _ -> fun _ _ -> fail "operand stack underflow at map"
      | Insn.MKGRAPH (uid, _)
        when not (Ir.String_map.mem uid p.unit_.u_program.Ir.templates) ->
        fun _ _ -> fail "no task-graph template %s" uid
      | Insn.MKGRAPH _ -> fun _ _ -> fail "operand stack underflow at mkgraph"
      | _ -> fun _ _ -> fail "operand stack underflow in %s at %d" c.c_key pc
    in
    let rec go pc : code =
      if pc >= n then fell_off
      else if pc > start && leader.(pc) then begin
        settle ();
        jump pc
      end
      else if List.length !stack < fst (stack_effect insns.(pc)) then underflow pc
      else if p.device <> None && not (runs_on_device insns.(pc)) then
        device_trap insns.(pc)
      else begin
        count pc;
        match insns.(pc) with
        | Insn.CONST k ->
          let loc =
            if l.const_at.(pc) >= 0 then Slot l.const_at.(pc)
            else Const (I.Prim (I.const_value k))
          in
          stack := { ty = pushed pc; loc } :: !stack;
          go (pc + 1)
        | Insn.LOAD s ->
          stack := local s :: !stack;
          go (pc + 1)
        | Insn.STORE s ->
          let x = pop () in
          spill (reads s);
          emit (copy x l.local_ty.(s) l.local_at.(s));
          go (pc + 1)
        | Insn.DUP ->
          let x = pop () in
          stack := x :: x :: !stack;
          go (pc + 1)
        | Insn.POP ->
          ignore (pop ());
          go (pc + 1)
        | Insn.UNOP op ->
          let a = pop () in
          go (produce pc (unop op a))
        | Insn.BINOP op ->
          let b = pop () in
          let a = pop () in
          go (produce pc (binop op a b))
        | (Insn.ALOAD | Insn.ALOAD_U) as i ->
          let idx = pop () in
          let a = pop () in
          go (produce pc (aload (i = Insn.ALOAD) a idx))
        | (Insn.ASTORE | Insn.ASTORE_U) as i ->
          let x = pop () in
          let idx = pop () in
          let a = pop () in
          emit (astore (i = Insn.ASTORE) a idx x);
          go (pc + 1)
        | Insn.ALEN ->
          let a = read_boxed (pop ()) in
          go
            (produce pc (fun t d k ->
                 if t = Some Ir.I32 then fun st fr ->
                   fr.ints.(d) <- I.array_length (prim (a fr));
                   k st fr
                 else
                   boxed_result t d
                     (fun _ fr -> I.Prim (V.Int (I.array_length (prim (a fr)))))
                     k))
        | Insn.NEWARR ty ->
          let len = read_int Ir.I32 (pop ()) in
          go
            (produce pc (fun t d ->
                 boxed_result t d (fun _ fr -> I.Prim (I.new_array ty (len fr)))))
        | Insn.FREEZE ->
          let a = read_boxed (pop ()) in
          go
            (produce pc (fun t d ->
                 boxed_result t d (fun _ fr -> I.Prim (I.freeze (prim (a fr))))))
        | Insn.GETFIELD slot ->
          let o = read_boxed (pop ()) in
          go
            (produce pc (fun t d ->
                 boxed_result t d (fun _ fr ->
                     match o fr with
                     | I.Obj obj -> obj.I.obj_fields.(slot)
                     | _ -> fail "getfield on a non-object")))
        | Insn.PUTFIELD slot ->
          let x = read_boxed (pop ()) in
          let o = read_boxed (pop ()) in
          emit (fun k st fr ->
              (match o fr with
              | I.Obj obj -> obj.I.obj_fields.(slot) <- x fr
              | _ -> fail "putfield on a non-object");
              k st fr);
          go (pc + 1)
        | Insn.NEW cls -> (
          match Ir.String_map.find_opt cls p.unit_.u_program.Ir.classes with
          | None -> fun _ _ -> fail "no class named %s" cls
          | Some meta ->
            let tys = Array.of_list (List.map snd meta.Ir.cm_fields) in
            go
              (produce pc (fun t d ->
                   boxed_result t d (fun _ _ ->
                       let obj_fields = Array.map I.default_value tys in
                       I.Obj { I.obj_class = cls; obj_fields }))))
        | Insn.CALL (key, argc) -> (
          let args = pops argc in
          let callee = resolve p key in
          (* a float intrinsic on float operands runs unboxed *)
          let typed =
            match callee with
            | Intrinsic (_, Some op, charge) when pushed pc = Some Ir.F32 ->
              Option.map (fun slots -> op, charge, slots) (float_slots op args)
            | _ -> None
          in
          match callee, typed with
          | Fn g, _ when g.code.c_params = argc ->
            let bind = Array.of_list (List.mapi (bind_arg g) args) in
            let r = g.layout.ret_at in
            (* a typed result moves from the callee's return slot *)
            go
              (produce pc (fun t d k ->
                   let set = store_v t d in
                   let move : (frame -> frame -> unit) option =
                     match cls_of t with
                     | Ints when t = Some g.code.c_ret ->
                       Some (fun callee fr -> fr.ints.(d) <- callee.ints.(r))
                     | Floats when t = Some g.code.c_ret ->
                       Some (fun callee fr -> fr.floats.(d) <- callee.floats.(r))
                     | _ -> None
                   in
                   fun st fr ->
                     let callee = take g in
                     for j = 0 to argc - 1 do
                       bind.(j) fr callee
                     done;
                     let v = g.body st callee in
                     (match move with
                     | Some move when v == typed_ret -> move callee fr
                     | _ -> set fr (result_of g callee v));
                     release g callee;
                     k st fr))
          | _, Some (op, charge, slots) ->
            go (produce pc (fun _ -> intrinsic_call op charge slots))
          | c, None ->
            (* an intrinsic, or the trap of a missing function or a
               wrong argument count, as a call from the host *)
            let args = List.map read_boxed args in
            go
              (produce pc (fun t d ->
                   boxed_result t d (fun st fr ->
                       invoke st c (List.map (fun a -> a fr) args)))))
        | Insn.RET -> (
          (* an int, boolean or float result stays in the return slot *)
          let x = pop () and k = !nins and r = l.ret_at in
          let ret = Some c.c_ret in
          match x.loc, cls_of ret with
          | Slot i, Ints when x.ty = ret ->
            fun st fr ->
              st.executed <- st.executed + k;
              fr.ints.(r) <- fr.ints.(i);
              typed_ret
          | Slot i, Floats when x.ty = ret ->
            fun st fr ->
              st.executed <- st.executed + k;
              fr.floats.(r) <- fr.floats.(i);
              typed_ret
          | _ ->
            let x = read_boxed x in
            fun st fr ->
              st.executed <- st.executed + k;
              x fr)
        | Insn.RETVOID ->
          let k = !nins in
          fun st _ ->
            st.executed <- st.executed + k;
            unit_v
        | Insn.JMP t ->
          settle ();
          jump t
        | Insn.JMPF t -> (
          let cond = pop () in
          settle ();
          let yes = pc + 1 and no = min t n and k = !nins in
          match p.device, cond with
          | Some (_, lane), _ ->
            let cond = read_int Ir.Bool cond in
            fun st fr ->
              st.executed <- st.executed + k;
              if cond fr <> 0 then begin
                lane.branch_sig <- (lane.branch_sig * 31) + 1;
                blocks.(yes) st fr
              end
              else begin
                lane.branch_sig <- (lane.branch_sig * 31) + 2;
                blocks.(no) st fr
              end
          | None, { ty = Some Ir.Bool; loc = Slot i } ->
            fun st fr ->
              st.executed <- st.executed + k;
              if fr.ints.(i) <> 0 then blocks.(yes) st fr else blocks.(no) st fr
          | None, _ ->
            let cond = read_boxed cond in
            fun st fr ->
              st.executed <- st.executed + k;
              if as_bool (cond fr) then blocks.(yes) st fr else blocks.(no) st fr)
        | Insn.MAP desc ->
          let args = List.map read_boxed (pops (List.length desc.bm_flags)) in
          let callee = resolve p desc.bm_fn in
          go
            (produce pc (fun t d ->
                 boxed_result t d (fun st fr ->
                     let args = List.map (fun a -> a fr) args in
                     match st.hooks.on_map desc args with
                     | Some r -> r
                     | None ->
                       let args = List.combine args desc.bm_flags in
                       I.Prim
                         (launch_map st ~fresh:false callee desc.bm_elem_ty args ~off:0
                            ~len:(mapped_length args) ignore))))
        | Insn.REDUCE desc ->
          let a = read_boxed (pop ()) in
          let callee = resolve p desc.br_fn in
          go
            (produce pc (fun t d ->
                 boxed_result t d (fun st fr ->
                     let a = a fr in
                     match st.hooks.on_reduce desc a with
                     | Some r -> r
                     | None ->
                       let a = prim a in
                       let n = I.array_length a in
                       if n = 0 then fail "reduce of an empty array";
                       launch_fold st ~fresh:false callee a ~off:0 ~len:n ignore)))
        | Insn.MKGRAPH (uid, argc) -> (
          match Ir.String_map.find_opt uid p.unit_.u_program.Ir.templates with
          | None -> fun _ _ -> fail "no task-graph template %s" uid
          | Some template ->
            let ops = List.map read_boxed (pops argc) in
            go
              (produce pc (fun t d ->
                   boxed_result t d (fun st fr ->
                       let ops = List.map (fun o -> o fr) ops in
                       st.graph_counter <- st.graph_counter + 1;
                       st.pending <- (st.graph_counter, (template, ops)) :: st.pending;
                       I.Graph_handle st.graph_counter))))
        | Insn.RUNGRAPH blocking ->
          let g = read_boxed (pop ()) in
          emit (fun k st fr ->
              (match g fr with
              | I.Graph_handle h -> run_graph st h ~blocking
              | _ -> fail "rungraph on a non-graph");
              k st fr);
          go (pc + 1)
      end
    in
    let last = go start in
    let body = List.fold_left (fun k e -> e k) last !emitted in
    match p.device with
    | Some (_, lane) when !bytes > 0 ->
      let b = !bytes in
      fun st fr ->
        lane.mem_bytes <- lane.mem_bytes + b;
        body st fr
    | _ -> body
  in
  for pc = n - 1 downto 0 do
    if leader.(pc) && l.stacks.(pc) <> None then blocks.(pc) <- block pc
  done;
  match p.device with
  | None -> blocks.(0)
  | Some (w, _) ->
    let body = blocks.(0) and k = w.entry in
    fun st fr ->
      st.executed <- st.executed + k;
      body st fr

(* A launch from outside runs with no hooks, as a host call does. *)
let launch_state p = { prog = p; hooks = no_hooks; executed = 0; graph_counter = 0; pending = [] }

let run ?(hooks = no_hooks) p key args =
  let st = { (launch_state p) with hooks } in
  let value = invoke st (resolve p key) args in
  { value; executed = st.executed }

let map p key ~elem args ~off ~len on_elem =
  launch_map (launch_state p) ~fresh:true (resolve p key) elem args ~off ~len on_elem

let fold p key a ~off ~len on_elem =
  prim (launch_fold (launch_state p) ~fresh:true (resolve p key) a ~off ~len on_elem)

let filters_of p = List.map (fun (key, receiver) -> resolve p key, receiver)

let apply_all p filters on_elem input ~into =
  launch_chain (launch_state p) ~fresh:true (filters_of p filters) on_elem input ~into

type chain = { ch_state : state; ch_stages : stage array }

let chain p filters =
  let stages = Array.of_list (List.map (fun f -> filter_stage f Flow) (filters_of p filters)) in
  bind_stages stages;
  { ch_state = launch_state p; ch_stages = stages }

let apply ch on_elem (x : V.t) : V.t =
  let st = ch.ch_state and stages = ch.ch_stages in
  restart st;
  let v = run_stages st stages 0 0 (I.Prim x) in
  on_elem st.executed;
  value_out stages.(Array.length stages - 1) v
