(* The Liquid Metal intermediate representation.

   "A program is lowered into an intermediate representation that
   describes the computation as independent but interconnected
   computational nodes" (paper section 1). Concretely:

   - ordinary code becomes {!func} values: structured, explicitly
     typed statement trees over virtual registers, easy for all three
     backends (bytecode, OpenCL, Verilog) to consume;
   - task graphs become {!graph_template} values: statically
     discovered linear pipelines whose nodes carry the unique task
     identifiers (UIDs) that label backend artifacts and that the
     generated host code hands to the runtime (sections 3 and 4.1);
   - map/reduce sites carry their own UIDs so the GPU backend can
     provide kernels for them. *)

type ty =
  | I32
  | F32
  | Bool
  | Bit
  | Enum of string
  | Arr of ty
  | Obj of string  (** class instance *)
  | Graph  (** a runtime task-graph handle *)
  | Unit

let rec ty_to_string = function
  | I32 -> "i32"
  | F32 -> "f32"
  | Bool -> "bool"
  | Bit -> "bit"
  | Enum n -> "enum:" ^ n
  | Arr t -> ty_to_string t ^ "[]"
  | Obj c -> "obj:" ^ c
  | Graph -> "graph"
  | Unit -> "unit"

let pp_ty ppf t = Format.fprintf ppf "%s" (ty_to_string t)

(* Shared device-type predicates: every device backend agrees on what
   a scalar is (fits a register / an OpenCL value) and what data is
   (scalars and arrays of scalars). Both [Gpu.Suitability] and
   [Rtl.Synth] consult these. *)
let scalar_ty = function
  | I32 | F32 | Bool | Bit | Enum _ -> true
  | Arr _ | Obj _ | Graph | Unit -> false

let data_ty = function
  | Arr t -> scalar_ty t
  | t -> scalar_ty t

type const =
  | C_unit
  | C_bool of bool
  | C_i32 of int
  | C_f32 of float
  | C_bit of bool
  | C_enum of string * int
  | C_bits of string  (** bit-literal body *)

type var = { v_id : int; v_name : string; v_ty : ty }

type operand = O_var of var | O_const of const

let operand_ty = function
  | O_var v -> v.v_ty
  | O_const c -> (
    match c with
    | C_unit -> Unit
    | C_bool _ -> Bool
    | C_i32 _ -> I32
    | C_f32 _ -> F32
    | C_bit _ -> Bit
    | C_enum (e, _) -> Enum e
    | C_bits _ -> Arr Bit)

(* Operators are monomorphic: the lowering selects the [_i] / [_f] /
   bit variant from the checked types, so backends never re-dispatch. *)
type unop =
  | Neg_i
  | Neg_f
  | Not_b
  | Bnot_i
  | I2f  (** int-to-float widening *)

type binop =
  | Add_i | Sub_i | Mul_i | Div_i | Rem_i
  | Add_f | Sub_f | Mul_f | Div_f | Rem_f
  | Shl_i | Shr_i
  | And_i | Or_i | Xor_i
  | And_b | Or_b | Xor_b
  | And_bit | Or_bit | Xor_bit
  | Eq | Neq  (** on any value type; operands have equal IR type *)
  | Lt_i | Leq_i | Gt_i | Geq_i
  | Lt_f | Leq_f | Gt_f | Geq_f

type rhs =
  | R_op of operand
  | R_unop of unop * operand
  | R_binop of binop * operand * operand
  | R_alen of operand
  | R_aload of operand * operand
  | R_call of string * operand list
      (** static call by function key; instance methods pass the
          receiver as the first argument *)
  | R_newarr of ty * operand  (** element type, length *)
  | R_freeze of operand
      (** defensive copy that seals a mutable array into a value *)
  | R_newobj of string * operand list  (** class, constructor args *)
  | R_field of operand * int
  | R_map of map_site
  | R_reduce of reduce_site
  | R_mkgraph of string * operand list
      (** template UID + the dynamic operands consumed by the
          template's nodes in order *)

and map_site = {
  map_uid : string;  (** artifact label for this map site *)
  map_fn : string;
  map_args : (operand * bool) list;  (** operand, [true] = mapped array *)
  map_elem_ty : ty;  (** result element type *)
  map_loc : Support.Srcloc.t;  (** source position of the map expression *)
}

and reduce_site = {
  red_uid : string;
  red_fn : string;
  red_arg : operand;
  red_elem_ty : ty;
  red_loc : Support.Srcloc.t;
}

type instr =
  | I_let of var * rhs
  | I_set of var * rhs
  | I_astore of operand * operand * operand  (** array, index, value *)
  | I_setfield of operand * int * operand
  | I_if of operand * block * block
  | I_while of block * operand * block
      (** condition instructions, condition operand, body *)
  | I_return of operand option
  | I_run_graph of operand * bool  (** graph handle, blocking *)
  | I_do of rhs  (** evaluate for effect *)

and block = instr list

type fn_kind = K_static | K_instance of string | K_ctor of string

type func = {
  fn_key : string;  (** e.g. ["Bitflip.flip"], ["Avg.<init>"] *)
  fn_kind : fn_kind;
  fn_params : var list;
  fn_ret : ty;
  fn_body : block;
  fn_local : bool;
  fn_pure : bool;
  fn_loc : Support.Srcloc.t;  (** declaration site, for diagnostics *)
}

(* --- Task-graph templates (static shape, paper section 3) --------- *)

(* A filter's target: a pure static method, or a local instance method
   on an isolated object (the object handle is a dynamic operand). *)
type filter_target =
  | F_static of string  (** function key *)
  | F_instance of string * string  (** class, method key suffix *)

type filter_info = {
  uid : string;  (** the unique task identifier in the manifest *)
  target : filter_target;
  relocatable : bool;  (** inside relocation brackets *)
  input : ty;
  output : ty;
  floc : Support.Srcloc.t;  (** source position of the task expression *)
}

type tnode =
  | N_source of { elt : ty }
      (** consumes two dynamic operands: the source array and rate *)
  | N_filter of filter_info
  | N_sink of { elt : ty }
      (** consumes one dynamic operand: the destination array *)

(* How many dynamic operands a node consumes from the [R_mkgraph]
   operand list. *)
let tnode_operand_count = function
  | N_source _ -> 2  (* array, rate *)
  | N_filter { target = F_static _; _ } -> 0
  | N_filter { target = F_instance _; _ } -> 1  (* receiver object *)
  | N_sink _ -> 1  (* destination array *)

type graph_template = {
  gt_uid : string;
  gt_nodes : tnode list;  (** linear pipeline, source first *)
}

(* --- Whole programs ----------------------------------------------- *)

module String_map = Map.Make (String)

type class_meta = {
  cm_name : string;
  cm_fields : (string * ty) list;  (** slot order *)
  cm_ctor : string option;  (** constructor function key *)
}

type program = {
  funcs : func String_map.t;
  classes : class_meta String_map.t;
  enums : string array String_map.t;  (** enum name -> cases *)
  templates : graph_template String_map.t;
}

let find_func p key = String_map.find_opt key p.funcs

let func_exn p key =
  match find_func p key with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Ir.func_exn: no function %s" key)

let template_exn p uid =
  match String_map.find_opt uid p.templates with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Ir.template_exn: no template %s" uid)

(* Every filter UID in the program, with its target and ports; the
   backends iterate this to decide what to compile. *)
let filter_sites p =
  String_map.fold
    (fun _ gt acc ->
      List.fold_left
        (fun acc node ->
          match node with
          | N_filter f -> (gt.gt_uid, f) :: acc
          | N_source _ | N_sink _ -> acc)
        acc gt.gt_nodes)
    p.templates []
    |> List.rev

(* Map/reduce sites found in function bodies. *)
let rec kernel_sites_block acc (b : block) =
  List.fold_left
    (fun acc i ->
      match i with
      | I_let (_, r) | I_set (_, r) | I_do r -> kernel_sites_rhs acc r
      | I_if (_, a, b) -> kernel_sites_block (kernel_sites_block acc a) b
      | I_while (c, _, body) ->
        kernel_sites_block (kernel_sites_block acc c) body
      | I_astore _ | I_setfield _ | I_return _ | I_run_graph _ -> acc)
    acc b

and kernel_sites_rhs acc = function
  | R_map m -> `Map m :: acc
  | R_reduce r -> `Reduce r :: acc
  | R_op _ | R_unop _ | R_binop _ | R_alen _ | R_aload _ | R_call _
  | R_newarr _ | R_freeze _ | R_newobj _ | R_field _ | R_mkgraph _ ->
    acc

let kernel_sites p =
  String_map.fold (fun _ f acc -> kernel_sites_block acc f.fn_body) p.funcs []
  |> List.rev

(* Every variable occurrence in a function: its parameters, then each
   use and definition in its body. *)
let iter_vars (see_var : var -> unit) (f : func) =
  let see_operand = function O_var v -> see_var v | O_const _ -> () in
  let see_rhs = function
    | R_op o | R_unop (_, o) | R_alen o | R_freeze o | R_field (o, _) -> see_operand o
    | R_binop (_, a, b) | R_aload (a, b) ->
      see_operand a;
      see_operand b
    | R_call (_, os) | R_newobj (_, os) | R_mkgraph (_, os) ->
      List.iter see_operand os
    | R_newarr (_, o) -> see_operand o
    | R_map m -> List.iter (fun (o, _) -> see_operand o) m.map_args
    | R_reduce r -> see_operand r.red_arg
  in
  let rec see_block b = List.iter see_instr b
  and see_instr = function
    | I_let (v, r) | I_set (v, r) ->
      see_var v;
      see_rhs r
    | I_astore (a, i, x) ->
      see_operand a;
      see_operand i;
      see_operand x
    | I_setfield (o, _, x) ->
      see_operand o;
      see_operand x
    | I_if (c, a, b) ->
      see_operand c;
      see_block a;
      see_block b
    | I_while (c, o, body) ->
      see_block c;
      see_operand o;
      see_block body
    | I_return (Some o) -> see_operand o
    | I_return None -> ()
    | I_run_graph (o, _) -> see_operand o
    | I_do r -> see_rhs r
  in
  List.iter see_var f.fn_params;
  see_block f.fn_body

(* Number of virtual-register slots a function needs (ids are dense,
   assigned from 0 during lowering). *)
let var_slot_count (f : func) =
  let max_id = ref (-1) in
  iter_vars (fun v -> if v.v_id > !max_id then max_id := v.v_id) f;
  !max_id + 1
