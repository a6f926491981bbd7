(* Algebraic-property inference for reduce combiners.

   [Lower_mapreduce] may only split a reduce into K > 1 chunks when
   the combiner is associative: the lowered graph computes
   `(fold c1) . (fold c2) . ...` where the interpreter computes one
   strict left fold. For 32-bit integer machine arithmetic the usual
   suspects — `+`, `*`, `&`, `|`, `^`, `min`, `max` and the boolean
   connectives — are *exactly* associative and commutative (wraparound
   included), so any re-grouping is bit-identical. Floating point is
   not (rounding depends on grouping), so float combiners stay
   [Unknown] and the reduce stays pinned at K = 1.

   The prover evaluates the combiner body symbolically over its two
   parameters into a small expression tree and pattern-matches the
   known-good shapes. Anything it cannot evaluate (loops, side
   effects, opaque calls) is conservatively [Unknown]. The verdict
   carries the contract sentence shown by `lmc analyze` (LMA015/016)
   and documented in docs/ANALYSIS.md. *)

module Ir = Lime_ir.Ir

type aexpr =
  | A_param of int  (** 0 = accumulator, 1 = element *)
  | A_const of Ir.const
  | A_bin of Ir.binop * aexpr * aexpr
  | A_un of Ir.unop * aexpr
  | A_ite of aexpr * aexpr * aexpr

type verdict =
  | Assoc_comm of string  (** proven associative + commutative; why *)
  | Unknown of string  (** not proven; why *)

exception Opaque of string

let max_inline_depth = 4

let binop_name = function
  | Ir.Add_i -> "int +"
  | Ir.Mul_i -> "int *"
  | Ir.And_i -> "int &"
  | Ir.Or_i -> "int |"
  | Ir.Xor_i -> "int ^"
  | Ir.And_b | Ir.And_bit -> "boolean &&"
  | Ir.Or_b | Ir.Or_bit -> "boolean ||"
  | Ir.Xor_b | Ir.Xor_bit -> "boolean ^"
  | Ir.Add_f -> "float +"
  | Ir.Mul_f -> "float *"
  | _ -> "operator"

(* Exactly associative+commutative over machine values. *)
let assoc_comm_binop = function
  | Ir.Add_i | Ir.Mul_i | Ir.And_i | Ir.Or_i | Ir.Xor_i | Ir.And_b | Ir.Or_b
  | Ir.Xor_b | Ir.And_bit | Ir.Or_bit | Ir.Xor_bit ->
    true
  | _ -> false

let float_binop = function
  | Ir.Add_f | Ir.Sub_f | Ir.Mul_f | Ir.Div_f | Ir.Rem_f -> true
  | _ -> false

(* --- symbolic evaluation of the combiner body ---------------------- *)

type outcome = Returned of aexpr | Fell_through

let eval_fn (prog : Ir.program) (fn : Ir.func) (args : aexpr list) depth :
    aexpr =
  let rec eval_body (fn : Ir.func) args depth =
    if depth > max_inline_depth then raise (Opaque "call nesting too deep");
    if List.length fn.Ir.fn_params <> List.length args then
      raise (Opaque "arity mismatch");
    let nslots = max 1 (Ir.var_slot_count fn) in
    let env = Array.make nslots None in
    List.iter2
      (fun (p : Ir.var) a -> env.(p.Ir.v_id) <- Some a)
      fn.Ir.fn_params args;
    match block env fn.Ir.fn_body depth with
    | Returned e -> e
    | Fell_through -> raise (Opaque "no return value")
  and operand env (o : Ir.operand) =
    match o with
    | Ir.O_const c -> A_const c
    | Ir.O_var v -> (
      match env.(v.Ir.v_id) with
      | Some e -> e
      | None -> raise (Opaque "read of an undefined register"))
  and rhs env (r : Ir.rhs) depth =
    match r with
    | Ir.R_op o -> operand env o
    | Ir.R_unop (op, a) -> A_un (op, operand env a)
    | Ir.R_binop (op, a, b) -> A_bin (op, operand env a, operand env b)
    | Ir.R_call (key, args) ->
      if Lime_ir.Intrinsics.is_intrinsic key then
        raise (Opaque (Printf.sprintf "calls intrinsic %s" key));
      let callee =
        match Ir.find_func prog key with
        | Some f -> f
        | None -> raise (Opaque (Printf.sprintf "calls unknown %s" key))
      in
      eval_body callee (List.map (operand env) args) (depth + 1)
    | Ir.R_alen _ | Ir.R_aload _ | Ir.R_newarr _ | Ir.R_freeze _
    | Ir.R_newobj _ | Ir.R_field _ | Ir.R_map _ | Ir.R_reduce _
    | Ir.R_mkgraph _ ->
      raise (Opaque "combiner touches memory or graphs")
  and block env (b : Ir.block) depth : outcome =
    match b with
    | [] -> Fell_through
    | i :: rest -> (
      match i with
      | Ir.I_let (v, r) | Ir.I_set (v, r) ->
        env.(v.Ir.v_id) <- Some (rhs env r depth);
        block env rest depth
      | Ir.I_return (Some o) -> Returned (operand env o)
      | Ir.I_return None -> raise (Opaque "void return")
      | Ir.I_if (c, then_b, else_b) -> (
        let cond = operand env c in
        let env_t = Array.copy env and env_e = Array.copy env in
        let out_t = block env_t (then_b @ rest) depth in
        let out_e = block env_e (else_b @ rest) depth in
        match out_t, out_e with
        | Returned a, Returned b ->
          Returned (if a = b then a else A_ite (cond, a, b))
        | Fell_through, Fell_through -> Fell_through
        | _ -> raise (Opaque "branch returns on one arm only"))
      | Ir.I_while _ -> raise (Opaque "combiner contains a loop")
      | Ir.I_astore _ | Ir.I_setfield _ | Ir.I_run_graph _ | Ir.I_do _ ->
        raise (Opaque "combiner has side effects"))
  in
  eval_body fn args depth

(* --- shape classification ------------------------------------------ *)

(* `min`/`max` via a comparison of the two parameters selecting one of
   them: associative, commutative, and grouping-exact even for floats
   in the absence of NaN — but Lime floats can be NaN, so only the
   integer comparisons qualify. *)
let minmax_shape (cond : aexpr) (t : aexpr) (f : aexpr) : string option =
  match cond, t, f with
  | A_bin (op, A_param a, A_param b), A_param ta, A_param fa
    when a <> b && ta <> fa && (ta = a || ta = b) && (fa = a || fa = b) -> (
    match op with
    | Ir.Lt_i | Ir.Leq_i -> Some (if ta = a then "int min" else "int max")
    | Ir.Gt_i | Ir.Geq_i -> Some (if ta = a then "int max" else "int min")
    | _ -> None)
  | _ -> None

let classify (e : aexpr) : verdict =
  let contract name =
    Assoc_comm
      (Printf.sprintf
         "%s is associative and commutative over machine values — any \
          re-grouping of the fold is bit-identical"
         name)
  in
  match e with
  | A_bin (op, A_param 0, A_param 1) | A_bin (op, A_param 1, A_param 0) ->
    if assoc_comm_binop op then contract (binop_name op)
    else if float_binop op then
      Unknown
        (Printf.sprintf
           "%s is not associative (rounding depends on grouping)"
           (binop_name op))
    else
      Unknown (Printf.sprintf "%s is not associative" (binop_name op))
  | A_ite (cond, t, f) -> (
    match minmax_shape cond t f with
    | Some name -> contract name
    | None -> Unknown "combiner shape not recognized")
  | _ -> Unknown "combiner shape not recognized"

(* --- entry point ---------------------------------------------------- *)

let scalar_combiner_ty = function
  | Ir.I32 | Ir.F32 | Ir.Bool | Ir.Bit -> true
  | _ -> false

(* Verdict for the combiner function [key]: is `reduce` with this
   combiner safe to re-associate (tree-combine)? *)
let analyze (prog : Ir.program) (key : string) : verdict =
  match Ir.find_func prog key with
  | None -> Unknown (Printf.sprintf "no function named %s" key)
  | Some fn -> (
    match fn.Ir.fn_params with
    | [ a; b ]
      when a.Ir.v_ty = b.Ir.v_ty
           && fn.Ir.fn_ret = a.Ir.v_ty
           && scalar_combiner_ty a.Ir.v_ty -> (
      try classify (eval_fn prog fn [ A_param 0; A_param 1 ] 0)
      with Opaque why -> Unknown why)
    | _ -> Unknown "combiner is not a binary scalar function")

let is_assoc_comm prog key =
  match analyze prog key with Assoc_comm _ -> true | Unknown _ -> false
