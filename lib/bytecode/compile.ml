module Ir = Lime_ir.Ir

open Support

type code = {
  c_key : string;
  c_insns : Insn.t array;
  c_slots : int;
  c_params : int;
  c_ret : Ir.ty;
}

type unit_ = {
  u_funcs : code Ir.String_map.t;
  u_program : Ir.program;
}

type emitter = { buf : Insn.t Vec.t; proven : Ir.instr -> bool }

let emit e i = Vec.push e.buf i
let here e = Vec.length e.buf

(* Emit a placeholder jump and return its index for backpatching. *)
let emit_jump e mk =
  let at = here e in
  Vec.push e.buf (mk 0);
  at

let patch e at target =
  let insn =
    match Vec.get e.buf at with
    | Insn.JMP _ -> Insn.JMP target
    | Insn.JMPF _ -> Insn.JMPF target
    | i ->
      invalid_arg
        (Printf.sprintf "Compile.patch: not a jump: %s" (Insn.to_string i))
  in
  Vec.set e.buf at insn

let push_operand e (o : Ir.operand) =
  match o with
  | Ir.O_const c -> emit e (Insn.CONST c)
  | Ir.O_var v -> emit e (Insn.LOAD v.Ir.v_id)

let compile_rhs e (rhs : Ir.rhs) =
  match rhs with
  | Ir.R_op o -> push_operand e o
  | Ir.R_unop (op, a) ->
    push_operand e a;
    emit e (Insn.UNOP op)
  | Ir.R_binop (op, a, b) ->
    push_operand e a;
    push_operand e b;
    emit e (Insn.BINOP op)
  | Ir.R_alen a ->
    push_operand e a;
    emit e Insn.ALEN
  | Ir.R_aload (a, i) ->
    push_operand e a;
    push_operand e i;
    emit e Insn.ALOAD
  | Ir.R_call (key, args) ->
    List.iter (push_operand e) args;
    emit e (Insn.CALL (key, List.length args))
  | Ir.R_newarr (ty, n) ->
    push_operand e n;
    emit e (Insn.NEWARR ty)
  | Ir.R_freeze a ->
    push_operand e a;
    emit e Insn.FREEZE
  | Ir.R_newobj (cls, args) ->
    emit e (Insn.NEW cls);
    emit e Insn.DUP;
    List.iter (push_operand e) args;
    emit e (Insn.CALL (cls ^ ".<init>", List.length args + 1));
    emit e Insn.POP
  | Ir.R_field (o, slot) ->
    push_operand e o;
    emit e (Insn.GETFIELD slot)
  | Ir.R_map m ->
    List.iter (fun (o, _) -> push_operand e o) m.Ir.map_args;
    emit e
      (Insn.MAP
         {
           Insn.bm_uid = m.Ir.map_uid;
           bm_fn = m.Ir.map_fn;
           bm_flags = List.map snd m.Ir.map_args;
           bm_elem_ty = m.Ir.map_elem_ty;
         })
  | Ir.R_reduce r ->
    push_operand e r.Ir.red_arg;
    emit e
      (Insn.REDUCE
         {
           Insn.br_uid = r.Ir.red_uid;
           br_fn = r.Ir.red_fn;
           br_elem_ty = r.Ir.red_elem_ty;
         })
  | Ir.R_mkgraph (uid, ops) ->
    List.iter (push_operand e) ops;
    emit e (Insn.MKGRAPH (uid, List.length ops))

let rec compile_block e (b : Ir.block) = List.iter (compile_instr e) b

and compile_instr e (i : Ir.instr) =
  match i with
  (* Accesses the relational analysis proved in bounds compile to the
     unchecked opcodes (the proof is keyed by physical instruction). *)
  | Ir.I_let (v, Ir.R_aload (a, idx)) | Ir.I_set (v, Ir.R_aload (a, idx))
    when e.proven i ->
    push_operand e a;
    push_operand e idx;
    emit e Insn.ALOAD_U;
    emit e (Insn.STORE v.Ir.v_id)
  | Ir.I_do (Ir.R_aload (a, idx)) when e.proven i ->
    push_operand e a;
    push_operand e idx;
    emit e Insn.ALOAD_U;
    emit e Insn.POP
  | Ir.I_astore (a, idx, x) when e.proven i ->
    push_operand e a;
    push_operand e idx;
    push_operand e x;
    emit e Insn.ASTORE_U
  | Ir.I_let (v, rhs) | Ir.I_set (v, rhs) ->
    compile_rhs e rhs;
    emit e (Insn.STORE v.Ir.v_id)
  | Ir.I_astore (a, idx, x) ->
    push_operand e a;
    push_operand e idx;
    push_operand e x;
    emit e Insn.ASTORE
  | Ir.I_setfield (o, slot, x) ->
    push_operand e o;
    push_operand e x;
    emit e (Insn.PUTFIELD slot)
  | Ir.I_if (c, then_, else_) ->
    push_operand e c;
    let jelse = emit_jump e (fun t -> Insn.JMPF t) in
    compile_block e then_;
    let jend = emit_jump e (fun t -> Insn.JMP t) in
    patch e jelse (here e);
    compile_block e else_;
    patch e jend (here e)
  | Ir.I_while (cond_block, cond_op, body) ->
    let top = here e in
    compile_block e cond_block;
    push_operand e cond_op;
    let jend = emit_jump e (fun t -> Insn.JMPF t) in
    compile_block e body;
    emit e (Insn.JMP top);
    patch e jend (here e)
  | Ir.I_return (Some o) ->
    push_operand e o;
    emit e Insn.RET
  | Ir.I_return None -> emit e Insn.RETVOID
  | Ir.I_run_graph (g, blocking) ->
    push_operand e g;
    emit e (Insn.RUNGRAPH blocking)
  | Ir.I_do rhs ->
    compile_rhs e rhs;
    emit e Insn.POP

let no_proofs : Ir.instr -> bool = fun _ -> false

(* [proven] marks array accesses (by physical instruction identity)
   that were statically proven in bounds; they compile to the
   unchecked [ALOAD_U]/[ASTORE_U] opcodes. *)
let compile_function ?(proven = no_proofs) (f : Ir.func) : code =
  let e = { buf = Vec.create (); proven } in
  compile_block e f.Ir.fn_body;
  (* Implicit return for void functions that fall off the end; other
     functions trap in the VM, matching the reference interpreter. *)
  (match f.Ir.fn_ret with
  | Ir.Unit -> emit e Insn.RETVOID
  | _ -> ());
  {
    c_key = f.Ir.fn_key;
    c_insns = Vec.to_array e.buf;
    c_slots = Ir.var_slot_count f;
    c_params = List.length f.Ir.fn_params;
    c_ret = f.Ir.fn_ret;
  }

let compile_program ?proven (p : Ir.program) : unit_ =
  let prover_for key =
    match proven with None -> no_proofs | Some p -> p key
  in
  {
    u_funcs =
      Ir.String_map.mapi
        (fun key fn -> compile_function ~proven:(prover_for key) fn)
        p.Ir.funcs;
    u_program = p;
  }

let disassemble (c : code) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s: params=%d slots=%d ret=%s\n" c.c_key c.c_params
       c.c_slots (Ir.ty_to_string c.c_ret));
  Array.iteri
    (fun i insn ->
      Buffer.add_string buf (Printf.sprintf "  %3d: %s\n" i (Insn.to_string insn)))
    c.c_insns;
  Buffer.contents buf
