module Ir = Lime_ir.Ir

(* Verilog code generation.

   "the latter generates Verilog for the FPGA ... subsequently
   compiled using device-specific toolflows" (paper section 3). The
   generated text is the artifact recorded in the manifest; execution
   in this environment happens in [Sim], which models the same
   module structure (FIFO + unpipelined read/compute/publish FSM).

   Synthesizable filters are straight-line code with muxes (Synth
   rejects everything else), so each datapath is combinational logic
   that we reconstruct by symbolic evaluation with full call inlining.
   Every operator and mux value is one wire, declared once and read by
   name however often the filter reads it, and identical values share
   a wire, so the text grows linearly with the filter. Stateful
   filters contribute one next-value per field register. *)

exception Unsynthesizable of string

let fail fmt = Format.kasprintf (fun s -> raise (Unsynthesizable s)) fmt

let sanitize key =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    key

let width_of_ty = Netlist.width_of_ty

(* --- symbolic evaluation ------------------------------------------- *)

(* The module being generated: its program, the receiver class's field
   registers, and its wires. Every operator or mux value is declared
   once, as [wire [w-1:0] name = text;], and read by name; identical
   texts share one wire. *)
type m = {
  prog : Ir.program;
  regs : (string * Ir.ty) list;  (* field slot -> name and type *)
  wires : (string, string) Hashtbl.t;  (* definition text -> wire name *)
  mutable decls : string list;  (* declarations, newest first *)
}

(* Wire names are [<hint>_<n>], [n] unique in the module. Of the
   module's own signals only the field registers [field_<k>] have that
   shape. *)
let wire_name hint n =
  let base = match sanitize hint with "field" -> "field_v" | s -> s in
  Printf.sprintf "%s_%d" base n

(* [bind m ~hint ty text]: the atom standing for [text]. Names and
   constants are atoms already; every text an operator or a mux builds
   is parenthesized, and becomes a wire. *)
let bind m ~hint ty text =
  if not (String.contains text '(') then text
  else
    match Hashtbl.find_opt m.wires text with
    | Some name -> name
    | None ->
      let name = wire_name hint (Hashtbl.length m.wires) in
      Hashtbl.add m.wires text name;
      m.decls <-
        Printf.sprintf "  wire [%d:0] %s = %s;\n" (width_of_ty ty - 1) name
          text
        :: m.decls;
      name

let reg_of m slot =
  match List.nth_opt m.regs slot with
  | Some reg -> reg
  | None -> fail "field slot %d has no register" slot

type env = {
  vars : (Ir.var * string) list;  (* variable -> its atom *)
  fields : (int * string) list;  (* slot -> next-value atom *)
  ret : Ir.ty;  (* the activation's return type *)
}

let lookup_var env (v : Ir.var) =
  match List.assoc_opt v env.vars with
  | Some e -> e
  | None -> fail "use of undefined register v%d" v.v_id

let set_var env v e = { env with vars = (v, e) :: List.remove_assoc v env.vars }

let set_field env slot e =
  { env with fields = (slot, e) :: List.remove_assoc slot env.fields }

let mux c x y = Printf.sprintf "(%s ? %s : %s)" c x y

let const_text (c : Ir.const) =
  match c with
  | Ir.C_unit -> "0"
  | Ir.C_bool b | Ir.C_bit b -> if b then "1'b1" else "1'b0"
  | Ir.C_i32 i -> Printf.sprintf "32'sd%d" (abs i) |> fun s ->
    if i < 0 then "-" ^ s else s
  | Ir.C_f32 f ->
    Printf.sprintf "32'h%08lx /* %g */" (Int32.bits_of_float f) f
  | Ir.C_enum (_, tag) -> Printf.sprintf "8'd%d" tag
  | Ir.C_bits _ -> fail "bit-array literal in a datapath"

let unop_text (u : Ir.unop) a =
  match u with
  | Ir.Neg_i -> Printf.sprintf "(-%s)" a
  | Ir.Neg_f -> Printf.sprintf "fneg(%s)" a
  | Ir.Not_b -> Printf.sprintf "(~%s)" a
  | Ir.Bnot_i -> Printf.sprintf "(~%s)" a
  | Ir.I2f -> Printf.sprintf "itof(%s)" a

let binop_text (b : Ir.binop) x y =
  let infix op = Printf.sprintf "(%s %s %s)" x op y in
  let fp name = Printf.sprintf "%s(%s, %s)" name x y in
  match b with
  | Ir.Add_i -> infix "+"
  | Ir.Sub_i -> infix "-"
  | Ir.Mul_i -> infix "*"
  | Ir.Div_i -> infix "/"
  | Ir.Rem_i -> infix "%"
  | Ir.Add_f -> fp "fadd"
  | Ir.Sub_f -> fp "fsub"
  | Ir.Mul_f -> fp "fmul"
  | Ir.Div_f -> fp "fdiv"
  | Ir.Rem_f -> fp "fmod"
  | Ir.Shl_i -> infix "<<<"
  | Ir.Shr_i -> infix ">>>"
  | Ir.And_i | Ir.And_b | Ir.And_bit -> infix "&"
  | Ir.Or_i | Ir.Or_b | Ir.Or_bit -> infix "|"
  | Ir.Xor_i | Ir.Xor_b | Ir.Xor_bit -> infix "^"
  | Ir.Eq -> infix "=="
  | Ir.Neq -> infix "!="
  | Ir.Lt_i -> infix "<"
  | Ir.Leq_i -> infix "<="
  | Ir.Gt_i -> infix ">"
  | Ir.Geq_i -> infix ">="
  | Ir.Lt_f -> fp "flt"
  | Ir.Leq_f -> fp "fleq"
  | Ir.Gt_f -> fp "fgt"
  | Ir.Geq_f -> fp "fgeq"

type outcome =
  | Returned of string  (* every path returned this atom *)
  | Fell_through of env  (* no path returned; updated bindings *)

let find_fn prog key =
  match Ir.find_func prog key with
  | Some f -> f
  | None -> fail "unknown function %s" key

(* [sym_fn m fn args] symbolically evaluates [fn] on argument atoms to
   its result atom and the field next-value updates the call performs
   (for stateful filters, on its own receiver); raises
   [Unsynthesizable] on unsupported constructs. *)
let rec sym_fn m (fn : Ir.func) (args : string list) : string
    * (int * string) list =
  let env =
    { vars = List.combine fn.fn_params args; fields = []; ret = fn.fn_ret }
  in
  match sym_block m env fn.fn_body with
  | Returned e, env -> e, env.fields
  | Fell_through env, _ when fn.fn_ret = Ir.Unit -> "0", env.fields
  | Fell_through _, _ -> fail "%s does not return on every path" fn.fn_key

and sym_block m env (b : Ir.block) : outcome * env =
  match b with
  | [] -> Fell_through env, env
  | i :: rest -> (
    match sym_instr m env i with
    | Returned e, env -> Returned e, env
    | Fell_through env, _ -> sym_block m env rest)

and sym_instr m env (i : Ir.instr) : outcome * env =
  match i with
  | Ir.I_let (v, r) | Ir.I_set (v, r) ->
    let e, env = sym_rhs m env r in
    let env = set_var env v (bind m ~hint:v.v_name v.v_ty e) in
    Fell_through env, env
  | Ir.I_setfield (_, slot, x) ->
    let env = set_field env slot (sym_operand env x) in
    Fell_through env, env
  | Ir.I_if (c, a, b) -> (
    let c = sym_operand env c in
    let oa, _ = sym_block m env a in
    let ob, _ = sym_block m env b in
    match oa, ob with
    | Returned ea, Returned eb when ea = eb ->
      (* no mux of a value with itself; void functions return "0" *)
      Returned ea, env
    | Returned ea, Returned eb ->
      Returned (bind m ~hint:"ret" env.ret (mux c ea eb)), env
    | Fell_through ea, Fell_through eb ->
      (* Merge: a binding the branches leave different becomes a mux.
         One bound on a single side only is local to that branch; it
         keeps its one value, which a mux with itself would equal. *)
      let merge get set hint_ty base keys =
        List.fold_left
          (fun acc k ->
            match get ea k, get eb k with
            | Some x, Some y when x <> y ->
              let hint, ty = hint_ty k in
              set acc k (bind m ~hint ty (mux c x y))
            | Some x, _ | None, Some x -> set acc k x
            | None, None -> acc)
          base keys
      in
      let keys get =
        List.sort_uniq compare (List.map fst (get ea) @ List.map fst (get eb))
      in
      let env =
        merge
          (fun e k -> List.assoc_opt k e.vars)
          set_var
          (fun (v : Ir.var) -> v.v_name, v.v_ty)
          env
          (keys (fun e -> e.vars))
      in
      let env =
        merge
          (fun e k -> List.assoc_opt k e.fields)
          set_field (reg_of m) env
          (keys (fun e -> e.fields))
      in
      Fell_through env, env
    | _ ->
      fail "mixed return/fall-through branches are not synthesizable")
  | Ir.I_return (Some o) -> Returned (sym_operand env o), env
  | Ir.I_return None -> Returned "0", env
  | Ir.I_do r ->
    let _, env = sym_rhs m env r in
    Fell_through env, env
  | Ir.I_astore _ | Ir.I_while _ | Ir.I_run_graph _ ->
    fail "construct rejected by synthesis feasibility analysis"

and sym_operand env (o : Ir.operand) =
  match o with
  | Ir.O_var v -> lookup_var env v
  | Ir.O_const c -> const_text c

(* The text of a right-hand side over atoms: an atom, or one operator
   application for the caller to bind. *)
and sym_rhs m env (r : Ir.rhs) : string * env =
  match r with
  | Ir.R_op o -> sym_operand env o, env
  | Ir.R_unop (u, a) -> unop_text u (sym_operand env a), env
  | Ir.R_binop (b, x, y) ->
    binop_text b (sym_operand env x) (sym_operand env y), env
  | Ir.R_field (_, slot) -> (
    (* Reads see any pending write in this activation. *)
    match List.assoc_opt slot env.fields with
    | Some e -> e, env
    | None -> Printf.sprintf "field_%d" slot, env)
  | Ir.R_call (key, args) ->
    let args = List.map (sym_operand env) args in
    let fn = find_fn m.prog key in
    (* Enum methods receive their receiver as an ordinary data value;
       class-instance methods act on the module's own register file
       (the receiver handle is structural, not a datapath value), so
       drop the handle and import the callee's field updates. *)
    let args =
      match fn.fn_kind with
      | Ir.K_instance cls | Ir.K_ctor cls
        when Ir.String_map.mem cls m.prog.Ir.classes -> (
        match args with _ :: rest -> "<this>" :: rest | [] -> args)
      | Ir.K_instance _ | Ir.K_ctor _ | Ir.K_static -> args
    in
    let e, field_updates = sym_fn m fn args in
    let env =
      List.fold_left (fun env (slot, e) -> set_field env slot e) env
        field_updates
    in
    e, env
  | Ir.R_alen _ | Ir.R_aload _ | Ir.R_newarr _ | Ir.R_freeze _
  | Ir.R_newobj _ | Ir.R_map _ | Ir.R_reduce _ | Ir.R_mkgraph _ ->
    fail "construct rejected by synthesis feasibility analysis"

(* The wire declarations and the result and field next-value atoms of
   a stage function applied to [args]. *)
let datapath prog ~regs fn args =
  let m = { prog; regs; wires = Hashtbl.create 64; decls = [] } in
  let result, field_updates = sym_fn m fn args in
  String.concat "" (List.rev m.decls), result, field_updates

(* --- module text ----------------------------------------------------- *)

let filter_module_text (prog : Ir.program) (st : Netlist.stage) : string =
  (* Port widths come from the netlist stage: the declared type's
     width, or narrower when the range analysis proved a bound. *)
  let in_w = st.st_in_width in
  let out_w = st.st_out_width in
  let fn = find_fn prog st.st_fn in
  let fields =
    match fn.fn_kind with
    | Ir.K_instance cls -> (
      match Ir.String_map.find_opt cls prog.classes with
      | Some meta -> meta.cm_fields
      | None -> [])
    | Ir.K_static | Ir.K_ctor _ -> []
  in
  let args =
    match fn.fn_kind with
    | Ir.K_instance _ -> [ "<this>"; "in_data_typed" ]
    | Ir.K_static | Ir.K_ctor _ -> [ "in_data_typed" ]
  in
  let wires, result, field_updates = datapath prog ~regs:fields fn args in
  let field_regs =
    String.concat ""
      (List.mapi
         (fun slot (name, ty) ->
           Printf.sprintf "  reg [%d:0] field_%d; // %s\n"
             (width_of_ty ty - 1) slot name)
         fields)
  in
  let field_commits =
    String.concat ""
      (List.map
         (fun (slot, e) -> Printf.sprintf "          field_%d <= %s;\n" slot e)
         field_updates)
  in
  Printf.sprintf
    "// Task %s (filter %s), generated by the Liquid Metal FPGA backend.\n\
     // Unpipelined: one cycle to read, %d to compute, one to publish.\n\
     module %s (\n\
    \  input  wire clk,\n\
    \  input  wire rst,\n\
    \  input  wire in_valid,\n\
    \  input  wire [%d:0] in_data,\n\
    \  output wire in_ready,\n\
    \  output reg  out_valid,\n\
    \  output reg  [%d:0] out_data,\n\
    \  input  wire out_ready\n\
     );\n\
    \  localparam IDLE = 2'd0, COMPUTE = 2'd1, PUBLISH = 2'd2;\n\
    \  reg [1:0] state;\n\
    \  reg [%d:0] latched;\n\
    \  reg [7:0] count;\n\
     %s\
    \  wire [%d:0] in_data_typed = in_data;\n\
     %s\
    \  wire [%d:0] result = %s;\n\
    \  assign in_ready = (state == IDLE);\n\
    \  always @(posedge clk) begin\n\
    \    if (rst) begin\n\
    \      state <= IDLE; out_valid <= 1'b0; count <= 8'd0;\n\
    \    end else begin\n\
    \      out_valid <= 1'b0;\n\
    \      case (state)\n\
    \        IDLE: if (in_valid) begin\n\
    \          latched <= in_data;\n\
    \          count <= 8'd%d;\n\
    \          state <= COMPUTE;\n\
    \        end\n\
    \        COMPUTE: if (count <= 8'd1) begin\n\
    \          out_data <= result;\n\
     %s\
    \          state <= PUBLISH;\n\
    \        end else count <= count - 8'd1;\n\
    \        PUBLISH: if (out_ready) begin\n\
    \          out_valid <= 1'b1;\n\
    \          state <= IDLE;\n\
    \        end\n\
    \      endcase\n\
    \    end\n\
    \  end\n\
     endmodule\n"
    st.st_uid st.st_fn st.st_latency (sanitize st.st_name) (in_w - 1)
    (out_w - 1) (in_w - 1) field_regs (in_w - 1) wires (out_w - 1) result
    st.st_latency field_commits

(* Fully pipelined variant for fused segments: the composed datapath
   registers at every cycle boundary (a [st_latency]-deep shift
   register of valid/data pairs), so the module accepts a new element
   every cycle — initiation interval 1 — and the result emerges
   [st_latency] cycles later. Stateless datapaths only: raises
   [Unsynthesizable] if the stage has register state. *)
let pipelined_module_text (prog : Ir.program) (st : Netlist.stage) : string =
  let in_w = st.st_in_width in
  let out_w = st.st_out_width in
  let depth = max 1 st.st_latency in
  let wires, result, field_updates =
    datapath prog ~regs:[] (find_fn prog st.st_fn) [ "in_data_typed" ]
  in
  if field_updates <> [] then
    fail "pipelined module %s has register state" st.st_fn;
  Printf.sprintf
    "// Task %s (fused filter %s), generated by the Liquid Metal FPGA \
     backend.\n\
     // Fully pipelined: initiation interval 1, latency %d cycles.\n\
     module %s (\n\
    \  input  wire clk,\n\
    \  input  wire rst,\n\
    \  input  wire in_valid,\n\
    \  input  wire [%d:0] in_data,\n\
    \  output wire in_ready,\n\
    \  output wire out_valid,\n\
    \  output wire [%d:0] out_data,\n\
    \  input  wire out_ready\n\
     );\n\
    \  wire [%d:0] in_data_typed = in_data;\n\
     %s\
    \  wire [%d:0] result = %s;\n\
    \  reg  [%d:0] stage_data [0:%d];\n\
    \  reg  [%d:0] stage_valid;\n\
    \  integer k;\n\
    \  assign in_ready = out_ready;\n\
    \  always @(posedge clk) begin\n\
    \    if (rst) stage_valid <= 0;\n\
    \    else if (out_ready) begin\n\
    \      stage_data[0] <= result;\n\
    \      stage_valid[0] <= in_valid;\n\
    \      for (k = 1; k < %d; k = k + 1) begin\n\
    \        stage_data[k] <= stage_data[k-1];\n\
    \        stage_valid[k] <= stage_valid[k-1];\n\
    \      end\n\
    \    end\n\
    \  end\n\
    \  assign out_valid = stage_valid[%d];\n\
    \  assign out_data = stage_data[%d];\n\
     endmodule\n"
    st.st_uid st.st_fn depth (sanitize st.st_name) (in_w - 1) (out_w - 1)
    (in_w - 1) wires (out_w - 1) result (out_w - 1) (depth - 1) (depth - 1)
    depth (depth - 1) (depth - 1)

(* The standard FIFO whose output registers on the next rising edge. *)
let fifo_module_text ~depth =
  Printf.sprintf
    "// Depth-%d FIFO with registered output: a value written at cycle t\n\
     // is visible at the output at cycle t+1 (Figure 4 behaviour).\n\
     module lm_fifo #(parameter W = 32, parameter DEPTH = %d) (\n\
    \  input  wire clk,\n\
    \  input  wire rst,\n\
    \  input  wire wr_en,\n\
    \  input  wire [W-1:0] wr_data,\n\
    \  output wire full,\n\
    \  input  wire rd_en,\n\
    \  output reg  [W-1:0] rd_data,\n\
    \  output reg  rd_valid\n\
     );\n\
    \  reg [W-1:0] mem [0:DEPTH-1];\n\
    \  reg [$clog2(DEPTH):0] count;\n\
    \  reg [$clog2(DEPTH)-1:0] rd_ptr, wr_ptr;\n\
    \  assign full = (count == DEPTH);\n\
    \  always @(posedge clk) begin\n\
    \    if (rst) begin count <= 0; rd_ptr <= 0; wr_ptr <= 0; rd_valid <= 0; end\n\
    \    else begin\n\
    \      if (wr_en && !full) begin mem[wr_ptr] <= wr_data; wr_ptr <= wr_ptr + 1; end\n\
    \      rd_valid <= (count != 0);\n\
    \      rd_data <= mem[rd_ptr];\n\
    \      if (rd_en && count != 0) rd_ptr <= rd_ptr + 1;\n\
    \      count <= count + (wr_en && !full) - (rd_en && count != 0);\n\
    \    end\n\
    \  end\n\
     endmodule\n"
    depth depth

let pipeline_text (prog : Ir.program) (pl : Netlist.pipeline) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "// Pipeline %s: %d stage(s), generated by the Liquid Metal FPGA \
        backend.\n\
        // Floating-point operators (fadd/fmul/...) reference vendor FP \
        cores.\n\n"
       pl.Netlist.pl_name
       (List.length pl.Netlist.pl_stages));
  Buffer.add_string buf (fifo_module_text ~depth:pl.Netlist.pl_fifo_depth);
  Buffer.add_char buf '\n';
  List.iter
    (fun st ->
      Buffer.add_string buf
        (if pl.Netlist.pl_pipelined then pipelined_module_text prog st
         else filter_module_text prog st);
      Buffer.add_char buf '\n')
    pl.Netlist.pl_stages;
  (* top-level wiring *)
  let stage_arr = Array.of_list pl.Netlist.pl_stages in
  let w_in =
    if Array.length stage_arr > 0 then stage_arr.(0).Netlist.st_in_width
    else width_of_ty pl.Netlist.pl_input_ty
  in
  let w_out =
    if Array.length stage_arr > 0 then
      stage_arr.(Array.length stage_arr - 1).Netlist.st_out_width
    else width_of_ty pl.Netlist.pl_output_ty
  in
  Buffer.add_string buf
    (Printf.sprintf
       "module %s_top (\n\
       \  input  wire clk,\n\
       \  input  wire rst,\n\
       \  input  wire in_valid,\n\
       \  input  wire [%d:0] in_data,\n\
       \  output wire in_ready,\n\
       \  output wire out_valid,\n\
       \  output wire [%d:0] out_data,\n\
       \  input  wire out_ready\n\
        );\n"
       (sanitize pl.Netlist.pl_name) (w_in - 1) (w_out - 1));
  List.iteri
    (fun i st ->
      let n = sanitize st.Netlist.st_name in
      Buffer.add_string buf
        (Printf.sprintf
           "  wire f%d_valid; wire [%d:0] f%d_data; wire f%d_ready;\n\
           \  lm_fifo #(.W(%d)) fifo_%d (.clk(clk), .rst(rst),\n\
           \    .wr_en(%s), .wr_data(%s), .full(),\n\
           \    .rd_en(f%d_ready), .rd_data(f%d_data), .rd_valid(f%d_valid));\n\
           \  %s %s_inst (.clk(clk), .rst(rst),\n\
           \    .in_valid(f%d_valid), .in_data(f%d_data), .in_ready(f%d_ready),\n\
           \    .out_valid(s%d_valid), .out_data(s%d_data), .out_ready(1'b1));\n\
           \  wire s%d_valid; wire [%d:0] s%d_data;\n"
           i
           (st.Netlist.st_in_width - 1)
           i i st.Netlist.st_in_width i
           (if i = 0 then "in_valid" else Printf.sprintf "s%d_valid" (i - 1))
           (if i = 0 then "in_data" else Printf.sprintf "s%d_data" (i - 1))
           i i i n n i i i i i i
           (st.Netlist.st_out_width - 1)
           i))
    pl.Netlist.pl_stages;
  let last = List.length pl.Netlist.pl_stages - 1 in
  Buffer.add_string buf
    (Printf.sprintf
       "  assign in_ready = 1'b1;\n\
       \  assign out_valid = s%d_valid;\n\
       \  assign out_data = s%d_data;\n\
        endmodule\n"
       last last);
  Buffer.contents buf
