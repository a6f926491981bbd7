module Ir = Lime_ir.Ir
module I = Lime_ir.Interp

(* Behavioral synthesis: deciding which filters the FPGA backend can
   implement, estimating their compute latency, and assembling
   pipelines.

   The paper is explicit that its FPGA device compiler is "a work in
   progress" with a narrower feature set than the GPU backend
   (sections 5 and 7); our exclusion rules mirror that: scalar port
   types only, no arrays, no unbounded loops (no FSM inference yet),
   no dynamic allocation. Stateful filters with scalar fields are
   allowed — fields become registers. *)

type verdict = Suitable | Excluded of string

exception Unsuitable of string

let reject fmt = Format.kasprintf (fun s -> raise (Unsuitable s)) fmt

let scalar_ty = Ir.scalar_ty

(* Per-program memo of function analyses. The verdict and datapath
   depth of a function are properties of the call graph alone (a
   recursion rejection means the function is on a cycle, which is
   stack-independent), so both successes and failures are safe to
   cache. The compiler driver threads one cache through the whole
   FPGA backend, so each callee is walked once per compile instead of
   once per enclosing subchain. *)
type cache = (string, (float, string) result) Hashtbl.t

let make_cache () : cache = Hashtbl.create 32

(* Early rejection from the interprocedural effect summaries
   ([Analysis.Effects]) before any structural walk — the same
   relaxation the GPU backend applies: what matters is what the
   function provably does, not its declared locality. Field reads and
   writes are the one effect pair the FPGA allows (fields become
   registers). This is only a fast negative: a pure function can
   still be structurally unsynthesizable (loops, array reads,
   intrinsics, recursion), so a clean summary does not skip the walk
   — the [cache] is what skips re-walks. *)
let effect_reject summaries key =
  List.iter
    (fun (w : Analysis.Effects.witness) ->
      match w.Analysis.Effects.w_effect with
      | Analysis.Effects.Reads_field _ | Analysis.Effects.Writes_field _ -> ()
      | Analysis.Effects.Writes_array -> reject "array stores are not synthesizable"
      | Analysis.Effects.Allocates_array | Analysis.Effects.Freezes_array ->
        reject "dynamic allocation on the FPGA"
      | Analysis.Effects.Allocates _ -> reject "object allocation on the FPGA"
      | Analysis.Effects.Nested_parallel ->
        reject "nested data parallelism on the FPGA"
      | Analysis.Effects.Builds_graph | Analysis.Effects.Runs_graph ->
        reject "nested task graphs are not synthesizable"
      | Analysis.Effects.Calls_unknown f -> reject "unknown function %s" f)
    (Analysis.Effects.summary summaries key)

(* Walk a function (inlining callees) verifying synthesizability and
   computing the maximum operation count along any path — the datapath
   depth that determines compute latency. *)
let rec analyze_fn (prog : Ir.program) ?effects ?cache ~stack (key : string) :
    float =
  if Lime_ir.Intrinsics.is_intrinsic key then
    reject "%s needs a floating-point IP core (transcendental intrinsics \
            are beyond the work-in-progress FPGA backend)" key;
  if List.mem key stack then reject "%s is recursive" key;
  let compute () =
    (match effects with Some s -> effect_reject s key | None -> ());
    match Ir.find_func prog key with
    | None -> reject "unknown function %s" key
    | Some fn ->
      (* locality is no constraint here: a global function that passes
         the structural checks below has no way left to perform an
         unsynthesizable effect *)
      List.iter
        (fun (p : Ir.var) ->
          match p.v_ty with
          | t when scalar_ty t -> ()
          | Ir.Obj _ when fn.fn_kind <> Ir.K_static -> ()
            (* the receiver of a stateful filter is the register file *)
          | t ->
            reject "%s: port type %s not synthesizable" key (Ir.ty_to_string t))
        fn.fn_params;
      analyze_block prog ?effects ?cache ~stack:(key :: stack) fn.fn_body
  in
  match cache with
  | None -> compute ()
  | Some c -> (
    match Hashtbl.find_opt c key with
    | Some (Ok ops) -> ops
    | Some (Error reason) -> raise (Unsuitable reason)
    | None -> (
      match compute () with
      | ops ->
        Hashtbl.replace c key (Ok ops);
        ops
      | exception Unsuitable reason ->
        Hashtbl.replace c key (Error reason);
        raise (Unsuitable reason)))

and analyze_block prog ?effects ?cache ~stack (b : Ir.block) : float =
  List.fold_left
    (fun acc i -> acc +. analyze_instr prog ?effects ?cache ~stack i)
    0.0 b

and analyze_instr prog ?effects ?cache ~stack (i : Ir.instr) : float =
  match i with
  | Ir.I_let (_, r) | Ir.I_set (_, r) | Ir.I_do r ->
    analyze_rhs prog ?effects ?cache ~stack r
  | Ir.I_astore _ -> reject "array stores are not synthesizable"
  | Ir.I_setfield _ -> 1.0  (* register write *)
  | Ir.I_if (_, a, b) ->
    (* A mux: both sides are elaborated; latency is the deeper path. *)
    1.0
    +. Float.max
         (analyze_block prog ?effects ?cache ~stack a)
         (analyze_block prog ?effects ?cache ~stack b)
  | Ir.I_while _ ->
    reject "loops need FSM inference (FPGA backend work in progress)"
  | Ir.I_return _ -> 0.0
  | Ir.I_run_graph _ -> reject "nested task graphs are not synthesizable"

and analyze_rhs prog ?effects ?cache ~stack (r : Ir.rhs) : float =
  match r with
  | Ir.R_op _ -> 0.0
  | Ir.R_unop _ -> 1.0
  | Ir.R_binop ((Ir.Div_i | Ir.Rem_i | Ir.Div_f | Ir.Rem_f), _, _) -> 8.0
  | Ir.R_binop ((Ir.Mul_i | Ir.Mul_f), _, _) -> 2.0
  | Ir.R_binop (_, _, _) -> 1.0
  | Ir.R_alen _ | Ir.R_aload _ -> reject "array access is not synthesizable"
  | Ir.R_call (key, _) -> 1.0 +. analyze_fn prog ?effects ?cache ~stack key
  | Ir.R_field _ -> 0.5  (* register read *)
  | Ir.R_newarr _ | Ir.R_freeze _ -> reject "dynamic allocation on the FPGA"
  | Ir.R_newobj _ -> reject "object allocation on the FPGA"
  | Ir.R_map _ | Ir.R_reduce _ -> reject "nested data parallelism on the FPGA"
  | Ir.R_mkgraph _ -> reject "nested task graphs are not synthesizable"

let check_filter ?effects ?cache (prog : Ir.program) (f : Ir.filter_info) :
    verdict =
  let key =
    match f.target with
    | Ir.F_static key -> key
    | Ir.F_instance (cls, m) -> cls ^ "." ^ m
  in
  match
    if not (scalar_ty f.input) then
      reject "input port %s is not scalar" (Ir.ty_to_string f.input)
    else if not (scalar_ty f.output) then
      reject "output port %s is not scalar" (Ir.ty_to_string f.output)
    else ignore (analyze_fn prog ?effects ?cache ~stack:[] key)
  with
  | () -> Suitable
  | exception Unsuitable reason -> Excluded reason

(* Datapath operations per clock cycle at the target frequency. *)
let ops_per_cycle = 4.0

let latency_of ?effects ?cache prog (f : Ir.filter_info) : int =
  let key =
    match f.target with
    | Ir.F_static key -> key
    | Ir.F_instance (cls, m) -> cls ^ "." ^ m
  in
  let ops = analyze_fn prog ?effects ?cache ~stack:[] key in
  max 1 (int_of_float (ceil (ops /. ops_per_cycle)))

(* Data-port width: the declared type's width, narrowed when the range
   analysis proves the values fit fewer bits. Only I32 ports can
   narrow — Bit/Bool/Enum widths are already tight and F32 is an
   opaque bit pattern. *)
let port_width (ty : Ir.ty) (itv : Analysis.Interval.t) =
  let type_width = Netlist.width_of_ty ty in
  match ty with
  | Ir.I32 -> (
    match Analysis.Interval.width itv with
    | Some w -> max 1 (min type_width w)
    | None -> type_width)
  | _ -> type_width

(* Build a pipeline netlist for a chain of suitable filters. Instance
   receivers (register state) are supplied by the runtime at
   substitution time. Value intervals flow stage to stage, so a
   narrowing filter (say [x & 255]) shrinks every downstream wire. *)
let pipeline_of_chain ?effects ?cache (prog : Ir.program) ~name
    ?(fifo_depth = 2) ?(pipelined = false)
    (filters : (Ir.filter_info * I.v option) list) : Netlist.pipeline =
  if filters = [] then Netlist.fail "empty filter chain";
  List.iteri
    (fun _i (f, _) ->
      match check_filter ?effects ?cache prog f with
      | Suitable -> ()
      | Excluded reason -> Netlist.fail "filter %s excluded: %s" f.Ir.uid reason)
    filters;
  let first_input =
    match filters with ((f : Ir.filter_info), _) :: _ -> f.input | [] -> Ir.Unit
  in
  let rev_stages, _, _ =
    List.fold_left
      (fun (acc, in_itv, i) ((f : Ir.filter_info), state) ->
        let key =
          match f.target with
          | Ir.F_static key -> key
          | Ir.F_instance (cls, m) -> cls ^ "." ^ m
        in
        let args =
          match Ir.find_func prog key with
          | Some fn when fn.Ir.fn_kind <> Ir.K_static ->
            [ Analysis.Interval.top; in_itv ]
          | _ -> [ in_itv ]
        in
        let out_itv = Analysis.Range.return_interval prog key ~args in
        let stage =
          {
            Netlist.st_name = Printf.sprintf "%s_%d" (String.map (fun c ->
              if c = '.' || c = '@' || c = '/' then '_' else c) key) i;
            st_uid = f.uid;
            st_fn = key;
            st_state = state;
            st_latency = latency_of ?effects ?cache prog f;
            st_input_ty = f.input;
            st_output_ty = f.output;
            st_in_width = port_width f.input in_itv;
            st_out_width = port_width f.output out_itv;
          }
        in
        stage :: acc, out_itv, i + 1)
      ([], Analysis.Range.of_ty prog first_input, 0)
      filters
  in
  let stages = List.rev rev_stages in
  let first = List.hd stages in
  let last = List.nth stages (List.length stages - 1) in
  {
    Netlist.pl_name = name;
    pl_stages = stages;
    pl_input_ty = first.Netlist.st_input_ty;
    pl_output_ty = last.Netlist.st_output_ty;
    pl_fifo_depth = fifo_depth;
    pl_pipelined = pipelined;
  }
