module Ir = Lime_ir.Ir

module I = Lime_ir.Interp
module V = Wire.Value

type v = I.v

exception Vm_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Vm_error s)) fmt

type hooks = {
  on_map : Insn.map_desc -> v list -> v option;
  on_reduce : Insn.reduce_desc -> v -> v option;
  on_run_graph : (Ir.graph_template -> v list -> blocking:bool -> bool) option;
}

let no_hooks =
  { on_map = (fun _ _ -> None); on_reduce = (fun _ _ -> None); on_run_graph = None }

type result = { value : v; executed : int }

(* A function activation's frame: its locals, then one slot per
   operand-stack position. *)
type frame = v array

(* A bytecode function: its frame size and its body. The body starts
   as a stub that specialises the code into closures on the first
   call and replaces itself. *)
type fn = {
  code : Compile.code;
  frame_size : int;
  mutable body : state -> frame -> v;
}

and callee =
  | Fn of fn
  | Intrinsic of (V.t list -> V.t)
  | Missing of string

and program = { unit_ : Compile.unit_; fns : (string, callee) Hashtbl.t }

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

let prepare unit_ = { unit_; fns = Hashtbl.create 16 }

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

(* Where a pushed value lives while its block runs: a constant, or a
   frame slot (a local, or an operand-stack position). *)
type operand = Const of v | Slot of int

let read = function
  | Const x -> fun (_ : frame) -> x
  | Slot i -> fun (fr : frame) -> fr.(i)

(* A binary operation writing slot [d], specialised on where its
   operands live. The right operand is unwrapped first, as it always
   was, so a type error names the same operand. *)
let binop op a b d (k : code) : code =
  match a, b with
  | Slot i, Slot j ->
    fun st fr ->
      let y = prim fr.(j) in
      fr.(d) <- I.Prim (I.eval_binop op (prim fr.(i)) y);
      k st fr
  | Slot i, Const y ->
    let y = prim y in
    fun st fr ->
      fr.(d) <- I.Prim (I.eval_binop op (prim fr.(i)) y);
      k st fr
  | a, b ->
    let a = read a and b = read b in
    fun st fr ->
      let y = prim (b fr) in
      fr.(d) <- I.Prim (I.eval_binop op (prim (a fr)) y);
      k st fr

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

(* The operand-stack depth before each instruction ([-1] where
   unreachable; index [n] is falling off the end), and the deepest
   stack. An instruction that would underflow traps, so nothing
   follows it. *)
let stack_depths (c : Compile.code) =
  let insns = c.c_insns in
  let n = Array.length insns in
  let depth = Array.make (n + 1) (-1) and deepest = ref 0 in
  let rec visit pc d =
    let pc = min pc n in
    if depth.(pc) < 0 then begin
      depth.(pc) <- d;
      if pc < n then
        let pops, pushes = stack_effect insns.(pc) in
        if d >= pops then begin
          let d' = d - pops + pushes in
          deepest := max !deepest d';
          match insns.(pc) with
          | Insn.RET | Insn.RETVOID -> ()
          | Insn.JMP t -> visit t d'
          | Insn.JMPF t ->
            visit (pc + 1) d';
            visit t d'
          | _ -> visit (pc + 1) d'
        end
    end
    else if pc < n && depth.(pc) <> d then
      fail "%s: inconsistent operand stack depth at %d" c.c_key pc
  in
  visit 0 0;
  depth, !deepest

(* Look [key] up once per program. Intrinsics win over functions, as
   they always have; a missing function traps only when called. *)
let rec resolve p key : callee =
  match Hashtbl.find_opt p.fns key with
  | Some c -> c
  | None ->
    let c =
      if Lime_ir.Intrinsics.is_intrinsic key then
        Intrinsic (Lime_ir.Intrinsics.resolve key)
      else
        match Ir.String_map.find_opt key p.unit_.Compile.u_funcs with
        | None -> Missing key
        | Some code ->
          let depths, deepest = stack_depths code in
          let f =
            {
              code;
              frame_size = max code.c_slots code.c_params + deepest;
              body = (fun _ _ -> unit_v);
            }
          in
          f.body <-
            (fun st fr ->
              let body = specialise p f depths in
              f.body <- body;
              body st fr);
          Fn f
    in
    Hashtbl.add p.fns key c;
    c

(* Call [c] on a list of arguments, with the arity check a call has
   always made: a run, an inline map or reduce, a graph filter, and a
   call instruction to anything but a function of its arity. *)
and invoke st (c : callee) (args : v list) : v =
  match c with
  | Intrinsic apply -> (
    (* one dispatch charge for the intrinsic call *)
    st.executed <- st.executed + 1;
    match apply (List.map prim args) with
    | v -> I.Prim v
    | exception Lime_ir.Intrinsics.Error m -> fail "%s" m)
  | Missing key -> fail "no function named %s" key
  | Fn f ->
    let n = List.length args in
    if n <> f.code.c_params then
      fail "%s expects %d argument(s), got %d" f.code.c_key f.code.c_params n;
    let fr = Array.make f.frame_size unit_v in
    List.iteri (fun i a -> fr.(i) <- a) args;
    f.body st fr

(* Inline map: each element application is a real VM call, so the
   instruction count reflects interpretation. *)
and eval_map st callee (desc : Insn.map_desc) (args : v list) : v =
  let pairs = List.combine args desc.bm_flags in
  let lengths =
    List.filter_map
      (fun (a, mapped) ->
        if mapped then Some (I.array_length (prim a)) else None)
      pairs
  in
  let n =
    match lengths with
    | [] -> fail "map needs at least one array argument"
    | n :: rest ->
      if List.exists (fun m -> m <> n) rest then
        fail "mapped arrays have different lengths";
      n
  in
  let result = I.new_array desc.bm_elem_ty n in
  for i = 0 to n - 1 do
    let call_args =
      List.map
        (fun (a, mapped) ->
          if mapped then I.Prim (I.array_get (prim a) i) else a)
        pairs
    in
    I.array_set result i (prim (invoke st callee call_args))
  done;
  I.Prim (I.freeze result)

and eval_reduce st callee (arg : v) : v =
  let p = prim arg in
  let n = I.array_length p in
  if n = 0 then fail "reduce of an empty array";
  let acc = ref (I.Prim (I.array_get p 0)) in
  for i = 1 to n - 1 do
    acc := invoke st callee [ !acc; I.Prim (I.array_get p i) ]
  done;
  !acc

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
    if not handled then run_graph_seq st template ops

(* Default graph execution on the VM: every filter application is a
   bytecode call (the all-bytecode configuration of section 4.1). *)
and run_graph_seq st (template : Ir.graph_template) (ops : v list) : unit =
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
  let nodes = List.rev nodes in
  let source, filters, sink =
    match nodes with
    | (Ir.N_source _, [ arr; _rate ]) :: rest -> (
      let rec split fs = function
        | [ (Ir.N_sink _, [ dest ]) ] -> List.rev fs, dest
        | (Ir.N_filter f, fops) :: rest -> split ((f, fops) :: fs) rest
        | _ -> fail "malformed graph template"
      in
      let fs, dest = split [] rest in
      prim arr, fs, prim dest)
    | _ -> fail "malformed graph template"
  in
  let apply (f : Ir.filter_info) fops x =
    match f.Ir.target, fops with
    | Ir.F_static key, [] -> invoke st (resolve st.prog key) [ x ]
    | Ir.F_instance (cls, m), [ recv ] ->
      invoke st (resolve st.prog (cls ^ "." ^ m)) [ recv; x ]
    | _ -> fail "malformed filter operands"
  in
  for i = 0 to I.array_length source - 1 do
    let x = ref (I.Prim (I.array_get source i)) in
    List.iter (fun (f, fops) -> x := apply f fops !x) filters;
    I.array_set sink i (prim !x)
  done

(* Specialise one function into closures, one chain per basic block.

   The stack depth at every instruction is static, so each operand-stack
   position is a frame slot after the locals. Within a block the stack
   is symbolic: a [load] or [const] pushes the operand itself and its
   consumer reads the local or the constant directly, and an operation
   followed by a [store] writes straight into the stored local. A
   deferred [load] of a local is copied into its stack slot before that
   local is written, and every operand is in its stack slot at a block
   boundary.

   Counts are charged per block, when the block leaves: a run's count
   leaves [run] only on a normal return, so this is exactly the
   per-instruction count. Callees, classes and templates resolve here,
   once; what fails to resolve traps when executed, with the text and
   at the point the instruction always trapped. *)
and specialise p (f : fn) depths : code =
  let c = f.code in
  let insns = c.Compile.c_insns in
  let n = Array.length insns in
  let nl = max c.c_slots c.c_params in
  let leader = Array.make (n + 1) false in
  leader.(0) <- true;
  Array.iteri
    (fun pc i ->
      if depths.(pc) >= 0 then
        match i with
        | Insn.JMP t -> leader.(min t n) <- true
        | Insn.JMPF t ->
          leader.(min t n) <- true;
          leader.(pc + 1) <- true
        | _ -> ())
    insns;
  let fell_off : code =
   fun _ _ -> fail "%s fell off the end without returning a value" c.c_key
  in
  (* a jump reads its target when taken, so blocks may refer to each
     other in any order; a jump to the end falls off it *)
  let blocks = Array.make (n + 1) fell_off in
  let block start : code =
    let nins = ref 0 in
    (* the symbolic stack, top first, and the emitted code in reverse;
       each emitter takes the code that follows it *)
    let stack =
      ref (List.init depths.(start) (fun k -> Slot (nl + depths.(start) - 1 - k)))
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
            let home = nl + depth - 1 - k in
            match o with
            | Slot i when i = home -> o
            | o when moved o ->
              let r = read o in
              emit (fun (next : code) : code ->
                  fun st fr ->
                    fr.(home) <- r fr;
                    next st fr);
              Slot home
            | o -> o)
          !stack
    in
    let settle () = spill (fun _ -> true) in
    let reads s = function Slot i -> i = s | Const _ -> false in
    (* leaving the block charges its instructions *)
    let jump t : code =
      let t = min t n and k = !nins in
      fun st fr ->
        st.executed <- st.executed + k;
        blocks.(t) st fr
    in
    (* The slot a value produced at [pc] goes to: the local a
       following [store] names, or the new top of the stack. Returns
       the pc after the producer (and its store). *)
    let dest pc =
      let next = if pc + 1 < n && not leader.(pc + 1) then Some insns.(pc + 1) else None in
      match next with
      | Some (Insn.STORE s) ->
        incr nins;
        spill (reads s);
        s, pc + 2
      | _ ->
        let d = nl + List.length !stack in
        stack := Slot d :: !stack;
        d, pc + 1
    in
    (* an operation that writes its value into the slot it is given *)
    let produce pc (op : int -> code -> code) =
      let d, next = dest pc in
      emit (op d);
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
      else begin
        incr nins;
        match insns.(pc) with
        | Insn.CONST k ->
          stack := Const (I.Prim (I.const_value k)) :: !stack;
          go (pc + 1)
        | Insn.LOAD s ->
          stack := Slot s :: !stack;
          go (pc + 1)
        | Insn.STORE s ->
          let x = read (pop ()) in
          spill (reads s);
          emit (fun k st fr ->
              fr.(s) <- x fr;
              k st fr);
          go (pc + 1)
        | Insn.DUP ->
          let x = pop () in
          stack := x :: x :: !stack;
          go (pc + 1)
        | Insn.POP ->
          ignore (pop ());
          go (pc + 1)
        | Insn.UNOP op ->
          let a = read (pop ()) in
          go
            (produce pc (fun d k st fr ->
                 fr.(d) <- I.Prim (I.eval_unop op (prim (a fr)));
                 k st fr))
        | Insn.BINOP op ->
          let b = pop () in
          let a = pop () in
          go (produce pc (binop op a b))
        | (Insn.ALOAD | Insn.ALOAD_U) as i ->
          let get =
            if i = Insn.ALOAD then I.array_get else I.array_get_unchecked
          in
          let idx = read (pop ()) in
          let a = read (pop ()) in
          go
            (produce pc (fun d k st fr ->
                 let idx = as_int (idx fr) in
                 fr.(d) <- I.Prim (get (prim (a fr)) idx);
                 k st fr))
        | (Insn.ASTORE | Insn.ASTORE_U) as i ->
          let set =
            if i = Insn.ASTORE then I.array_set else I.array_set_unchecked
          in
          let x = read (pop ()) in
          let idx = read (pop ()) in
          let a = read (pop ()) in
          emit (fun k st fr ->
              let x = prim (x fr) in
              let idx = as_int (idx fr) in
              set (prim (a fr)) idx x;
              k st fr);
          go (pc + 1)
        | Insn.ALEN ->
          let a = read (pop ()) in
          go
            (produce pc (fun d k st fr ->
                 fr.(d) <- I.Prim (V.Int (I.array_length (prim (a fr))));
                 k st fr))
        | Insn.NEWARR ty ->
          let len = read (pop ()) in
          go
            (produce pc (fun d k st fr ->
                 fr.(d) <- I.Prim (I.new_array ty (as_int (len fr)));
                 k st fr))
        | Insn.FREEZE ->
          let a = read (pop ()) in
          go
            (produce pc (fun d k st fr ->
                 fr.(d) <- I.Prim (I.freeze (prim (a fr)));
                 k st fr))
        | Insn.GETFIELD slot ->
          let o = read (pop ()) in
          go
            (produce pc (fun d k st fr ->
                 (match o fr with
                 | I.Obj obj -> fr.(d) <- obj.I.obj_fields.(slot)
                 | _ -> fail "getfield on a non-object");
                 k st fr))
        | Insn.PUTFIELD slot ->
          let x = read (pop ()) in
          let o = read (pop ()) in
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
              (produce pc (fun d k st fr ->
                   fr.(d) <-
                     I.Obj
                       { I.obj_class = cls; obj_fields = Array.map I.default_value tys };
                   k st fr)))
        | Insn.CALL (key, argc) -> (
          let args = List.map read (pops argc) in
          match resolve p key with
          | Fn g when g.code.c_params = argc ->
            let args = Array.of_list args in
            go
              (produce pc (fun d k st fr ->
                   let callee = Array.make g.frame_size unit_v in
                   for j = 0 to argc - 1 do
                     callee.(j) <- args.(j) fr
                   done;
                   fr.(d) <- g.body st callee;
                   k st fr))
          | c ->
            (* an intrinsic, or the trap of a missing function or a
               wrong argument count, as a call from the host *)
            go
              (produce pc (fun d k st fr ->
                   fr.(d) <- invoke st c (List.map (fun a -> a fr) args);
                   k st fr)))
        | Insn.RET ->
          let x = read (pop ()) and k = !nins in
          fun st fr ->
            st.executed <- st.executed + k;
            x fr
        | Insn.RETVOID ->
          let k = !nins in
          fun st _ ->
            st.executed <- st.executed + k;
            unit_v
        | Insn.JMP t ->
          settle ();
          jump t
        | Insn.JMPF t ->
          let cond = read (pop ()) in
          settle ();
          let yes = pc + 1 and no = min t n and k = !nins in
          fun st fr ->
            st.executed <- st.executed + k;
            if as_bool (cond fr) then blocks.(yes) st fr else blocks.(no) st fr
        | Insn.MAP desc ->
          let args = List.map read (pops (List.length desc.bm_flags)) in
          let callee = resolve p desc.bm_fn in
          go
            (produce pc (fun d k st fr ->
                 let args = List.map (fun a -> a fr) args in
                 fr.(d) <-
                   (match st.hooks.on_map desc args with
                   | Some r -> r
                   | None -> eval_map st callee desc args);
                 k st fr))
        | Insn.REDUCE desc ->
          let a = read (pop ()) in
          let callee = resolve p desc.br_fn in
          go
            (produce pc (fun d k st fr ->
                 let a = a fr in
                 fr.(d) <-
                   (match st.hooks.on_reduce desc a with
                   | Some r -> r
                   | None -> eval_reduce st callee a);
                 k st fr))
        | Insn.MKGRAPH (uid, argc) -> (
          match Ir.String_map.find_opt uid p.unit_.u_program.Ir.templates with
          | None -> fun _ _ -> fail "no task-graph template %s" uid
          | Some template ->
            let ops = List.map read (pops argc) in
            go
              (produce pc (fun d k st fr ->
                   let ops = List.map (fun o -> o fr) ops in
                   st.graph_counter <- st.graph_counter + 1;
                   st.pending <- (st.graph_counter, (template, ops)) :: st.pending;
                   fr.(d) <- I.Graph_handle st.graph_counter;
                   k st fr)))
        | Insn.RUNGRAPH blocking ->
          let g = read (pop ()) in
          emit (fun k st fr ->
              (match g fr with
              | I.Graph_handle h -> run_graph st h ~blocking
              | _ -> fail "rungraph on a non-graph");
              k st fr);
          go (pc + 1)
      end
    in
    let last = go start in
    List.fold_left (fun k e -> e k) last !emitted
  in
  for pc = n - 1 downto 0 do
    if leader.(pc) && depths.(pc) >= 0 then blocks.(pc) <- block pc
  done;
  blocks.(0)

let run ?(hooks = no_hooks) p key args =
  let st = { prog = p; hooks; executed = 0; graph_counter = 0; pending = [] } in
  let value = invoke st (resolve p key) args in
  { value; executed = st.executed }
