(* Whole-program fuzzing: generate random (but always terminating)
   Lime functions with locals, branches, bounded loops and array
   traffic, then require the reference interpreter, the bytecode VM and
   the optimized bytecode VM to agree exactly — same value, or the same
   trap. This is the broad-spectrum differential net over the three
   CPU-side execution paths. *)

module I = Lime_ir.Interp
module V = Wire.Value
open QCheck2.Gen

(* --- source generator -------------------------------------------------- *)

(* Environment: names of int variables in scope. The function signature
   is fixed: f(int a, int b). An int array xs of length 8 is always
   declared first; indices are masked with (e & 7) so access never
   traps, while a dedicated "risky" form exercises trap agreement. *)

let fresh_names = [ "x"; "y"; "z"; "w"; "t0"; "t1" ]

let gen_int_expr (env : string list) : string t =
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ map string_of_int (int_range (-20) 200); oneofl env ]
      else
        let sub = self (n / 2) in
        oneof
          [
            map2 (fun x y -> Printf.sprintf "(%s + %s)" x y) sub sub;
            map2 (fun x y -> Printf.sprintf "(%s - %s)" x y) sub sub;
            map2 (fun x y -> Printf.sprintf "(%s * %s)" x y) sub sub;
            (* guarded division: never traps *)
            map2 (fun x y -> Printf.sprintf "(%s / (1 + (%s & 15)))" x y) sub sub;
            (* risky division: may trap; all engines must agree *)
            map2 (fun x y -> Printf.sprintf "(%s / (%s %% 5))" x y) sub sub;
            map2 (fun x y -> Printf.sprintf "(%s ^ %s)" x y) sub sub;
            map2 (fun x y -> Printf.sprintf "(%s << (%s & 7))" x y) sub sub;
            map (fun x -> Printf.sprintf "(~%s)" x) sub;
            map (fun x -> Printf.sprintf "xs[%s & 7]" x) sub;
            map3
              (fun c x y -> Printf.sprintf "(%s <= %s ? %s : (0 - 3))" c x y)
              sub sub sub;
          ])

let gen_cond env =
  let* a = gen_int_expr env in
  let* b = gen_int_expr env in
  let* op = oneofl [ "<"; "<="; "=="; "!="; ">" ] in
  return (Printf.sprintf "%s %s %s" a op b)

(* Statements consume a name budget so variable declarations stay
   unique; loops use fresh loop counters i<n> with literal bounds. *)
let gen_stmts env : string t =
  let rec go depth env names loops =
    if names = [] || depth > 3 then return (env, [])
    else
      let leaf_assign =
        let* target = oneofl env in
        let* e = gen_int_expr env in
        return (env, [ Printf.sprintf "%s = %s;" target e ])
      in
      let decl =
        match names with
        | [] -> leaf_assign
        | name :: _rest ->
          let* e = gen_int_expr env in
          return (name :: env, [ Printf.sprintf "int %s = %s;" name e ])
      in
      let astore =
        let* idx = gen_int_expr env in
        let* e = gen_int_expr env in
        return (env, [ Printf.sprintf "xs[%s & 7] = %s;" idx e ])
      in
      let branch =
        let* c = gen_cond env in
        let* _, then_ = go (depth + 1) env (List.tl names) loops in
        let* _, else_ = go (depth + 1) env (List.tl names) loops in
        return
          ( env,
            [ Printf.sprintf "if (%s) {" c ]
            @ then_
            @ [ "} else {" ]
            @ else_
            @ [ "}" ] )
      in
      let loop =
        let i = Printf.sprintf "i%d" loops in
        let* bound = int_range 0 6 in
        let* _, body = go (depth + 1) env (List.tl names) (loops + 1) in
        return
          ( env,
            [ Printf.sprintf "for (int %s = 0; %s < %d; %s++) {" i i bound i ]
            @ body
            @ [ "}" ] )
      in
      let* env, first =
        if depth = 0 then decl
        else oneof [ decl; leaf_assign; astore; branch; loop ]
      in
      let* more = bool in
      if more && depth <= 1 then
        let remaining = List.filter (fun n -> not (List.mem n env)) names in
        let* env, rest = go depth env remaining loops in
        return (env, first @ rest)
      else return (env, first)
  in
  let* env, stmts = go 0 env fresh_names 0 in
  let* ret = gen_int_expr env in
  return
    (String.concat "\n      " (stmts @ [ Printf.sprintf "return %s ^ xs[0];" ret ]))

let gen_program : string t =
  let env = [ "a"; "b" ] in
  let* body = gen_stmts env in
  return
    (Printf.sprintf
       {|
class Fuzz {
  local static int f(int a, int b) {
    int[] xs = new int[8];
    xs[0] = a;
    xs[7] = b;
    %s
  }
}
|}
       body)

(* --- differential harness ---------------------------------------------- *)

type outcome = Value of V.t | Trap

let show_outcome = function
  | Value v -> V.to_string v
  | Trap -> "<trap>"

let run_engines src (a, b) : (string * outcome) list =
  let prog =
    Lime_ir.Lower.lower
      (Lime_types.Typecheck.check (Lime_syntax.Parser.parse ~file:"fuzz" src))
  in
  let opt = Lime_ir.Opt.optimize prog in
  let args = [ I.Prim (V.Int a); I.Prim (V.Int b) ] in
  let interp p =
    match I.call p "Fuzz.f" args with
    | I.Prim v -> Value v
    | _ -> Trap
    | exception I.Runtime_error _ -> Trap
  in
  let vm p =
    match (Bytecode.Vm.run (Bytecode.Vm.prepare (Bytecode.Compile.compile_program p)) "Fuzz.f" args).value with
    | I.Prim v -> Value v
    | _ -> Trap
    | exception I.Runtime_error _ -> Trap
    | exception Bytecode.Vm.Vm_error _ -> Trap
  in
  [
    "interp", interp prog;
    "vm", vm prog;
    "interp-opt", interp opt;
    "vm-opt", vm opt;
  ]

let prop_engines_agree =
  QCheck2.Test.make ~name:"fuzz: interp = vm = optimized (values and traps)"
    ~count:250
    ~print:(fun (src, (a, b)) ->
      Printf.sprintf "a=%d b=%d\n%s\n%s" a b src
        (String.concat "\n"
           (List.map
              (fun (n, o) -> n ^ " = " ^ show_outcome o)
              (run_engines src (a, b)))))
    (pair gen_program (pair (int_range (-100) 100) (int_range (-100) 100)))
    (fun (src, inputs) ->
      match run_engines src inputs with
      | (_, first) :: rest -> List.for_all (fun (_, o) -> o = first) rest
      | [] -> false)

(* Generated programs must also always typecheck and parse. *)
let prop_generated_programs_compile =
  QCheck2.Test.make ~name:"fuzz: generated programs compile" ~count:250
    gen_program (fun src ->
      match
        Lime_ir.Lower.lower
          (Lime_types.Typecheck.check (Lime_syntax.Parser.parse ~file:"fuzz" src))
      with
      | _ -> true
      | exception Support.Diag.Compile_error _ -> false)

(* And survive a pretty-print/reparse cycle with identical semantics. *)
let prop_fuzz_pretty_roundtrip =
  QCheck2.Test.make ~name:"fuzz: pretty roundtrip preserves semantics"
    ~count:100
    (pair gen_program (pair (int_range (-100) 100) (int_range (-100) 100)))
    (fun (src, inputs) ->
      let printed =
        Lime_syntax.Pretty.program_to_string
          (Lime_syntax.Parser.parse ~file:"fuzz" src)
      in
      run_engines src inputs = run_engines printed inputs)

(* --- fault-schedule fuzzing -------------------------------------------- *)

(* Random seeds x random fault points over the quickstart (Figure 1
   bitflip) and image-pipeline (conv2d) task graphs: whatever the
   schedule, a run must terminate (no deadlock — the scheduler only
   returns once every actor is done, so a normal return also means no
   actor leaked) and produce the bytecode reference output. *)

let gen_fault_clause : string t =
  let* device = oneofl [ "gpu"; "fpga"; "native"; "wire"; "*" ] in
  let* when_ =
    oneof
      [
        return "always";
        map (Printf.sprintf "n=%d") (int_range 0 4);
        map
          (fun xs ->
            "at=" ^ String.concat "/" (List.map string_of_int xs))
          (list_size (int_range 1 3) (int_range 0 5));
        map (Printf.sprintf "p=%.2f") (float_range 0.0 1.0);
      ]
  in
  return (Printf.sprintf "%s:*:%s" device when_)

let gen_fault_schedule : Support.Fault.schedule t =
  let* clauses = list_size (int_range 1 3) gen_fault_clause in
  let* seed = int_range 0 1_000_000 in
  let spec = Printf.sprintf "%s,seed=%d" (String.concat "," clauses) seed in
  match Support.Fault.parse_spec spec with
  | Ok s -> return s
  | Error e -> failwith ("generator produced a bad spec: " ^ e)

let fuzz_graphs =
  lazy
    (List.map
       (fun name ->
         let w = Workloads.find name in
         name, w, Liquid_metal.Compiler.compile w.Workloads.source)
       [ "bitflip"; "conv2d" ])

let fuzz_policies =
  [
    Runtime.Substitute.Prefer_accelerators;
    Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Fpga ];
    Runtime.Substitute.Smallest_substitution;
    Runtime.Substitute.Adaptive;
  ]

let run_graph_under ?schedule compiled (w : Workloads.t) policy =
  Runtime.Store.clear_quarantine compiled.Liquid_metal.Compiler.store;
  let engine =
    Liquid_metal.Compiler.engine ~policy ~max_retries:1 compiled
  in
  (match schedule with
  | None -> Support.Fault.clear ()
  | Some s -> Support.Fault.install s);
  Fun.protect
    ~finally:(fun () ->
      Support.Fault.clear ();
      Runtime.Store.clear_quarantine compiled.Liquid_metal.Compiler.store)
    (fun () -> Runtime.Exec.call engine w.Workloads.entry (w.args ~size:24))

let prop_fault_schedules_are_harmless =
  QCheck2.Test.make
    ~name:"fuzz: fault schedules never deadlock or diverge (bitflip, conv2d)"
    ~count:60
    ~print:(fun (i, schedule, j) ->
      Printf.sprintf "graph #%d policy #%d schedule %s" i j
        (Support.Fault.describe schedule))
    (triple (int_bound 1) gen_fault_schedule
       (int_bound (List.length fuzz_policies - 1)))
    (fun (i, schedule, j) ->
      let _, w, compiled = List.nth (Lazy.force fuzz_graphs) i in
      let policy = List.nth fuzz_policies j in
      let expected =
        run_graph_under compiled w Runtime.Substitute.Bytecode_only
      in
      let got = run_graph_under ~schedule compiled w policy in
      Stdlib.compare expected got = 0)

(* --- lowered map/reduce chunk-fault fuzzing ---------------------------- *)

(* Random scatter widths x random single-launch fault points on the
   lowered saxpy map: whichever chunk (or boundary crossing) dies, the
   per-chunk recovery protocol must land on the bytecode reference. *)
let fuzz_saxpy =
  lazy
    (let w = Workloads.find "saxpy" in
     w, Liquid_metal.Compiler.compile w.Workloads.source)

let run_saxpy_under ?schedule ~policy ~chunks () =
  let w, compiled = Lazy.force fuzz_saxpy in
  Runtime.Store.clear_quarantine compiled.Liquid_metal.Compiler.store;
  let engine =
    Liquid_metal.Compiler.engine ~policy ~max_retries:1 ~map_chunks:chunks
      compiled
  in
  (match schedule with
  | None -> Support.Fault.clear ()
  | Some s -> Support.Fault.install s);
  Fun.protect
    ~finally:(fun () ->
      Support.Fault.clear ();
      Runtime.Store.clear_quarantine compiled.Liquid_metal.Compiler.store)
    (fun () -> Runtime.Exec.call engine w.Workloads.entry (w.args ~size:96))

let prop_chunk_faults_recover =
  QCheck2.Test.make
    ~name:"fuzz: killing a lowered worker chunk mid-flight recovers to bytecode"
    ~count:60
    ~print:(fun (chunks, device, at) ->
      Printf.sprintf "chunks=%d %s:*:at=%d" chunks device at)
    (triple (int_range 1 8)
       (oneofl [ "gpu"; "native"; "wire"; "*" ])
       (int_range 0 8))
    (fun (chunks, device, at) ->
      let spec = Printf.sprintf "%s:*:at=%d" device at in
      let schedule =
        match Support.Fault.parse_spec spec with
        | Ok s -> s
        | Error e -> failwith e
      in
      let expected =
        run_saxpy_under ~policy:Runtime.Substitute.Bytecode_only ~chunks:1 ()
      in
      let got =
        run_saxpy_under ~schedule
          ~policy:Runtime.Substitute.Prefer_accelerators ~chunks ()
      in
      Stdlib.compare expected got = 0)

let suite =
  ( "fuzz",
    [
      QCheck_alcotest.to_alcotest prop_generated_programs_compile;
      QCheck_alcotest.to_alcotest prop_engines_agree;
      QCheck_alcotest.to_alcotest prop_fuzz_pretty_roundtrip;
      QCheck_alcotest.to_alcotest prop_fault_schedules_are_harmless;
      QCheck_alcotest.to_alcotest prop_chunk_faults_recover;
    ] )
