(* Whole-program fuzzing: generate random (but always terminating)
   Lime functions with int, float and boolean locals, branches, bounded
   loops, calls and array traffic, then require the reference
   interpreter, the bytecode VM and the optimized bytecode VM to agree
   exactly — same value, or the same trap. This is the broad-spectrum
   differential net over the three CPU-side execution paths. *)

module I = Lime_ir.Interp
module V = Wire.Value
open QCheck2.Gen

(* --- source generator -------------------------------------------------- *)

(* Three functions, all run by the harness. [g(float u, int k, boolean
   c)] returns a float. [f(int a, int b, float p, boolean q)] returns
   an int, and [h] with the same parameters returns a float; both may
   call [g], so typed argument binding and boxed returns meet random
   code. Each declares an int array xs of length 8 first; indices are
   masked with (e & 7) so access never traps, while a dedicated "risky"
   division exercises trap agreement. Floats reach [f]'s result through
   comparisons, which see signed zeros, infinities and NaN. *)

(* The variables in scope, by type. *)
type env = { ints : string list; floats : string list; bools : string list }

let fresh_names = [ "x"; "y"; "z"; "w"; "t0"; "t1" ]
let float_lits = [ "0.0f"; "0.5f"; "1.5f"; "-2.25f"; "3.0f"; "100.0f" ]

let bin fmt = map2 (Printf.sprintf fmt)

(* Int, float and boolean expressions of size [n]; [~calls] lets a
   float expression call [g]. *)
let rec gen_exprs ~calls env n : string t * string t * string t =
  let vars xs leaf = if xs = [] then leaf else oneof [ leaf; oneofl xs ] in
  let int_leaf = vars env.ints (map string_of_int (int_range (-20) 200)) in
  let float_leaf = vars env.floats (oneofl float_lits) in
  let bool_leaf = vars env.bools (oneofl [ "true"; "false" ]) in
  if n <= 0 then int_leaf, oneof [ float_leaf; int_leaf ], bool_leaf
  else
    let i, f, b = gen_exprs ~calls env (n / 2) in
    let int_expr =
      oneof
        [
          bin "(%s + %s)" i i;
          bin "(%s - %s)" i i;
          bin "(%s * %s)" i i;
          (* guarded division: never traps *)
          bin "(%s / (1 + (%s & 15)))" i i;
          (* risky division: may trap; all engines must agree *)
          bin "(%s / (%s %% 5))" i i;
          bin "(%s ^ %s)" i i;
          bin "(%s << (%s & 7))" i i;
          map (Printf.sprintf "(~%s)") i;
          map (Printf.sprintf "xs[%s & 7]") i;
          map3 (Printf.sprintf "(%s <= %s ? %s : (0 - 3))") i i i;
          map3 (Printf.sprintf "(%s ? %s : %s)") b i i;
        ]
    in
    let float_expr =
      oneof
        ([
           bin "(%s + %s)" f f;
           bin "(%s - %s)" f f;
           bin "(%s * %s)" f f;
           bin "(%s / %s)" f f;
           bin "(%s %% %s)" f f;
           map (Printf.sprintf "(-(%s))") f;
           (* int-to-float widening *)
           bin "(%s + %s)" f i;
           map3 (Printf.sprintf "(%s ? %s : %s)") b f f;
         ]
        @
        if calls then [ map3 (Printf.sprintf "g(%s, %s, %s)") f i b ] else [])
    in
    let bool_expr =
      oneof
        [
          map3 (fun x op y -> Printf.sprintf "(%s %s %s)" x op y) i
            (oneofl [ "<"; "<="; "=="; "!="; ">" ])
            i;
          map3 (fun x op y -> Printf.sprintf "(%s %s %s)" x op y) f
            (oneofl [ "<"; "<="; "=="; "!="; ">"; ">=" ])
            f;
          map (Printf.sprintf "(!%s)") b;
          bin "(%s && %s)" b b;
          bin "(%s || %s)" b b;
          bin "(%s == %s)" b b;
          bin "(%s != %s)" b b;
        ]
    in
    int_expr, float_expr, bool_expr

let gen_int_expr ~calls env = sized (fun n -> let i, _, _ = gen_exprs ~calls env n in i)
let gen_float_expr ~calls env = sized (fun n -> let _, f, _ = gen_exprs ~calls env n in f)
let gen_bool_expr ~calls env = sized (fun n -> let _, _, b = gen_exprs ~calls env n in b)

(* Statements consume a name budget so variable declarations stay
   unique; loops use fresh loop counters i<n> with literal bounds. *)
let gen_stmts ~calls env : (env * string list) t =
  let gen_int = gen_int_expr ~calls and gen_float = gen_float_expr ~calls in
  let gen_bool = gen_bool_expr ~calls in
  let rec go depth env names loops =
    if names = [] || depth > 3 then return (env, [])
    else
      let leaf_assign =
        let targets =
          List.map (fun x -> x, gen_int env) env.ints
          @ List.map (fun x -> x, oneof [ gen_float env; gen_int env ]) env.floats
          @ List.map (fun x -> x, gen_bool env) env.bools
        in
        let* target, e = oneofl targets in
        let* e = e in
        return (env, [ Printf.sprintf "%s = %s;" target e ])
      in
      let decl =
        match names with
        | [] -> leaf_assign
        | name :: _rest ->
          let declare ty env e =
            map (fun e -> env, [ Printf.sprintf "%s %s = %s;" ty name e ]) e
          in
          oneof
            [
              declare "int" { env with ints = name :: env.ints } (gen_int env);
              declare "float"
                { env with floats = name :: env.floats }
                (oneof [ gen_float env; gen_int env ]);
              declare "boolean" { env with bools = name :: env.bools } (gen_bool env);
            ]
      in
      let astore =
        let* idx = gen_int env in
        let* e = gen_int env in
        return (env, [ Printf.sprintf "xs[%s & 7] = %s;" idx e ])
      in
      let branch =
        let* c = gen_bool env in
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
        let declared = env.ints @ env.floats @ env.bools in
        let remaining = List.filter (fun n -> not (List.mem n declared)) names in
        let* env, rest = go depth env remaining loops in
        return (env, first @ rest)
      else return (env, first)
  in
  go 0 env fresh_names 0

let gen_program : string t =
  let body ~calls env ret =
    let* env, stmts = gen_stmts ~calls env in
    let* r = ret env in
    return (String.concat "\n      " (stmts @ [ r ]))
  in
  let* g =
    body ~calls:false { ints = [ "k" ]; floats = [ "u" ]; bools = [ "c" ] } (fun env ->
        map (Printf.sprintf "return %s;") (gen_float_expr ~calls:false env))
  in
  let params = { ints = [ "a"; "b" ]; floats = [ "p" ]; bools = [ "q" ] } in
  let* f =
    body ~calls:true params (fun env ->
        map (Printf.sprintf "return %s ^ xs[0];") (gen_int_expr ~calls:true env))
  in
  let* h = gen_float_expr ~calls:true params in
  return
    (Printf.sprintf
       {|
class Fuzz {
  local static float g(float u, int k, boolean c) {
    int[] xs = new int[8];
    xs[0] = k;
    %s
  }
  local static int f(int a, int b, float p, boolean q) {
    int[] xs = new int[8];
    xs[0] = a;
    xs[7] = b;
    %s
  }
  local static float h(int a, int b, float p, boolean q) {
    int[] xs = new int[8];
    xs[0] = a;
    xs[7] = b;
    return %s;
  }
}
|}
       g f h)

(* [f]'s inputs: two ints, a float among the edge values, a boolean. *)
let gen_inputs =
  quad (int_range (-100) 100) (int_range (-100) 100)
    (oneofl [ 0.0; -0.0; 1.5; -7.25; 1e30; infinity; neg_infinity; nan ])
    bool

(* --- differential harness ---------------------------------------------- *)

type outcome = Value of V.t | Trap

let show_outcome = function
  | Value v -> V.to_string v
  | Trap -> "<trap>"

(* Values compare under [Wire.Value.equal]: OCaml's [=] has NaN unequal
   to itself. *)
let same_one a b =
  match a, b with
  | Value x, Value y -> V.equal x y
  | Trap, Trap -> true
  | _ -> false

(* an engine's outcomes of [f], [g] and [h] *)
let same = List.for_all2 same_one
let show os = String.concat ", " (List.map show_outcome os)

let show_inputs (a, b, p, q) = Printf.sprintf "a=%d b=%d p=%h q=%b" a b p q

let run_engines src (a, b, p, q) : (string * outcome list) list =
  let prog =
    Lime_ir.Lower.lower
      (Lime_types.Typecheck.check (Lime_syntax.Parser.parse ~file:"fuzz" src))
  in
  let opt = Lime_ir.Opt.optimize prog in
  let f_args =
    [ I.Prim (V.Int a); I.Prim (V.Int b); I.Prim (V.Float p); I.Prim (V.Bool q) ]
  and g_args = [ I.Prim (V.Float p); I.Prim (V.Int a); I.Prim (V.Bool q) ] in
  let all run = [ run "Fuzz.f" f_args; run "Fuzz.g" g_args; run "Fuzz.h" f_args ] in
  let interp p =
    all (fun key args ->
        match I.call p key args with
        | I.Prim v -> Value v
        | _ -> Trap
        | exception I.Runtime_error _ -> Trap)
  in
  let vm p =
    let vm = Bytecode.Vm.prepare (Bytecode.Compile.compile_program p) in
    all (fun key args ->
        match (Bytecode.Vm.run vm key args).value with
        | I.Prim v -> Value v
        | _ -> Trap
        | exception I.Runtime_error _ -> Trap
        | exception Bytecode.Vm.Vm_error _ -> Trap)
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
    ~print:(fun (src, inputs) ->
      Printf.sprintf "%s\n%s\n%s" (show_inputs inputs) src
        (String.concat "\n"
           (List.map
              (fun (n, o) -> n ^ " = " ^ show o)
              (run_engines src inputs))))
    (pair gen_program gen_inputs)
    (fun (src, inputs) ->
      match run_engines src inputs with
      | (_, first) :: rest -> List.for_all (fun (_, o) -> same o first) rest
      | [] -> false)

(* Generated programs must also always typecheck and parse. *)
let prop_generated_programs_compile =
  QCheck2.Test.make ~name:"fuzz: generated programs compile" ~count:250
    ~print:(fun s -> s) gen_program (fun src ->
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
    (pair gen_program gen_inputs)
    (fun (src, inputs) ->
      let printed =
        Lime_syntax.Pretty.program_to_string
          (Lime_syntax.Parser.parse ~file:"fuzz" src)
      in
      List.for_all2
        (fun (_, x) (_, y) -> same x y)
        (run_engines src inputs) (run_engines printed inputs))

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
