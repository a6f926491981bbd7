(* The VM's launch entries against one [Vm.run] per element.

   A launch ([Vm.map], [Vm.fold], [Vm.apply_all], [Vm.apply]) runs a
   function over a whole stream on one frame and one run state. It must
   be indistinguishable from a call per element: the same values, the
   same count per element, on a device program the same memory bytes
   and branch signature per element, and a trap at element k raised
   with the same text after exactly elements 0 to k-1 were reported.
   The kernels are generated, so nobody hand-wrote the cases. *)

module I = Lime_ir.Interp
module V = Wire.Value
module Vm = Bytecode.Vm
module R = Support.Rng

let compile src =
  Bytecode.Compile.compile_program
    (Lime_ir.Lower.lower
       (Lime_types.Typecheck.check (Lime_syntax.Parser.parse ~file:"launch" src)))

(* --- generated programs -------------------------------------------------- *)

type ty = I32 | F32 | B

let ty_name = function I32 -> "int" | F32 -> "float" | B -> "boolean"

(* A generator for case [seed], one of two streams; xorshift's first
   draws from small seeds look alike, so the seed is scrambled. *)
let rng_of seed stream =
  R.create ~seed:(Int64.mul (Int64.of_int ((2 * seed) + stream)) 0x9E3779B97F4A7C15L) ()

let pick rng xs = List.nth xs (R.int rng (List.length xs))
let chance rng k = R.int rng k = 0

(* Expressions over the variables in scope, by type. [risky] lets an
   int expression divide by an int parameter mod 7, which traps on
   some elements. *)
type scope = { ints : string list; floats : string list; bools : string list }

let rec gen_int rng sc ~risky d =
  let leaf () =
    if sc.ints <> [] && not (chance rng 4) then pick rng sc.ints
    else string_of_int (R.int rng 40)
  in
  if d <= 0 then leaf ()
  else
    let i () = gen_int rng sc ~risky (d - 1) in
    match R.int rng 9 with
    | 0 | 1 -> leaf ()
    | 2 -> Printf.sprintf "(%s + %s)" (i ()) (i ())
    | 3 -> Printf.sprintf "(%s * %s)" (i ()) (i ())
    | 4 -> Printf.sprintf "(%s - %s)" (i ()) (i ())
    | 5 when risky && sc.ints <> [] ->
      Printf.sprintf "(%s / (%s %% 7))" (i ()) (pick rng sc.ints)
    | 5 -> Printf.sprintf "(%s / (1 + (%s & 7)))" (i ()) (i ())
    | 6 -> Printf.sprintf "G.ih(%s, %s)" (i ()) (i ())
    | 7 ->
      let c = gen_bool rng sc ~risky (d - 1) in
      Printf.sprintf "(%s ? %s : %s)" c (i ()) (i ())
    | _ -> Printf.sprintf "(%s ^ %s)" (i ()) (i ())

and gen_float rng sc ~risky d =
  let leaf () =
    if sc.floats <> [] && not (chance rng 4) then pick rng sc.floats
    else pick rng [ "0.5f"; "1.5f"; "-2.25f"; "3.0f" ]
  in
  if d <= 0 then leaf ()
  else
    let f () = gen_float rng sc ~risky (d - 1) in
    match R.int rng 9 with
    | 0 | 1 -> leaf ()
    | 2 -> Printf.sprintf "(%s + %s)" (f ()) (f ())
    | 3 -> Printf.sprintf "(%s * %s)" (f ()) (f ())
    | 4 -> Printf.sprintf "(%s + %s)" (f ()) (gen_int rng sc ~risky (d - 1))
    | 5 -> Printf.sprintf "Math.sqrt(Math.abs(%s))" (f ())
    | 6 -> Printf.sprintf "Math.min(%s, %s)" (f ()) (f ())
    | 7 -> Printf.sprintf "G.fh(%s)" (f ())
    | _ ->
      let c = gen_bool rng sc ~risky (d - 1) in
      Printf.sprintf "(%s ? %s : %s)" c (f ()) (f ())

and gen_bool rng sc ~risky d =
  let leaf () =
    if sc.bools <> [] && not (chance rng 3) then pick rng sc.bools
    else pick rng [ "true"; "false" ]
  in
  if d <= 0 then leaf ()
  else
    match R.int rng 6 with
    | 0 -> leaf ()
    | 1 | 2 ->
      Printf.sprintf "(%s < %s)" (gen_int rng sc ~risky (d - 1)) (gen_int rng sc ~risky (d - 1))
    | 3 ->
      Printf.sprintf "(%s >= %s)" (gen_float rng sc ~risky (d - 1))
        (gen_float rng sc ~risky (d - 1))
    | 4 -> Printf.sprintf "G.bh(%s)" (gen_int rng sc ~risky (d - 1))
    | _ -> Printf.sprintf "(!%s)" (gen_bool rng sc ~risky (d - 1))

let gen_of rng sc ~risky d = function
  | I32 -> gen_int rng sc ~risky d
  | F32 -> gen_float rng sc ~risky d
  | B -> gen_bool rng sc ~risky d

let scope_of params =
  let named t = List.filter_map (fun (n, t') -> if t = t' then Some n else None) params in
  { ints = named I32; floats = named F32; bools = named B }

(* A body over [params]: a branch, a bounded loop and, with
   [store_param], an assignment to one of the parameters. *)
let gen_body rng params ~ret ~risky ~store_param =
  let sc = scope_of params in
  let cond = gen_bool rng sc ~risky 2 in
  let t = pick rng [ I32; F32; B ] in
  let local = Printf.sprintf "%s v = %s;" (ty_name t) (gen_of rng sc ~risky 2 t) in
  let sc' =
    match t with
    | I32 -> { sc with ints = "v" :: sc.ints }
    | F32 -> { sc with floats = "v" :: sc.floats }
    | B -> { sc with bools = "v" :: sc.bools }
  in
  let assign t' name = Printf.sprintf "%s = %s;" name (gen_of rng sc' ~risky 2 t') in
  let branch = Printf.sprintf "if (%s) { %s } else { %s }" cond (assign t "v") (assign t "v") in
  let loop =
    match sc.ints with
    | i :: _ when t = I32 ->
      Printf.sprintf "for (int j = 0; j < (%s & 3); j++) { v = v + j; }" i
    | _ -> ""
  in
  let store =
    if store_param then
      let name, t' = pick rng params in
      assign t' name
    else ""
  in
  String.concat "\n    "
    [ local; branch; loop; store; Printf.sprintf "return %s;" (gen_of rng sc' ~risky 3 ret) ]

let helpers =
  {|  local static int ih(int x, int y) { return (x * 3) + (y & 15); }
  local static float fh(float u) { return (u * 0.5f) + Math.sqrt((u * u) + 1.0f); }
  local static boolean bh(int x) { return (x & 1) == 0; }
|}

(* A map kernel: one to four parameters, each mapped or not, at least
   one mapped; [store_param] makes the body assign a parameter. *)
type kernel = {
  k_params : (ty * bool) list;
  k_ret : ty;
  k_store : bool;
  k_source : string;
}

let gen_kernel rng =
  let n = 1 + R.int rng 4 in
  let k_params =
    List.init n (fun _ -> pick rng [ I32; F32; B ], chance rng 2)
  in
  let k_params =
    if List.exists snd k_params then k_params
    else (fst (List.hd k_params), true) :: List.tl k_params
  in
  let k_ret = pick rng [ I32; F32; B ] and k_store = chance rng 2 in
  let named = List.mapi (fun j (t, _) -> Printf.sprintf "p%d" j, t) k_params in
  let body = gen_body rng named ~ret:k_ret ~risky:(chance rng 2) ~store_param:k_store in
  let k_source =
    Printf.sprintf "  local static %s k(%s) {\n    %s\n  }\n" (ty_name k_ret)
      (String.concat ", " (List.map (fun (n, t) -> ty_name t ^ " " ^ n) named))
      body
  in
  { k_params; k_ret; k_store; k_source }

(* A combiner [c(a, b)] of ints or floats, and a chain of one to three
   one-parameter stages [s0], [s1], ... whose types line up. *)
let gen_combiner rng =
  let t = pick rng [ I32; F32 ] in
  let params = [ "a", t; "b", t ] in
  ( t,
    Printf.sprintf "  local static %s c(%s a, %s b) {\n    %s\n  }\n" (ty_name t) (ty_name t)
      (ty_name t)
      (gen_body rng params ~ret:t ~risky:(chance rng 2) ~store_param:(chance rng 2)) )

let gen_chain rng =
  let n = 1 + R.int rng 3 in
  let tys = List.init (n + 1) (fun _ -> pick rng [ I32; F32; B ]) in
  let stages =
    List.init n (fun s ->
        let t_in = List.nth tys s and t_out = List.nth tys (s + 1) in
        Printf.sprintf "  local static %s s%d(%s x) {\n    %s\n  }\n" (ty_name t_out) s
          (ty_name t_in)
          (gen_body rng [ "x", t_in ] ~ret:t_out ~risky:(chance rng 2)
             ~store_param:(chance rng 2)))
  in
  List.hd tys, List.init n (Printf.sprintf "G.s%d"), String.concat "" stages

type case = {
  seed : int;
  kernel : kernel;
  comb_ty : ty;
  chain_in : ty;
  chain : string list;
  source : string;
}

let gen_case seed =
  let rng = rng_of seed 1 in
  let kernel = gen_kernel rng in
  let comb_ty, comb = gen_combiner rng in
  let chain_in, chain, stages = gen_chain rng in
  let source =
    Printf.sprintf "public class G {\n%s%s%s%s}\n" helpers kernel.k_source comb stages
  in
  { seed; kernel; comb_ty; chain_in; chain; source }

(* Element values: ints small enough that some are 0 mod 7. *)
let gen_array rng t n : V.t =
  match t with
  | I32 -> V.Int_array (Array.init n (fun _ -> R.int rng 61 - 30))
  | F32 -> V.Float_array (Array.init n (fun _ -> V.f32 (R.float_range rng (-4.0) 4.0)))
  | B -> V.Bool_array (R.bool_array rng n)

let gen_scalar rng t : V.t =
  match t with
  | I32 -> V.Int (R.int rng 61 - 30)
  | F32 -> V.Float (V.f32 (R.float_range rng (-4.0) 4.0))
  | B -> V.Bool (chance rng 2)

let ir_ty = function I32 -> Lime_ir.Ir.I32 | F32 -> Lime_ir.Ir.F32 | B -> Lime_ir.Ir.Bool

(* A case's launch: [len] elements from [off] of the kernel's mapped
   arguments and of the combiner's array, and a chain input of [len]. *)
type inputs = { off : int; len : int; args : (V.t * bool) list; comb : V.t; input : V.t }

let inputs c =
  let rng = rng_of c.seed 2 in
  let len = 1 + R.int rng 24 and off = R.int rng 4 and margin = R.int rng 3 in
  let args =
    List.map
      (fun (t, mapped) ->
        (if mapped then gen_array rng t (off + len + margin) else gen_scalar rng t), mapped)
      c.kernel.k_params
  in
  let comb = gen_array rng c.comb_ty (off + len + margin) in
  { off; len; args; comb; input = gen_array rng c.chain_in len }

(* --- running both ways ------------------------------------------------------ *)

(* An outcome: the value, or the trap by constructor and text, and
   what each element reported. *)
type outcome = {
  value : (V.t, string) result;
  reports : (int * int * int) list;  (** executed, mem bytes, branch signature *)
}

let trap_text = function
  | Vm.Vm_error m -> "Vm_error: " ^ m
  | Vm.Device_error m -> "Device_error: " ^ m
  | I.Runtime_error m -> "Runtime_error: " ^ m
  | e -> raise e

(* A program, and the lane its elements are read from: a host program
   reads zeros. *)
type target = { prog : Vm.program; lane : Vm.lane }

let host u = { prog = Vm.prepare u; lane = { Vm.mem_bytes = 0; branch_sig = 0 } }

let device u =
  let lane = { Vm.mem_bytes = 0; branch_sig = 0 } in
  { prog = Vm.prepare_device Gpu.Simt.weights lane u; lane }

let reset t =
  t.lane.mem_bytes <- 0;
  t.lane.branch_sig <- 0

(* Run [f] with a per-element reporter that reads and resets the lane,
   as the SIMT's does. *)
let observe t (f : (int -> unit) -> V.t) : outcome =
  let reports = ref [] in
  reset t;
  let report n =
    reports := (n, t.lane.mem_bytes, t.lane.branch_sig) :: !reports;
    reset t
  in
  let value = match f report with v -> Ok v | exception e -> Error (trap_text e) in
  { value; reports = List.rev !reports }

(* The reference: one [Vm.run] per element. *)
let run_each t key (args : I.v list) ~report =
  reset t;
  let r = Vm.run t.prog key args in
  report r.Vm.executed;
  r.Vm.value

let map_reference t key elem (args : (V.t * bool) list) ~off ~len report =
  let out = I.new_array elem len in
  for i = 0 to len - 1 do
    let args =
      List.map (fun (a, mapped) -> I.Prim (if mapped then I.array_get a (off + i) else a)) args
    in
    I.array_set out i (I.prim_exn (run_each t key args ~report))
  done;
  I.freeze out

let fold_reference t key a ~off ~len report =
  let acc = ref (I.Prim (I.array_get a off)) in
  for j = 1 to len - 1 do
    acc := run_each t key [ !acc; I.Prim (I.array_get a (off + j)) ] ~report
  done;
  I.prim_exn !acc

let chain_reference t stages elem (input : V.t) report =
  let n = I.array_length input in
  let out = I.new_array elem n in
  for i = 0 to n - 1 do
    reset t;
    let executed = ref 0 in
    let x =
      List.fold_left
        (fun x key ->
          let r = Vm.run t.prog key [ x ] in
          executed := !executed + r.Vm.executed;
          r.Vm.value)
        (I.Prim (I.array_get input i))
        stages
    in
    report !executed;
    I.array_set out i (I.prim_exn x)
  done;
  I.freeze out

let agree what (a : outcome) (b : outcome) =
  let same =
    (match a.value, b.value with
    | Ok x, Ok y -> V.equal x y
    | Error x, Error y -> String.equal x y
    | _ -> false)
    && a.reports = b.reports
  in
  if not same then
    QCheck2.Test.fail_reportf "%s: %s after %d element(s) vs %s after %d" what
      (match a.value with Ok v -> V.to_string v | Error m -> m)
      (List.length a.reports)
      (match b.value with Ok v -> V.to_string v | Error m -> m)
      (List.length b.reports);
  true

let check_case c =
  let u = compile c.source in
  let { off; len = n; args; comb; input } = inputs c in
  let out_ty =
    let last = List.nth c.chain (List.length c.chain - 1) in
    (Lime_ir.Ir.String_map.find last u.Bytecode.Compile.u_funcs).c_ret
  in
  List.for_all
    (fun (side, t) ->
      let elem = ir_ty c.kernel.k_ret in
      let boxed = List.map (fun (a, mapped) -> I.Prim a, mapped) args in
      agree (side ^ " map")
        (observe t (fun r -> Vm.map t.prog "G.k" ~elem boxed ~off ~len:n r))
        (observe t (map_reference t "G.k" elem args ~off ~len:n))
      && agree (side ^ " fold")
           (observe t (fun r -> Vm.fold t.prog "G.c" comb ~off ~len:n r))
           (observe t (fold_reference t "G.c" comb ~off ~len:n))
      && agree (side ^ " one-element fold")
           (observe t (fun r -> Vm.fold t.prog "G.c" comb ~off ~len:1 r))
           (observe t (fold_reference t "G.c" comb ~off ~len:1))
      &&
      let filters = List.map (fun s -> s, None) c.chain in
      let chain = Vm.chain t.prog filters in
      agree (side ^ " chain")
        (observe t (fun r ->
             let out = I.new_array out_ty n in
             Vm.apply_all t.prog filters r input ~into:out;
             I.freeze out))
        (observe t (chain_reference t c.chain out_ty input))
      && agree (side ^ " chain, element by element")
           (observe t (fun r ->
                let out = I.new_array out_ty n in
                for i = 0 to n - 1 do
                  I.array_set out i (Vm.apply chain r (I.array_get input i))
                done;
                I.freeze out))
           (observe t (chain_reference t c.chain out_ty input)))
    [ "host", host u; "device", device u ]

let prop_launch_matches_calls =
  QCheck2.Test.make ~name:"launches equal one run per element" ~count:150
    ~print:(fun seed -> (gen_case seed).source)
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed -> check_case (gen_case seed))

(* The generator reaches what the property is about: every parameter
   type mapped and unmapped, a kernel that stores to a parameter, and
   kernels that trap part-way through a launch. *)
let test_generator_coverage () =
  let cases = List.init 150 gen_case in
  let has p = List.exists p cases in
  List.iter
    (fun t ->
      List.iter
        (fun mapped ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s" (ty_name t) (if mapped then "mapped" else "unmapped"))
            true
            (has (fun c -> List.mem (t, mapped) c.kernel.k_params)))
        [ true; false ])
    [ I32; F32; B ];
  Alcotest.(check bool) "stores to a parameter" true (has (fun c -> c.kernel.k_store));
  let traps =
    List.filter
      (fun c ->
        let t = host (compile c.source) in
        let i = inputs c in
        let args = List.map (fun (a, mapped) -> I.Prim a, mapped) i.args in
        let o =
          observe t (fun r ->
              Vm.map t.prog "G.k" ~elem:(ir_ty c.kernel.k_ret) args ~off:i.off ~len:i.len r)
        in
        Result.is_error o.value && o.reports <> [])
      cases
  in
  Alcotest.(check bool) "a kernel traps after its first element" true (traps <> [])

(* Minor words per element of the four call-bound kernels at their
   default sizes through [Exec.call], after one warm-up call, under
   bytecode only and under the default policy. The bounds are a quarter
   of what one boxed call per element cost (42.1, 66.2, 49.1 and 234.5
   words under bytecode only; 40.2, 64.2, 47.1 and 232.8 by default), so
   boxing per element again fails here. blackscholes' seven [Math]
   calls per element run unboxed too (0.7 and 1.0 words; 28.7 and 29.0
   when each boxed its argument and result), so its bound is 2 words. *)
let test_words_per_element () =
  let words policy name =
    let wl = Workloads.find name in
    let c = Liquid_metal.Compiler.compile ~file:(name ^ ".lime") wl.Workloads.source in
    let e = Liquid_metal.Compiler.engine ?policy c in
    let n = wl.Workloads.default_size in
    let args = wl.Workloads.args ~size:n in
    let call () = ignore (Runtime.Exec.call e wl.Workloads.entry args) in
    call ();
    let before = Gc.minor_words () in
    call ();
    (Gc.minor_words () -. before) /. float_of_int n
  in
  List.iter
    (fun (name, bytecode, default) ->
      List.iter
        (fun (label, policy, bound) ->
          let w = words policy name in
          if w >= bound then
            Alcotest.failf "%s (%s): %.1f minor words per element, bound %.2f" name label w
              bound)
        [
          "bytecode only", Some Runtime.Substitute.Bytecode_only, bytecode;
          "default policy", None, default;
        ])
    [
      "saxpy", 42.1 /. 4.0, 40.2 /. 4.0;
      "dotproduct", 66.2 /. 4.0, 64.2 /. 4.0;
      "sumsq", 49.1 /. 4.0, 47.1 /. 4.0;
      "blackscholes", 2.0, 2.0;
    ]

let suite =
  ( "launch",
    [
      QCheck_alcotest.to_alcotest prop_launch_matches_calls;
      Alcotest.test_case "generator reaches stores, types and traps" `Quick
        test_generator_coverage;
      Alcotest.test_case "minor words per element" `Quick test_words_per_element;
    ] )
