(* Golden SIMT timings. Every GPU artifact of every workload — map and
   reduce kernels, per-stage filter chains and fused chains — is
   launched at three problem sizes on the inputs it sees during a
   reference-interpreter run of the workload's entry point. One line per
   launch records the modeled timing (floats as %h) and a digest of the
   output, so any change to the simulator's charges or results shows up
   as a diff against test/simt.baseline (`dune runtest`; accept an
   intended change with `dune promote`). *)

module Ir = Lime_ir.Ir
module I = Lime_ir.Interp
module V = Wire.Value
module A = Runtime.Artifact

let launch kind uid ~size f =
  Printf.printf "%s %s n=%d " kind uid size;
  match f () with
  | out, (t : Gpu.Simt.timing) ->
    Printf.printf
      "items=%d mem_bytes=%d compute_cycles=%h kernel_ns=%h \
       avg_divergence_groups=%h out=%s\n"
      t.items t.mem_bytes t.compute_cycles t.kernel_ns t.avg_divergence_groups
      (Golden.digest out)
  | exception (Gpu.Simt.Device_error m | I.Runtime_error m) ->
    Printf.printf "trap %s\n" m

let pack_stream elt (xs : V.t array) =
  let arr = I.new_array elt (Array.length xs) in
  Array.iteri (fun i x -> I.array_set arr i x) xs;
  I.freeze arr

let fn_key (f : Ir.filter_info) =
  match f.target with
  | Ir.F_static key -> key
  | Ir.F_instance (cls, m) -> cls ^ "." ^ m

(* Each template filter with its receiver, if any. *)
let bind_filters (template : Ir.graph_template) ops =
  let rec go nodes ops =
    match nodes, ops with
    | Ir.N_source _ :: rest, src :: _rate :: ops ->
      let fs, _ = go rest ops in
      fs, Some src
    | Ir.N_filter ({ target = Ir.F_static _; _ } as f) :: rest, ops ->
      let fs, src = go rest ops in
      (f, None) :: fs, src
    | Ir.N_filter f :: rest, recv :: ops ->
      let fs, src = go rest ops in
      (f, Some recv) :: fs, src
    | Ir.N_sink _ :: _, [ _ ] | [], [] -> [], None
    | _ -> failwith "malformed graph template"
  in
  go template.Ir.gt_nodes ops

let sink_of ops = List.nth ops (List.length ops - 1)

let run_workload (w : Workloads.t) sizes =
  let c = Liquid_metal.Compiler.compile ~file:(w.name ^ ".lime") w.source in
  let prog = c.unit_.Bytecode.Compile.u_program in
  (* one device program per compile, reused across every size *)
  let sp = Gpu.Simt.prepare c.unit_ in
  let gpu =
    List.filter_map
      (fun (e : A.manifest_entry) ->
        if e.me_device <> A.Gpu then None
        else
          match Runtime.Store.find_on c.store ~uid:e.me_uid ~device:A.Gpu with
          | Some (A.Gpu_kernel ga) -> Some ga
          | _ -> None)
      (Runtime.Store.manifest c.store).A.entries
  in
  if gpu = [] then print_endline "no gpu artifacts";
  let has uid = List.exists (fun ga -> ga.A.ga_uid = uid) gpu in
  List.iter
    (fun size ->
      let on_map (site : Ir.map_site) args =
        if has site.map_uid then begin
          let args = List.map I.prim_exn args in
          launch "map" site.map_uid ~size (fun () ->
              Gpu.Simt.run_map sp site args);
          launch "map-nodiv" site.map_uid ~size (fun () ->
              Gpu.Simt.run_map ~model_divergence:false sp site args)
        end;
        None
      in
      let on_reduce (site : Ir.reduce_site) arg =
        if has site.red_uid then
          launch "reduce" site.red_uid ~size (fun () ->
              Gpu.Simt.run_reduce sp site (I.prim_exn arg));
        None
      in
      (* Run the graph stage by stage, keeping every stage's stream, so
         each chain artifact sees the stream its first member consumes. *)
      let on_run_graph template ops ~blocking =
        ignore blocking;
        let filters, src = bind_filters template ops in
        let src = I.prim_exn (Option.get src) in
        let s0 = Array.init (I.array_length src) (I.array_get src) in
        let streams =
          List.fold_left
            (fun acc ((f : Ir.filter_info), recv) ->
              let prev = List.hd acc in
              let apply x =
                let args = Option.to_list recv @ [ I.Prim x ] in
                I.prim_exn (I.call prog (fn_key f) args)
              in
              Array.map apply prev :: acc)
            [ s0 ] filters
          |> List.rev |> Array.of_list
        in
        let uids = List.map (fun ((f : Ir.filter_info), _) -> f.uid) filters in
        let index_of uid =
          let rec go i = function
            | [] -> None
            | u :: rest -> if u = uid then Some i else go (i + 1) rest
          in
          go 0 uids
        in
        List.iter
          (fun (ga : A.gpu_artifact) ->
            match ga.ga_kind with
            | A.G_filter_chain chain -> (
              let first = List.hd chain in
              let first_uid =
                if A.is_fused_uid ga.ga_uid then
                  List.hd (A.fused_members ga.ga_uid)
                else first.Ir.uid
              in
              match index_of first_uid with
              | None -> ()
              | Some i ->
                let last = List.nth chain (List.length chain - 1) in
                let input = pack_stream first.Ir.input streams.(i) in
                launch "chain" ga.ga_uid ~size (fun () ->
                    Gpu.Simt.run_filter_chain ~uid:ga.ga_uid sp
                      ~chain:(List.map fn_key chain) ~output_ty:last.Ir.output
                      input))
            | A.G_map _ | A.G_reduce _ -> ())
          gpu;
        let sink = I.prim_exn (sink_of ops) in
        Array.iteri
          (fun i x -> I.array_set sink i x)
          streams.(Array.length streams - 1);
        true
      in
      let hooks =
        { I.on_map; on_reduce; on_run_graph = Some on_run_graph }
      in
      ignore (I.call ~hooks prog w.entry (w.args ~size)))
    sizes

(* --- generated kernels ---------------------------------------------------

   Kernels nobody hand-wrote, from a fixed seed, so the timings pin more
   shapes than the workloads have: int, float and boolean elements and
   broadcast scalars, a non-mapped table read at masked indices, bounded
   loops (some bounded by the element, so lanes diverge), [if]s on the
   element, nested device calls, Math intrinsics and, in some kernels, a
   division that traps on some inputs. Each map kernel launches at two
   sizes with divergence modeled and not; each combiner reduces at two
   sizes. *)

module R = Support.Rng

let gen_seed = 0x51D7L
let gen_kernels = 24
let gen_combiners = 6

let pick rng xs = List.nth xs (R.int rng (List.length xs))
let chance rng k = R.int rng k = 0

(* The variables in scope by type, and the ones a statement may assign
   (loop counters and parameters are read-only). *)
type scope = {
  ints : string list;
  floats : string list;
  bools : string list;
  assignable : (string * [ `I | `F | `B ]) list;
}

(* What an expression may call: [ih] and [fh] are the helpers; a
   kernel may call both, [fh] may call [ih]. *)
type gen = {
  rng : R.t;
  calls_ih : bool;
  calls_fh : bool;
  risky : bool;  (** may divide by a value that can be zero *)
  tbl : bool;  (** the table [tbl] is in scope *)
}

let int_lit g =
  let n = R.int g.rng 220 - 20 in
  if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n

let float_lit g =
  pick g.rng [ "0.0f"; "0.5f"; "1.5f"; "-2.25f"; "3.0f"; "0.125f"; "7.75f" ]

(* [fmt] over two generated operands, drawn left to right *)
let two a b fmt =
  let x = a () in
  let y = b () in
  Printf.sprintf fmt x y

let rec gen_int g sc d =
  let leaf () =
    if sc.ints <> [] && not (chance g.rng 4) then pick g.rng sc.ints else int_lit g
  in
  if d <= 0 then leaf ()
  else
    let i () = gen_int g sc (d - 1) in
    match R.int g.rng 14 with
    | 0 | 1 -> leaf ()
    | 2 -> two i i "(%s + %s)"
    | 3 -> two i i "(%s - %s)"
    | 4 -> two i i "(%s * %s)"
    | 5 -> two i i "(%s / (1 + (%s & 15)))"
    | 6 when g.risky -> two i i "(%s / (%s %% 97))"
    | 6 -> two i i "(%s %% (1 + (%s & 7)))"
    | 7 -> two i i "(%s ^ %s)"
    | 8 -> two i i "(%s << (%s & 7))"
    | 9 -> two i i "(%s >> (%s & 7))"
    | 10 when g.tbl -> Printf.sprintf "tbl[%s & 7]" (i ())
    | 11 when g.calls_ih -> two i i "Gen.ih(%s, %s)"
    | 12 ->
      let c = gen_bool g sc (d - 1) in
      let x = i () in
      Printf.sprintf "(%s ? %s : %s)" c x (i ())
    | _ -> Printf.sprintf "(~%s)" (i ())

and gen_float g sc d =
  let leaf () =
    if sc.floats <> [] && not (chance g.rng 4) then pick g.rng sc.floats
    else float_lit g
  in
  if d <= 0 then leaf ()
  else
    let f () = gen_float g sc (d - 1) and i () = gen_int g sc (d - 1) in
    match R.int g.rng 14 with
    | 0 | 1 -> leaf ()
    | 2 -> two f f "(%s + %s)"
    | 3 -> two f f "(%s - %s)"
    | 4 -> two f f "(%s * %s)"
    | 5 -> two f f "(%s / %s)"
    | 6 -> two f i "(%s + %s)"
    | 7 -> Printf.sprintf "Math.sqrt(%s)" (f ())
    | 8 -> Printf.sprintf "Math.exp(%s)" (f ())
    | 9 -> two f f "Math.pow(%s, %s)"
    | 10 when g.calls_fh ->
      let x = f () in
      let y = i () in
      Printf.sprintf "Gen.fh(%s, %s, %s)" x y (gen_bool g sc (d - 1))
    | 11 ->
      let c = gen_bool g sc (d - 1) in
      let x = f () in
      Printf.sprintf "(%s ? %s : %s)" c x (f ())
    | 12 -> Printf.sprintf "(-(%s))" (f ())
    | _ -> Printf.sprintf "(%s * %s)" (f ()) (float_lit g)

and gen_bool g sc d =
  let leaf () =
    if sc.bools <> [] && not (chance g.rng 3) then pick g.rng sc.bools
    else pick g.rng [ "true"; "false" ]
  in
  if d <= 0 then leaf ()
  else
    let b () = gen_bool g sc (d - 1) in
    let compare gen ops =
      let x = gen () in
      let op = pick g.rng ops in
      Printf.sprintf "(%s %s %s)" x op (gen ())
    in
    match R.int g.rng 7 with
    | 0 -> leaf ()
    | 1 | 2 ->
      compare (fun () -> gen_int g sc (d - 1)) [ "<"; "<="; "=="; "!="; ">"; ">=" ]
    | 3 -> compare (fun () -> gen_float g sc (d - 1)) [ "<"; "<="; ">"; ">=" ]
    | 4 -> Printf.sprintf "(!%s)" (b ())
    | 5 -> two b b "(%s && %s)"
    | _ -> two b b "(%s || %s)"

let gen_of g sc d = function
  | `I -> gen_int g sc d
  | `F -> gen_float g sc d
  | `B -> gen_bool g sc d

let ty_name = function `I -> "int" | `F -> "float" | `B -> "boolean"

(* A statement list of at most [budget] statements at nesting [depth];
   [fresh] numbers new variables and loop counters. A declaration in a
   nested block stays local to it. *)
let rec gen_stmts g sc ~fresh ~depth ~bound budget =
  if budget <= 0 then []
  else
    let choice = R.int g.rng (if depth >= 2 then 3 else 5) in
    let choice = if choice <= 2 && sc.assignable = [] then 0 else choice in
    let sc', stmt =
      match choice with
      | 0 ->
        let t = pick g.rng [ `I; `F; `B ] in
        incr fresh;
        let v = Printf.sprintf "v%d" !fresh in
        let e = gen_of g sc 2 t in
        let sc' =
          match t with
          | `I -> { sc with ints = v :: sc.ints }
          | `F -> { sc with floats = v :: sc.floats }
          | `B -> { sc with bools = v :: sc.bools }
        in
        ( { sc' with assignable = (v, t) :: sc.assignable },
          [ Printf.sprintf "%s %s = %s;" (ty_name t) v e ] )
      | 1 | 2 ->
        let v, t = pick g.rng sc.assignable in
        sc, [ Printf.sprintf "%s = %s;" v (gen_of g sc 2 t) ]
      | 3 ->
        let c = gen_bool g sc 2 in
        let a = gen_stmts g sc ~fresh ~depth:(depth + 1) ~bound 2 in
        let b = gen_stmts g sc ~fresh ~depth:(depth + 1) ~bound 2 in
        sc, (Printf.sprintf "if (%s) {" c :: a) @ ("} else {" :: b) @ [ "}" ]
      | _ ->
        incr fresh;
        let i = Printf.sprintf "i%d" !fresh in
        let lim = if chance g.rng 2 then bound else string_of_int (R.int g.rng 6) in
        let sc_body = { sc with ints = i :: sc.ints } in
        let body = gen_stmts g sc_body ~fresh ~depth:(depth + 1) ~bound 2 in
        ( sc,
          (Printf.sprintf "for (int %s = 0; %s < %s; %s++) {" i i lim i :: body)
          @ [ "}" ] )
    in
    stmt @ gen_stmts g sc' ~fresh ~depth ~bound (budget - 1)

let body_text stmts ret = String.concat "\n    " (stmts @ [ ret ])

let gen_source rng =
  let base = { ints = []; floats = []; bools = []; assignable = [] } in
  let fresh = ref 0 in
  let g = { rng; calls_ih = false; calls_fh = false; risky = false; tbl = false } in
  let ih =
    let sc = { base with ints = [ "x"; "y" ] } in
    let stmts = gen_stmts g sc ~fresh ~depth:1 ~bound:"(x & 3)" 2 in
    body_text stmts (Printf.sprintf "return %s;" (gen_int g sc 3))
  in
  let fh =
    let g = { g with calls_ih = true } in
    let sc = { base with ints = [ "k" ]; floats = [ "u" ]; bools = [ "c" ] } in
    let stmts = gen_stmts g sc ~fresh ~depth:1 ~bound:"(k & 3)" 2 in
    body_text stmts (Printf.sprintf "return %s;" (gen_float g sc 3))
  in
  let tys = [| `I; `F; `B |] in
  let kernels =
    List.init gen_kernels (fun k ->
        let elem = tys.(k mod 3) and ret = tys.(k / 3 mod 3) in
        (* int-element kernels at odd k divide by the element mod 97,
           which is zero for some elements *)
        let risky = elem = `I && k mod 2 = 1 in
        let g = { rng; calls_ih = true; calls_fh = true; risky; tbl = true } in
        let sc =
          {
            ints = [ "ki" ] @ (if elem = `I then [ "e" ] else []);
            floats = [ "kf" ] @ (if elem = `F then [ "e" ] else []);
            bools = [ "kb" ] @ (if elem = `B then [ "e" ] else []);
            assignable = [];
          }
        in
        (* the first statement always branches on the element *)
        let on_elem =
          match elem with
          | `I -> Printf.sprintf "((e & %d) == 0)" (1 + R.int rng 3)
          | `F -> "(e < kf)"
          | `B -> "e"
        in
        let bound = match elem with `I -> "(e & 7)" | `F | `B -> "(ki & 3)" in
        let then_ = gen_stmts g sc ~fresh ~depth:1 ~bound 2 in
        let else_ = gen_stmts g sc ~fresh ~depth:1 ~bound 2 in
        let rest = gen_stmts g sc ~fresh ~depth:0 ~bound 3 in
        let stmts =
          (Printf.sprintf "if (%s) {" on_elem :: then_)
          @ ("} else {" :: else_)
          @ ("}" :: rest)
        in
        let ret_expr g sc ret =
          let e = gen_of g sc 3 ret in
          if not risky then e
          else
            match ret with
            | `I -> Printf.sprintf "%s / (e %% 97)" e
            | `F -> Printf.sprintf "%s + (ki / (e %% 97))" e
            | `B -> Printf.sprintf "%s == ((ki / (e %% 97)) > 0)" e
        in
        let name = Printf.sprintf "k%d" k in
        ( (name, elem),
          Printf.sprintf
            "  local static %s %s(%s e, int[[]] tbl, int ki, float kf, boolean kb) {\n    %s\n  }\n\
            \  static %s[[]] run%d(%s[[]] es, int[[]] tbl, int ki, float kf, boolean kb) {\n\
            \    return Gen @ %s(es, tbl, ki, kf, kb);\n  }\n"
            (ty_name ret) name (ty_name elem)
            (body_text stmts (Printf.sprintf "return %s;" (ret_expr g sc ret)))
            (ty_name ret) k (ty_name elem) name ))
  in
  let combiners =
    List.init gen_combiners (fun k ->
        let t = if k mod 2 = 0 then `I else `F in
        let g = { g with calls_ih = true } in
        let sc =
          if t = `I then { base with ints = [ "a"; "b" ] }
          else { base with floats = [ "a"; "b" ] }
        in
        let stmts = gen_stmts g sc ~fresh ~depth:1 ~bound:"3" 2 in
        let name = Printf.sprintf "c%d" k in
        ( (name, t),
          Printf.sprintf
            "  local static %s %s(%s a, %s b) {\n    %s\n  }\n\
            \  static %s red%d(%s[[]] xs) { return Gen @@ %s(xs); }\n"
            (ty_name t) name (ty_name t) (ty_name t)
            (body_text stmts (Printf.sprintf "return %s;" (gen_of g sc 3 t)))
            (ty_name t) k (ty_name t) name ))
  in
  let src =
    Printf.sprintf
      "public class Gen {\n\
      \  local static int ih(int x, int y) {\n    %s\n  }\n\
      \  local static float fh(float u, int k, boolean c) {\n    %s\n  }\n%s%s}\n"
      ih fh
      (String.concat "" (List.map snd kernels))
      (String.concat "" (List.map snd combiners))
  in
  src, List.map fst kernels, List.map fst combiners

let gen_array rng t n : V.t =
  match t with
  | `I -> V.Int_array (Array.init n (fun _ -> R.int rng 2001 - 1000))
  | `F ->
    V.Float_array (Array.init n (fun _ -> V.f32 (R.float_range rng (-4.0) 4.0)))
  | `B -> V.Bool_array (R.bool_array rng n)

let run_generated () =
  let rng = R.create ~seed:gen_seed () in
  let src, kernels, combiners = gen_source rng in
  Printf.printf "== generated (seed %Lx, source %s)\n" gen_seed
    (Digest.to_hex (Digest.string src));
  let c = Liquid_metal.Compiler.compile ~file:"gen.lime" src in
  let prog = c.unit_.Bytecode.Compile.u_program in
  let sp = Gpu.Simt.prepare c.unit_ in
  let sites = Ir.kernel_sites prog in
  let map_site fn =
    List.find_map
      (function `Map (m : Ir.map_site) when m.map_fn = fn -> Some m | _ -> None)
      sites
    |> Option.get
  and reduce_site fn =
    List.find_map
      (function `Reduce (r : Ir.reduce_site) when r.red_fn = fn -> Some r | _ -> None)
      sites
    |> Option.get
  in
  List.iter
    (fun (name, elem) ->
      let site = map_site ("Gen." ^ name) in
      List.iter
        (fun size ->
          let args =
            [
              gen_array rng elem size;
              gen_array rng `I 8;
              V.Int (R.int rng 41 - 20);
              V.Float (V.f32 (R.float_range rng (-2.0) 2.0));
              V.Bool (R.int rng 2 = 1);
            ]
          in
          launch "map" site.map_uid ~size (fun () ->
              Gpu.Simt.run_map sp site args);
          launch "map-nodiv" site.map_uid ~size (fun () ->
              Gpu.Simt.run_map ~model_divergence:false sp site args))
        [ 37; 160 ])
    kernels;
  List.iter
    (fun (name, t) ->
      let site = reduce_site ("Gen." ^ name) in
      List.iter
        (fun size ->
          let arg = gen_array rng t size in
          launch "reduce" site.red_uid ~size (fun () ->
              Gpu.Simt.run_reduce sp site arg))
        [ 37; 160 ])
    combiners

let () =
  List.iter
    (fun (w : Workloads.t) ->
      Printf.printf "== %s\n" w.name;
      let d = w.default_size in
      let sizes =
        match w.category with
        | Workloads.Gpu_map -> [ d / 16; d / 4; d ]
        | Workloads.Pipeline | Workloads.Fpga_stream -> [ d / 4; d; 4 * d ]
      in
      run_workload w sizes)
    Workloads.all;
  run_generated ()
