(* The oracle harness for the map/reduce lowering.

   [Lime_ir.Lower_mapreduce] rewrites every kernel site into a
   scatter/worker/gather task graph and [Runtime.Exec] executes it
   through the ordinary plan/actor/steady-state machinery. That
   rewrite is only admissible if it is *unobservable*: for every
   program, every policy and every stream length the lowered path must
   produce bit-for-bit the value (or the trap) of [Lime_ir.Interp]
   over the unoptimized IR. This suite checks it by brute force over
   the workload suite, over edge-shaped streams (empty, singleton,
   length-not-divisible-by-K), and over randomly generated map/reduce
   bodies with random scatter widths. *)

module Compiler = Liquid_metal.Compiler
module Lm = Liquid_metal.Lm
module Exec = Runtime.Exec
module Store = Runtime.Store
module Substitute = Runtime.Substitute
module Metrics = Runtime.Metrics
module Lmr = Lime_ir.Lower_mapreduce
module Ir = Lime_ir.Ir
module I = Lime_ir.Interp

(* One compile per distinct source; engines are cheap, compiles are
   not. Keyed by the source text itself so the generated programs of
   the properties below share the cache with the workloads. *)
let compiled_cache : (string, Compiler.compiled) Hashtbl.t = Hashtbl.create 64

let compile_cached source =
  match Hashtbl.find_opt compiled_cache source with
  | Some c -> c
  | None ->
    let c = Compiler.compile source in
    Hashtbl.add compiled_cache source c;
    c

(* The oracle agrees on traps too (empty reduce, mismatched map
   arrays), so a run's outcome is a value or a runtime error, and
   traps compare by message. *)
type outcome = Value of I.v | Trap of string

let show_outcome = function
  | Value v -> Format.asprintf "%a" I.pp v
  | Trap m -> "trap: " ^ m

(* Bit-exact agreement: [Wire.Value.equal] compares floats with [=]
   (NaN equal to NaN), never with a tolerance. *)
let same_outcome a b =
  match a, b with
  | Value (I.Prim x), Value (I.Prim y) -> Wire.Value.equal x y
  | Trap m, Trap m' -> String.equal m m'
  | _ -> false

(* The reference: [Lime_ir.Interp] over the unoptimized IR (parse,
   typecheck, lower), so neither the optimizer nor any backend is
   shared with the path under test. *)
let oracle_cache : (string, Ir.program) Hashtbl.t = Hashtbl.create 64

let oracle source entry args : outcome =
  let prog =
    match Hashtbl.find_opt oracle_cache source with
    | Some prog -> prog
    | None ->
      let prog =
        Lime_syntax.Parser.parse ~file:"oracle.lime" source
        |> Lime_types.Typecheck.check |> Lime_ir.Lower.lower
      in
      Hashtbl.add oracle_cache source prog;
      prog
  in
  match I.call prog entry args with
  | v -> Value v
  | exception I.Runtime_error m -> Trap m

let run_path ?map_chunks ?reduce_chunks ~policy source entry args :
    outcome * Metrics.snapshot =
  let c = compile_cached source in
  Store.clear_quarantine c.Compiler.store;
  let engine = Compiler.engine ~policy ?map_chunks ?reduce_chunks c in
  let out =
    match Exec.call engine entry args with
    | v -> Value v
    | exception I.Runtime_error m -> Trap m
    | exception Bytecode.Vm.Vm_error m -> Trap m
  in
  Store.clear_quarantine c.Compiler.store;
  (out, Metrics.snapshot (Exec.metrics engine))

let check_same ~ctx (expected : outcome) (got : outcome) =
  if not (same_outcome expected got) then
    Alcotest.failf
      "%s: lowered path diverged from the interpreter\n  oracle:  %s\n  lowered: %s"
      ctx (show_outcome expected) (show_outcome got)

(* --- the workload matrix ------------------------------------------------ *)

(* Two stream lengths per workload: a round size and one that no small
   chunk count divides evenly, so gather must reassemble unequal
   chunks. *)
let test_sizes =
  [
    "saxpy", (256, 193); "dotproduct", (256, 97); "matmul", (8, 7);
    "conv2d", (8, 5); "nbody", (16, 13); "mandelbrot", (12, 9);
    "sumsq", (4096, 2049); "bitflip", (64, 33); "dsp_chain", (128, 65);
    "prefix_sum", (128, 77);
    "blackscholes", (128, 51); "fir4", (128, 49); "crc8", (64, 21);
  ]

let matrix_policies =
  [
    "bytecode", Substitute.Bytecode_only;
    "gpu", Substitute.Prefer_devices [ Runtime.Artifact.Gpu ];
  ]

let test_workload_differential name () =
  let w = Workloads.find name in
  let round, odd = List.assoc name test_sizes in
  List.iter
    (fun size ->
      let args = w.Workloads.args ~size in
      let expected = oracle w.Workloads.source w.Workloads.entry args in
      List.iter
        (fun (pname, policy) ->
          let ctx what =
            Printf.sprintf "%s / n=%d / %s / %s" name size pname what
          in
          let lowered, m =
            run_path ~policy w.Workloads.source w.Workloads.entry args
          in
          check_same ~ctx:(ctx "lowered") expected lowered;
          (* Forced map scatter width that does not divide the stream.
             Reduces keep their default K=1: a wider reduce
             reassociates the fold, which floating-point combines can
             observe — the exact-arithmetic reassociation cases live in
             [test_edge_lengths_reduce]. *)
          let forced, _ =
            run_path ~policy ~map_chunks:3 w.Workloads.source
              w.Workloads.entry args
          in
          check_same ~ctx:(ctx "map_chunks=3") expected forced;
          if w.Workloads.category = Workloads.Gpu_map && m.Metrics.mr_runs = 0
          then
            Alcotest.failf
              "%s: map/reduce workload ran without a lowered mr run"
              (ctx "metrics"))
        matrix_policies)
    [ round; odd ]

(* --- edge-shaped streams ------------------------------------------------ *)

let edge_source =
  {|
public class Edge {
  local static float fma(float a, float x, float y) {
    return a * x + y;
  }
  local static float add(float a, float b) { return a + b; }
  public static float[[]] runMap(float a, float[[]] xs, float[[]] ys) {
    return Edge @ fma(a, xs, ys);
  }
  public static float runSum(float[[]] xs) {
    return Edge @@ add(xs);
  }
}
|}

let farr n f = Lm.float_array (Array.init n f)

(* Empty, singleton, tiny and around-the-chunk-boundary lengths, under
   scatter widths that do not divide them. *)
let test_edge_lengths_map () =
  List.iter
    (fun n ->
      let args =
        [ Lm.float 2.0; farr n float_of_int; farr n (fun i -> float_of_int (2 * i) -. 1.0) ]
      in
      let expected = oracle edge_source "Edge.runMap" args in
      List.iter
        (fun (pname, policy) ->
          List.iter
            (fun chunks ->
              let lowered, _ =
                run_path ~policy ?map_chunks:chunks edge_source "Edge.runMap"
                  args
              in
              check_same
                ~ctx:
                  (Printf.sprintf "edge map n=%d / %s / K=%s" n pname
                     (match chunks with
                     | None -> "auto"
                     | Some k -> string_of_int k))
                expected lowered)
            [ None; Some 3; Some 7 ])
        matrix_policies)
    [ 0; 1; 2; 3; 5; 7; 1023; 1025 ]

(* Integer-valued floats keep f32 addition exact, so even a chunked
   (reassociated) combine must reproduce the sequential fold bit for
   bit. *)
let test_edge_lengths_reduce () =
  List.iter
    (fun n ->
      let args = [ farr n float_of_int ] in
      let expected = oracle edge_source "Edge.runSum" args in
      List.iter
        (fun (pname, policy) ->
          List.iter
            (fun chunks ->
              let lowered, _ =
                run_path ~policy ?reduce_chunks:chunks edge_source
                  "Edge.runSum" args
              in
              check_same
                ~ctx:
                  (Printf.sprintf "edge reduce n=%d / %s / K=%s" n pname
                     (match chunks with
                     | None -> "auto"
                     | Some k -> string_of_int k))
                expected lowered)
            [ None; Some 3; Some 4 ])
        matrix_policies)
    [ 1; 2; 3; 5; 100; 1025 ]

(* The validation traps must be path-independent: an empty reduce and
   mismatched map arrays raise the interpreter's error on every
   policy. *)
let test_edge_traps () =
  List.iter
    (fun (what, entry, args) ->
      let expected = oracle edge_source entry args in
      (match expected with
      | Trap _ -> ()
      | Value v ->
        Alcotest.failf "%s: expected a trap, got %s" what
          (Format.asprintf "%a" I.pp v));
      List.iter
        (fun (pname, policy) ->
          let lowered, _ = run_path ~policy edge_source entry args in
          check_same
            ~ctx:(Printf.sprintf "%s / %s" what pname)
            expected lowered)
        matrix_policies)
    [
      ("empty reduce", "Edge.runSum", [ farr 0 float_of_int ]);
      ( "mismatched map arrays",
        "Edge.runMap",
        [ Lm.float 1.0; farr 3 float_of_int; farr 5 float_of_int ] );
    ]

(* A lowered run is visible in the metrics: one mr run per site
   execution and exactly the scatter width's worth of chunks. *)
let test_metrics_account_chunks () =
  let n = 4096 in
  let args = [ Lm.float 2.0; farr n float_of_int; farr n float_of_int ] in
  let _, m =
    run_path
      ~policy:(Substitute.Prefer_devices [ Runtime.Artifact.Gpu ])
      ~map_chunks:4 edge_source "Edge.runMap" args
  in
  Alcotest.(check int) "one lowered run" 1 m.Metrics.mr_runs;
  Alcotest.(check int) "four chunks" 4 m.Metrics.mr_chunks

(* --- properties --------------------------------------------------------- *)

(* Random map bodies: arbitrary int arithmetic over (a, x, y) —
   including non-commutative and non-associative operators — must
   survive an arbitrary scatter width on both policies. *)
let gen_body =
  let open QCheck2.Gen in
  sized @@ QCheck2.Gen.fix (fun self n ->
      if n <= 0 then
        oneof [ map string_of_int (int_range (-9) 99); oneofl [ "a"; "x"; "y" ] ]
      else
        let sub = self (n / 2) in
        oneof
          [
            map2 (fun l r -> Printf.sprintf "(%s + %s)" l r) sub sub;
            map2 (fun l r -> Printf.sprintf "(%s - %s)" l r) sub sub;
            map2 (fun l r -> Printf.sprintf "(%s * %s)" l r) sub sub;
            map2 (fun l r -> Printf.sprintf "(%s & %s)" l r) sub sub;
            map2 (fun l r -> Printf.sprintf "(%s ^ %s)" l r) sub sub;
            map2 (fun l r -> Printf.sprintf "(%s / (1 + (%s & 7)))" l r) sub sub;
          ])

let map_source_of body =
  Printf.sprintf
    {|
public class R {
  local static int f(int a, int x, int y) { return %s; }
  public static int[[]] run(int a, int[[]] xs, int[[]] ys) {
    return R @ f(a, xs, ys);
  }
}
|}
    body

let qcheck_random_bodies =
  let open QCheck2 in
  let gen =
    Gen.tup4 gen_body (Gen.int_range 1 8) (Gen.int_range 0 200)
      (Gen.oneofl (List.map snd matrix_policies))
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:40
       ~name:"random map bodies x random K == interpreter" gen
       (fun (body, k, n, policy) ->
         let source = map_source_of body in
         let args =
           [
             Lm.int 3;
             Lm.int_array (Array.init n (fun i -> (i * 7) - 11));
             Lm.int_array (Array.init n (fun i -> 5 - (i * 3)));
           ]
         in
         let lowered, _ = run_path ~policy ~map_chunks:k source "R.run" args in
         same_outcome (oracle source "R.run" args) lowered))

(* Random reduces against ground truth: the lowered path at any
   scatter width equals the sequential left fold computed here in
   OCaml (int addition — exact, so reassociation is harmless). *)
let reduce_source =
  {|
public class S {
  local static int add(int a, int b) { return a + b; }
  public static int run(int[[]] xs) { return S @@ add(xs); }
}
|}

let qcheck_random_reduces =
  let open QCheck2 in
  let gen =
    Gen.tup3
      (Gen.array_size (Gen.int_range 1 400) (Gen.int_range (-1000) 1000))
      (Gen.int_range 1 8)
      (Gen.oneofl (List.map snd matrix_policies))
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:40 ~name:"random reduce x random K == sequential fold"
       gen
       (fun (xs, k, policy) ->
         let expected = Array.fold_left ( + ) xs.(0) (Array.sub xs 1 (Array.length xs - 1)) in
         match
           run_path ~policy ~reduce_chunks:k reduce_source "S.run"
             [ Lm.int_array xs ]
         with
         | Value v, _ -> Lm.as_int v = expected
         | Trap _, _ -> false))

(* --- lowering shape ----------------------------------------------------- *)

(* The lowering itself: every kernel site yields a worker whose UID is
   the site UID (so per-site artifacts substitute directly) and whose
   chunk bounds tile the stream exactly. *)
let test_lowering_shape () =
  let c = compile_cached (Workloads.find "dotproduct").Workloads.source in
  Alcotest.(check int) "two kernel sites" 2
    (Ir.String_map.cardinal c.Compiler.lowered);
  Ir.String_map.iter
    (fun uid (lw : Lmr.lowered) ->
      Alcotest.(check string) "worker uid = site uid" uid
        lw.Lmr.lw_worker.Ir.uid;
      Alcotest.(check bool) "worker is relocatable" true
        lw.Lmr.lw_worker.Ir.relocatable)
    c.Compiler.lowered;
  List.iter
    (fun (n, chunks) ->
      let bounds = Lmr.split_bounds ~n ~chunks in
      Alcotest.(check int) "chunk count" chunks (List.length bounds);
      let total = List.fold_left (fun acc (_, len) -> acc + len) 0 bounds in
      Alcotest.(check int) "bounds tile the stream" n total;
      let rec contiguous pos = function
        | [] -> ()
        | (off, len) :: rest ->
          Alcotest.(check int) "contiguous" pos off;
          if len < 0 then Alcotest.fail "negative chunk";
          contiguous (pos + len) rest
      in
      contiguous 0 bounds)
    [ (0, 1); (1, 1); (7, 3); (1024, 4); (1025, 4); (5, 5) ]

(* Reduce scatter widths obey the reassociation contract: a reduce
   stays K=1 unless its combiner is proven associative+commutative, in
   which case it shares the map policy; an explicit override always
   wins. *)
let test_chunks_for_assoc () =
  let c = compile_cached (Workloads.find "sumsq").Workloads.source in
  let kind_of pick =
    let found =
      Ir.String_map.fold
        (fun _ (lw : Lmr.lowered) acc ->
          match lw.Lmr.lw_kind with
          | Lmr.K_reduce _ when pick = `Reduce -> Some lw.Lmr.lw_kind
          | Lmr.K_map _ when pick = `Map -> Some lw.Lmr.lw_kind
          | _ -> acc)
        c.Compiler.lowered None
    in
    match found with
    | Some k -> k
    | None -> Alcotest.fail "sumsq should lower both a map and a reduce site"
  in
  let reduce = kind_of `Reduce in
  let map = kind_of `Map in
  Alcotest.(check int) "unproven reduce stays sequential" 1
    (Lmr.chunks_for ~n:4096 reduce);
  Alcotest.(check int) "proven reduce uses the map policy" 4
    (Lmr.chunks_for ~assoc:true ~n:4096 reduce);
  Alcotest.(check int) "proven reduce on a small stream stays narrow" 1
    (Lmr.chunks_for ~assoc:true ~n:100 reduce);
  Alcotest.(check int) "override beats the proof gate" 6
    (Lmr.chunks_for ~override:6 ~n:4096 reduce);
  Alcotest.(check int) "assoc flag does not perturb maps" 4
    (Lmr.chunks_for ~assoc:true ~n:4096 map)

let suite =
  ( "lower_mapreduce",
    List.map
      (fun (name, _) ->
        Alcotest.test_case ("differential: " ^ name) `Slow
          (test_workload_differential name))
      test_sizes
    @ [
        Alcotest.test_case "edge lengths: map" `Slow test_edge_lengths_map;
        Alcotest.test_case "edge lengths: reduce" `Slow
          test_edge_lengths_reduce;
        Alcotest.test_case "traps are path-independent" `Quick test_edge_traps;
        Alcotest.test_case "metrics account lowered chunks" `Quick
          test_metrics_account_chunks;
        Alcotest.test_case "lowering shape" `Quick test_lowering_shape;
        Alcotest.test_case "reduce chunks gated on proven assoc" `Quick
          test_chunks_for_assoc;
        qcheck_random_bodies;
        qcheck_random_reduces;
      ] )
