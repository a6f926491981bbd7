module Lm = Liquid_metal.Lm
module V = Wire.Value
module Rng = Rng

type category = Gpu_map | Pipeline | Fpga_stream

type t = {
  name : string;
  description : string;
  category : category;
  source : string;
  entry : string;
  args : size:int -> Lm.I.v list;
  default_size : int;
  validate : (size:int -> Lm.I.v -> (unit, string) result) option;
}

let seed = 0x51CE5EEDL

let close a b =
  let d = Float.abs (a -. b) in
  d <= 1e-3 *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

let check_float_array ~what expected (v : Lm.I.v) =
  match v with
  | Lm.I.Prim (V.Float_array got) ->
    if Array.length got <> Array.length expected then
      Error
        (Printf.sprintf "%s: length %d, expected %d" what (Array.length got)
           (Array.length expected))
    else begin
      let bad = ref None in
      Array.iteri
        (fun i g ->
          if !bad = None && not (close g expected.(i)) then bad := Some i)
        got;
      match !bad with
      | None -> Ok ()
      | Some i ->
        Error
          (Printf.sprintf "%s: index %d is %g, expected %g" what i got.(i)
             expected.(i))
    end
  | _ -> Error (what ^ ": not a float array")

let check_int_array ~what ~wrong expected (v : Lm.I.v) =
  match v with
  | Lm.I.Prim (V.Int_array got) ->
    if got = expected then Ok () else Error (what ^ ": " ^ wrong)
  | _ -> Error (what ^ ": not an int array")

(* ------------------------------------------------------------------ *)
(* saxpy: y' = a*x + y — bandwidth-bound, the low end of the paper's
   speedup range.                                                      *)
(* ------------------------------------------------------------------ *)

let saxpy_source =
  {|
public class Saxpy {
  local static float axpy(float a, float x, float y) {
    return a * x + y;
  }
  public static float[[]] run(float a, float[[]] xs, float[[]] ys) {
    return Saxpy @ axpy(a, xs, ys);
  }
}
|}

let saxpy_inputs ~size =
  let rng = Rng.create ~seed () in
  let xs = Rng.float_array rng size ~lo:(-10.0) ~hi:10.0 in
  let ys = Rng.float_array rng size ~lo:(-10.0) ~hi:10.0 in
  2.5, xs, ys

let saxpy =
  {
    name = "saxpy";
    description = "y' = a*x + y over float arrays (map, bandwidth-bound)";
    category = Gpu_map;
    source = saxpy_source;
    entry = "Saxpy.run";
    default_size = 1 lsl 14;
    args =
      (fun ~size ->
        let a, xs, ys = saxpy_inputs ~size in
        [ Lm.float a; Lm.float_array xs; Lm.float_array ys ]);
    validate =
      Some
        (fun ~size ->
          let a, xs, ys = saxpy_inputs ~size in
          let expected =
            Array.init size (fun i ->
                V.add_f32 (V.mul_f32 (V.f32 a) xs.(i)) ys.(i))
          in
          check_float_array ~what:"saxpy" expected);
  }

(* ------------------------------------------------------------------ *)
(* dotproduct: map multiply then reduce add.                           *)
(* ------------------------------------------------------------------ *)

let dot_source =
  {|
public class Dot {
  local static float mul(float x, float y) { return x * y; }
  local static float add(float a, float b) { return a + b; }
  public static float run(float[[]] xs, float[[]] ys) {
    var products = Dot @ mul(xs, ys);
    return Dot @@ add(products);
  }
}
|}

let dot_inputs ~size =
  let rng = Rng.create ~seed () in
  let xs = Rng.float_array rng size ~lo:(-1.0) ~hi:1.0 in
  let ys = Rng.float_array rng size ~lo:(-1.0) ~hi:1.0 in
  xs, ys

let dotproduct =
  {
    name = "dotproduct";
    description = "map multiply + reduce add over float arrays";
    category = Gpu_map;
    source = dot_source;
    entry = "Dot.run";
    default_size = 1 lsl 14;
    args =
      (fun ~size ->
        let xs, ys = dot_inputs ~size in
        [ Lm.float_array xs; Lm.float_array ys ]);
    validate =
      Some
        (fun ~size ->
          let xs, ys = dot_inputs ~size in
          let products = Array.init size (fun i -> V.mul_f32 xs.(i) ys.(i)) in
          let expected =
            Array.fold_left
              (fun acc p -> V.add_f32 acc p)
              products.(0)
              (Array.sub products 1 (size - 1))
          in
          function
          | Lm.I.Prim (V.Float f) ->
            if close f expected then Ok ()
            else Error (Printf.sprintf "dot: %g, expected %g" f expected)
          | _ -> Error "dot: not a float");
  }

(* ------------------------------------------------------------------ *)
(* matmul: n x n single-precision multiply. The map runs over a flat
   index array with the matrices broadcast.                            *)
(* ------------------------------------------------------------------ *)

let matmul_source =
  {|
public class MatMul {
  local static float cell(int ij, float[[]] a, float[[]] b, int n) {
    int i = ij / n;
    int j = ij % n;
    float acc = 0.0;
    for (int k = 0; k < n; k++) {
      acc += a[i * n + k] * b[k * n + j];
    }
    return acc;
  }
  public static float[[]] run(float[[]] a, float[[]] b, int n) {
    int[] idx = new int[n * n];
    for (int i = 0; i < n * n; i++) {
      idx[i] = i;
    }
    var flat = new int[[]](idx);
    return MatMul @ cell(flat, a, b, n);
  }
}
|}

let matmul_inputs ~size =
  let rng = Rng.create ~seed () in
  let a = Rng.float_array rng (size * size) ~lo:(-1.0) ~hi:1.0 in
  let b = Rng.float_array rng (size * size) ~lo:(-1.0) ~hi:1.0 in
  a, b

let matmul =
  {
    name = "matmul";
    description = "n x n single-precision matrix multiply (map over cells)";
    category = Gpu_map;
    source = matmul_source;
    entry = "MatMul.run";
    default_size = 48;
    args =
      (fun ~size ->
        let a, b = matmul_inputs ~size in
        [ Lm.float_array a; Lm.float_array b; Lm.int size ]);
    validate =
      Some
        (fun ~size ->
          let a, b = matmul_inputs ~size in
          let n = size in
          let expected =
            Array.init (n * n) (fun ij ->
                let i = ij / n and j = ij mod n in
                let acc = ref 0.0 in
                for k = 0 to n - 1 do
                  acc :=
                    V.add_f32 !acc (V.mul_f32 a.((i * n) + k) b.((k * n) + j))
                done;
                !acc)
          in
          check_float_array ~what:"matmul" expected);
  }

(* ------------------------------------------------------------------ *)
(* conv2d: 3x3 convolution over a grayscale image.                     *)
(* ------------------------------------------------------------------ *)

let conv2d_source =
  {|
public class Conv {
  local static float at(float[[]] img, int w, int h, int x, int y) {
    int cx = x < 0 ? 0 : (x >= w ? w - 1 : x);
    int cy = y < 0 ? 0 : (y >= h ? h - 1 : y);
    return img[cy * w + cx];
  }
  local static float pixel(int xy, float[[]] img, float[[]] k, int w, int h) {
    int x = xy % w;
    int y = xy / w;
    float acc = 0.0;
    for (int dy = -1; dy <= 1; dy++) {
      for (int dx = -1; dx <= 1; dx++) {
        acc += at(img, w, h, x + dx, y + dy) * k[(dy + 1) * 3 + (dx + 1)];
      }
    }
    return acc;
  }
  public static float[[]] run(float[[]] img, float[[]] k, int w, int h) {
    int[] idx = new int[w * h];
    for (int i = 0; i < w * h; i++) {
      idx[i] = i;
    }
    var flat = new int[[]](idx);
    return Conv @ pixel(flat, img, k, w, h);
  }
}
|}

(* size is the image edge; the kernel is a 3x3 sharpen *)
let conv_kernel =
  [| 0.0; -1.0; 0.0; -1.0; 5.0; -1.0; 0.0; -1.0; 0.0 |]

let conv2d_inputs ~size =
  let rng = Rng.create ~seed () in
  Rng.float_array rng (size * size) ~lo:0.0 ~hi:1.0

let conv2d =
  {
    name = "conv2d";
    description = "3x3 sharpen convolution over a grayscale image (map)";
    category = Gpu_map;
    source = conv2d_source;
    entry = "Conv.run";
    default_size = 64;
    args =
      (fun ~size ->
        let img = conv2d_inputs ~size in
        [
          Lm.float_array img;
          Lm.float_array conv_kernel;
          Lm.int size;
          Lm.int size;
        ]);
    validate =
      Some
        (fun ~size ->
          let img = conv2d_inputs ~size in
          let w = size and h = size in
          let at x y =
            let cx = max 0 (min (w - 1) x) and cy = max 0 (min (h - 1) y) in
            img.((cy * w) + cx)
          in
          let expected =
            Array.init (w * h) (fun xy ->
                let x = xy mod w and y = xy / w in
                let acc = ref 0.0 in
                for dy = -1 to 1 do
                  for dx = -1 to 1 do
                    acc :=
                      V.add_f32 !acc
                        (V.mul_f32
                           (at (x + dx) (y + dy))
                           (V.f32 conv_kernel.(((dy + 1) * 3) + dx + 1)))
                  done
                done;
                !acc)
          in
          check_float_array ~what:"conv2d" expected);
  }

(* ------------------------------------------------------------------ *)
(* nbody: one force-accumulation step with a softened 1/d^2 kernel
   (no inverse square root: the Lime subset has no transcendental
   intrinsics; the arithmetic intensity profile is preserved).         *)
(* ------------------------------------------------------------------ *)

let nbody_source =
  {|
public class NBody {
  local static float force(int i, float[[]] px, float[[]] py, float[[]] m, int n) {
    float fx = 0.0;
    float fy = 0.0;
    float xi = px[i];
    float yi = py[i];
    for (int j = 0; j < n; j++) {
      if (j != i) {
        float dx = px[j] - xi;
        float dy = py[j] - yi;
        float d2 = dx * dx + dy * dy + 0.01;
        float s = m[j] / d2;
        fx += dx * s;
        fy += dy * s;
      }
    }
    return fx * fx + fy * fy;
  }
  public static float[[]] run(float[[]] px, float[[]] py, float[[]] m, int n) {
    int[] idx = new int[n];
    for (int i = 0; i < n; i++) {
      idx[i] = i;
    }
    var flat = new int[[]](idx);
    return NBody @ force(flat, px, py, m, n);
  }
}
|}

let nbody_inputs ~size =
  let rng = Rng.create ~seed () in
  let px = Rng.float_array rng size ~lo:(-5.0) ~hi:5.0 in
  let py = Rng.float_array rng size ~lo:(-5.0) ~hi:5.0 in
  let m = Rng.float_array rng size ~lo:0.1 ~hi:2.0 in
  px, py, m

let nbody =
  {
    name = "nbody";
    description = "n-body force accumulation, softened 1/d^2 (map, O(n^2))";
    category = Gpu_map;
    source = nbody_source;
    entry = "NBody.run";
    default_size = 256;
    args =
      (fun ~size ->
        let px, py, m = nbody_inputs ~size in
        [ Lm.float_array px; Lm.float_array py; Lm.float_array m; Lm.int size ]);
    validate = None;
      (* validated differentially (bytecode vs accelerators) in tests *)
  }

(* ------------------------------------------------------------------ *)
(* mandelbrot: escape-time iteration — heavily branch-divergent, the
   high end of the compute-bound spectrum (stands in for the paper's
   most compute-intensive kernels).                                    *)
(* ------------------------------------------------------------------ *)

let mandelbrot_source =
  {|
public class Mandel {
  local static int escape(int xy, int w, int h, int maxIter) {
    float cx = 3.5 * (xy % w) / w - 2.5;
    float cy = 2.0 * (xy / w) / h - 1.0;
    float zx = 0.0;
    float zy = 0.0;
    int iter = 0;
    while (iter < maxIter && zx * zx + zy * zy <= 4.0) {
      float t = zx * zx - zy * zy + cx;
      zy = 2.0 * zx * zy + cy;
      zx = t;
      iter++;
    }
    return iter;
  }
  public static int[[]] run(int w, int h, int maxIter) {
    int[] idx = new int[w * h];
    for (int i = 0; i < w * h; i++) {
      idx[i] = i;
    }
    var flat = new int[[]](idx);
    return Mandel @ escape(flat, w, h, maxIter);
  }
}
|}

let mandelbrot =
  {
    name = "mandelbrot";
    description = "escape-time fractal (map, branch-divergent, compute-bound)";
    category = Gpu_map;
    source = mandelbrot_source;
    entry = "Mandel.run";
    default_size = 96;  (* edge length; iterations fixed at 64 *)
    args = (fun ~size -> [ Lm.int size; Lm.int size; Lm.int 64 ]);
    validate = None;
  }

(* ------------------------------------------------------------------ *)
(* sumsq: integer map square + reduce add. The combiner is int [+],
   which the algebraic analysis proves associative and commutative, so
   the lowered reduce scatters into K > 1 chunks and tree-combines the
   partials — bit-identically to the sequential fold.                  *)
(* ------------------------------------------------------------------ *)

let sumsq_source =
  {|
public class SumSq {
  local static int sq(int x) { return x * x; }
  local static int add(int a, int b) { return a + b; }
  public static int run(int[[]] xs) {
    var squares = SumSq @ sq(xs);
    return SumSq @@ add(squares);
  }
}
|}

let sumsq_inputs ~size =
  let rng = Rng.create ~seed () in
  Array.map (fun v -> v - 500) (Rng.int_array rng size ~bound:1000)

let sumsq =
  {
    name = "sumsq";
    description = "sum of squares over int arrays (map + proven-assoc reduce)";
    category = Gpu_map;
    source = sumsq_source;
    entry = "SumSq.run";
    (* large enough that the chunked reduce's extra launches and tree
       combines amortize against the stream in the modeled-time gate
       (bench/lower_bench.ml) *)
    default_size = 1 lsl 16;
    args = (fun ~size -> [ Lm.int_array (sumsq_inputs ~size) ]);
    validate =
      Some
        (fun ~size ->
          let xs = sumsq_inputs ~size in
          let expected =
            Array.fold_left
              (fun acc x -> V.add32 acc (V.mul32 x x))
              (V.mul32 xs.(0) xs.(0))
              (Array.sub xs 1 (size - 1))
          in
          function
          | Lm.I.Prim (V.Int got) ->
            if got = expected then Ok ()
            else Error (Printf.sprintf "sumsq: %d, expected %d" got expected)
          | _ -> Error "sumsq: not an int");
  }

(* ------------------------------------------------------------------ *)
(* bitflip: the paper's Figure 1, both map and task-graph forms.       *)
(* ------------------------------------------------------------------ *)

let bitflip_source =
  {|
public value enum bit {
  zero, one;
  public bit ~ this {
    return this == zero ? one : zero;
  }
}

public class Bitflip {
  local static bit flip(bit b) {
    return ~b;
  }
  local static bit[[]] mapFlip(bit[[]] input) {
    var flipped = Bitflip @ flip(input);
    return flipped;
  }
  static bit[[]] taskFlip(bit[[]] input) {
    bit[] result = new bit[input.length];
    var flipit = input.source(1)
      => ([ task flip ])
      => result.<bit>sink();
    flipit.finish();
    return new bit[[]](result);
  }
}
|}

let bitflip_input ~size =
  let rng = Rng.create ~seed () in
  Bits.Bitvec.of_bool_array (Rng.bool_array rng size)

let bitflip =
  {
    name = "bitflip";
    description = "Figure 1: bit-stream inverter task graph";
    category = Pipeline;
    source = bitflip_source;
    entry = "Bitflip.taskFlip";
    default_size = 256;
    args =
      (fun ~size -> [ Lm.I.Prim (V.Bits (bitflip_input ~size)) ]);
    validate =
      Some
        (fun ~size ->
          let expected =
            Bits.Bitvec.to_literal (Bits.Bitvec.lognot (bitflip_input ~size))
          in
          function
          | Lm.I.Prim (V.Bits got) ->
            if String.equal (Bits.Bitvec.to_literal got) expected then Ok ()
            else Error "bitflip: wrong bits"
          | _ -> Error "bitflip: not a bit array");
  }

(* ------------------------------------------------------------------ *)
(* dsp_chain: a 3-stage integer DSP pipeline (scale, offset, clamp) —
   straight-line filters, synthesizable by the FPGA backend.           *)
(* ------------------------------------------------------------------ *)

let dsp_source =
  {|
public class Dsp {
  local static int scale(int x) { return x * 3; }
  local static int offset(int x) { return x + 128; }
  local static int clamp(int x) {
    return x < 0 ? 0 : (x > 255 ? 255 : x);
  }
  public static int[[]] run(int[[]] samples) {
    int[] out = new int[samples.length];
    var g = samples.source(1)
      => ([ task scale ]) => ([ task offset ]) => ([ task clamp ])
      => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}

let dsp_inputs ~size =
  let rng = Rng.create ~seed () in
  Array.map (fun v -> v - 100) (Rng.int_array rng size ~bound:200)

let dsp_chain =
  {
    name = "dsp_chain";
    description = "scale -> offset -> clamp integer pipeline (FPGA-ready)";
    category = Fpga_stream;
    source = dsp_source;
    entry = "Dsp.run";
    default_size = 512;
    args = (fun ~size -> [ Lm.int_array (dsp_inputs ~size) ]);
    validate =
      Some
        (fun ~size ->
          let expected =
            Array.map
              (fun x ->
                let y = (x * 3) + 128 in
                max 0 (min 255 y))
              (dsp_inputs ~size)
          in
          check_int_array ~what:"dsp" ~wrong:"wrong samples" expected);
  }

(* ------------------------------------------------------------------ *)
(* prefix_sum: a stateful streaming accumulator — pipeline parallelism
   with state, FPGA registers (paper section 2.1).                     *)
(* ------------------------------------------------------------------ *)

let prefix_source =
  {|
public class Acc {
  int total;
  local Acc(int start) { total = start; }
  local int push(int x) { total += x; return total; }
}
public class Prefix {
  public static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var acc = new Acc(0);
    var g = xs.source(1) => ([ task acc.push ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}

let prefix_inputs ~size =
  let rng = Rng.create ~seed () in
  Rng.int_array rng size ~bound:100

let prefix_sum =
  {
    name = "prefix_sum";
    description = "stateful running-sum filter (registers on the FPGA)";
    category = Fpga_stream;
    source = prefix_source;
    entry = "Prefix.run";
    default_size = 512;
    args = (fun ~size -> [ Lm.int_array (prefix_inputs ~size) ]);
    validate =
      Some
        (fun ~size ->
          let xs = prefix_inputs ~size in
          let acc = ref 0 in
          let expected =
            Array.map
              (fun x ->
                acc := V.add32 !acc x;
                !acc)
              xs
          in
          check_int_array ~what:"prefix" ~wrong:"wrong sums" expected);
  }

(* ------------------------------------------------------------------ *)
(* blackscholes: European call pricing with the Abramowitz-Stegun
   cumulative-normal approximation — transcendental-heavy and
   compute-bound, enabled by the builtin Math intrinsics.             *)
(* ------------------------------------------------------------------ *)

let blackscholes_source =
  {|
public class Bs {
  local static float cnd(float x) {
    float l = Math.abs(x);
    float k = 1.0 / (1.0 + 0.2316419 * l);
    float poly = k * (0.31938153
               + k * (-0.356563782
               + k * (1.781477937
               + k * (-1.821255978
               + k * 1.330274429))));
    float w = 1.0 - 0.39894228 * Math.exp(0.0 - l * l / 2.0) * poly;
    return x < 0.0 ? 1.0 - w : w;
  }
  local static float callPrice(float s, float k, float t, float r, float v) {
    float srt = v * Math.sqrt(t);
    float d1 = (Math.log(s / k) + (r + 0.5 * v * v) * t) / srt;
    float d2 = d1 - srt;
    return s * cnd(d1) - k * Math.exp(0.0 - r * t) * cnd(d2);
  }
  public static float[[]] run(float[[]] spots, float[[]] strikes,
                              float[[]] years, float r, float v) {
    return Bs @ callPrice(spots, strikes, years, r, v);
  }
}
|}

let blackscholes_inputs ~size =
  let rng = Rng.create ~seed () in
  let spots = Rng.float_array rng size ~lo:10.0 ~hi:100.0 in
  let strikes = Rng.float_array rng size ~lo:10.0 ~hi:100.0 in
  let years = Rng.float_array rng size ~lo:0.2 ~hi:2.0 in
  spots, strikes, years

let blackscholes =
  {
    name = "blackscholes";
    description =
      "European option pricing, Abramowitz-Stegun CND (map, transcendental)";
    category = Gpu_map;
    source = blackscholes_source;
    entry = "Bs.run";
    default_size = 4096;
    args =
      (fun ~size ->
        let spots, strikes, years = blackscholes_inputs ~size in
        [
          Lm.float_array spots; Lm.float_array strikes; Lm.float_array years;
          Lm.float 0.02; Lm.float 0.30;
        ]);
    validate =
      Some
        (fun ~size ->
          (* double-precision reference, tolerance check *)
          let spots, strikes, years = blackscholes_inputs ~size in
          let r = 0.02 and vol = 0.30 in
          let cnd x =
            let l = Float.abs x in
            let k = 1.0 /. (1.0 +. (0.2316419 *. l)) in
            let poly =
              k *. (0.31938153
              +. k *. (-0.356563782
              +. k *. (1.781477937
              +. k *. (-1.821255978 +. (k *. 1.330274429)))))
            in
            let w = 1.0 -. (0.39894228 *. exp (-.l *. l /. 2.0) *. poly) in
            if x < 0.0 then 1.0 -. w else w
          in
          let price s k t =
            let srt = vol *. sqrt t in
            let d1 = (log (s /. k) +. ((r +. (0.5 *. vol *. vol)) *. t)) /. srt in
            let d2 = d1 -. srt in
            (s *. cnd d1) -. (k *. exp (-.r *. t) *. cnd d2)
          in
          let expected =
            Array.init size (fun i -> price spots.(i) strikes.(i) years.(i))
          in
          function
          | Lm.I.Prim (V.Float_array got) ->
            let bad = ref None in
            Array.iteri
              (fun i g ->
                if
                  !bad = None
                  && Float.abs (g -. expected.(i))
                     > 1e-2 *. (1.0 +. Float.abs expected.(i))
                then bad := Some i)
              got;
            (match !bad with
            | None -> Ok ()
            | Some i ->
              Error
                (Printf.sprintf "blackscholes: index %d is %g, expected %g" i
                   got.(i) expected.(i)))
          | _ -> Error "blackscholes: not a float array");
  }

(* ------------------------------------------------------------------ *)
(* fir4: a 4-tap FIR filter — the classic DSP streaming kernel. Its
   delay line is three scalar fields, so the FPGA backend turns it
   into registers (straight-line datapath, no loops).                 *)
(* ------------------------------------------------------------------ *)

let fir4_source =
  {|
public class Fir {
  float z1;
  float z2;
  float z3;
  local Fir(float init) {
    z1 = init;
    z2 = init;
    z3 = init;
  }
  local float step(float x) {
    float y = 0.4 * x + 0.3 * z1 + 0.2 * z2 + 0.1 * z3;
    z3 = z2;
    z2 = z1;
    z1 = x;
    return y;
  }
}
public class FirMain {
  public static float[[]] run(float[[]] xs) {
    float[] out = new float[xs.length];
    var f = new Fir(0.0);
    var g = xs.source(1) => ([ task f.step ]) => out.<float>sink();
    g.finish();
    return new float[[]](out);
  }
}
|}

let fir4_inputs ~size =
  let rng = Rng.create ~seed () in
  Rng.float_array rng size ~lo:(-1.0) ~hi:1.0

let fir4 =
  {
    name = "fir4";
    description = "4-tap FIR filter, delay line in registers (FPGA stream)";
    category = Fpga_stream;
    source = fir4_source;
    entry = "FirMain.run";
    default_size = 512;
    args = (fun ~size -> [ Lm.float_array (fir4_inputs ~size) ]);
    validate =
      Some
        (fun ~size ->
          (* exact f32 replica, matching Lime's evaluation order *)
          let xs = fir4_inputs ~size in
          let m = V.mul_f32 and a = V.add_f32 in
          let f c = V.f32 c in
          let z1 = ref 0.0 and z2 = ref 0.0 and z3 = ref 0.0 in
          let expected =
            Array.map
              (fun x ->
                let y =
                  a (a (a (m (f 0.4) x) (m (f 0.3) !z1)) (m (f 0.2) !z2))
                    (m (f 0.1) !z3)
                in
                z3 := !z2;
                z2 := !z1;
                z1 := x;
                y)
              xs
          in
          check_float_array ~what:"fir4" expected);
  }

(* ------------------------------------------------------------------ *)
(* crc8: a rolling CRC-8 (polynomial 0x07) with the 8 shift steps
   unrolled — pure bit-twiddling muxes, the archetypal FPGA kernel
   (the paper's bit-literal motivation, section 2.2).                  *)
(* ------------------------------------------------------------------ *)

let crc8_source =
  {|
public class Crc {
  int crc;
  local Crc(int init) { crc = init; }
  local int update(int b) {
    int c = crc ^ (b & 255);
    c = (c & 128) != 0 ? ((c << 1) & 255) ^ 7 : (c << 1) & 255;
    c = (c & 128) != 0 ? ((c << 1) & 255) ^ 7 : (c << 1) & 255;
    c = (c & 128) != 0 ? ((c << 1) & 255) ^ 7 : (c << 1) & 255;
    c = (c & 128) != 0 ? ((c << 1) & 255) ^ 7 : (c << 1) & 255;
    c = (c & 128) != 0 ? ((c << 1) & 255) ^ 7 : (c << 1) & 255;
    c = (c & 128) != 0 ? ((c << 1) & 255) ^ 7 : (c << 1) & 255;
    c = (c & 128) != 0 ? ((c << 1) & 255) ^ 7 : (c << 1) & 255;
    c = (c & 128) != 0 ? ((c << 1) & 255) ^ 7 : (c << 1) & 255;
    crc = c;
    return c;
  }
}
public class CrcMain {
  public static int[[]] run(int[[]] bytes) {
    int[] out = new int[bytes.length];
    var c = new Crc(0);
    var g = bytes.source(1) => ([ task c.update ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}

let crc8_inputs ~size =
  let rng = Rng.create ~seed () in
  Rng.int_array rng size ~bound:256

let crc8 =
  {
    name = "crc8";
    description = "rolling CRC-8 (poly 0x07), 8 unrolled steps (FPGA stream)";
    category = Fpga_stream;
    source = crc8_source;
    entry = "CrcMain.run";
    default_size = 512;
    args = (fun ~size -> [ Lm.int_array (crc8_inputs ~size) ]);
    validate =
      Some
        (fun ~size ->
          let step c =
            if c land 128 <> 0 then ((c lsl 1) land 255) lxor 7
            else (c lsl 1) land 255
          in
          let crc = ref 0 in
          let expected =
            Array.map
              (fun b ->
                let c = ref (!crc lxor (b land 255)) in
                for _ = 1 to 8 do
                  c := step !c
                done;
                crc := !c;
                !c)
              (crc8_inputs ~size)
          in
          check_int_array ~what:"crc8" ~wrong:"wrong checksums" expected);
  }

let all =
  [
    saxpy; dotproduct; matmul; conv2d; nbody; blackscholes; mandelbrot;
    sumsq; bitflip; dsp_chain; prefix_sum; fir4; crc8;
  ]

let find name =
  match List.find_opt (fun w -> String.equal w.name name) all with
  | Some w -> w
  | None -> raise Not_found
