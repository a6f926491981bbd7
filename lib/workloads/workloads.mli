(** The benchmark workload suite.

    Each workload bundles a Lime program, an entry point, a
    deterministic input generator and (where practical) an OCaml
    reference implementation used to validate results. The GPU-class
    workloads mirror the data-parallel benchmarks behind the paper's
    12x-431x claim (saxpy, matrix multiply, 2D convolution, n-body,
    mandelbrot, dot product); the FPGA-class workloads exercise the
    streaming pipeline path of Figures 1 and 4 (bitflip, a DSP-style
    scale/offset/clamp chain, a stateful prefix-sum).

    Transcendentals come from the builtin [Math] intrinsics, which the
    GPU, native and bytecode paths all support (the FPGA backend
    excludes them: no FP IP cores in its work-in-progress feature
    set); n-body uses a softened [1/d^2] kernel to keep its inner loop
    intrinsic-free and FPGA-comparable. *)

module Rng : sig
  (** Deterministic input generation (xorshift). *)
  type t

  val create : ?seed:int64 -> unit -> t
  val int : t -> int -> int
  val float : t -> float
  val float_range : t -> float -> float -> float
  val float_array : t -> int -> lo:float -> hi:float -> float array
  val int_array : t -> int -> bound:int -> int array
  val bool_array : t -> int -> bool array
end

type category =
  | Gpu_map  (** data-parallel map/reduce, the GPU story *)
  | Pipeline  (** task graphs eligible for GPU or FPGA substitution *)
  | Fpga_stream  (** streaming pipelines aimed at the FPGA backend *)

type t = {
  name : string;
  description : string;
  category : category;
  source : string;  (** Lime source of the whole program *)
  entry : string;  (** host method to invoke, e.g. ["MatMul.run"] *)
  args : size:int -> Liquid_metal.Lm.I.v list;
      (** deterministic inputs for a problem size *)
  default_size : int;
  validate :
    (size:int -> Liquid_metal.Lm.I.v -> (unit, string) result) option;
      (** OCaml reference check of the result, when practical.
          Applying it to [~size] builds that size's inputs and
          reference result; the function it returns only compares,
          so one application serves every result of that size. *)
}

val all : t list
val find : string -> t
(** @raise Not_found for unknown names. *)

val saxpy : t
val dotproduct : t
val matmul : t
val conv2d : t
val nbody : t
val blackscholes : t
val mandelbrot : t
val sumsq : t
val bitflip : t
val dsp_chain : t
val prefix_sum : t
val fir4 : t
val crc8 : t
