module I = Lime_ir.Interp
module V = Wire.Value

type session = { compiled_ : Compiler.compiled; engine_ : Runtime.Exec.t }

let load ?policy ?gpu_device ?fifo_capacity ?chunk_elements ?max_retries
    ?cost_model ?replan_factor ?map_chunks ?reduce_chunks ?fuse source =
  let compiled_ = Compiler.compile ?fuse source in
  let engine_ =
    Compiler.engine ?policy ?gpu_device ?fifo_capacity ?chunk_elements
      ?max_retries ?cost_model ?replan_factor ?map_chunks ?reduce_chunks ?fuse
      compiled_
  in
  { compiled_; engine_ }

let run t key args = Runtime.Exec.call t.engine_ key args
let set_policy t p = Runtime.Exec.set_policy t.engine_ p
let manifest t = Compiler.manifest t.compiled_

let manifest_text t =
  Format.asprintf "%a" Runtime.Artifact.pp_manifest (manifest t)

let metrics t = Runtime.Metrics.snapshot (Runtime.Exec.metrics t.engine_)
let reset_metrics t = Runtime.Metrics.reset (Runtime.Exec.metrics t.engine_)
let last_plan t = Runtime.Exec.last_plan t.engine_
let engine t = t.engine_
let compiled t = t.compiled_
let program t = Runtime.Exec.program t.engine_

let int i = I.Prim (V.Int (V.norm32 i))
let float f = I.Prim (V.Float (V.f32 f))
let bool b = I.Prim (V.Bool b)
let bit b = I.Prim (V.Bit b)
let bits s = I.Prim (V.Bits (Bits.Bitvec.of_literal s))
let int_array a = I.Prim (V.Int_array (Array.map V.norm32 a))
let float_array a = I.Prim (V.Float_array (Array.map V.f32 a))

let type_error expected v =
  invalid_arg
    (Printf.sprintf "Lm: expected %s, got %s" expected
       (Format.asprintf "%a" I.pp v))

let as_int = function I.Prim (V.Int i) -> i | v -> type_error "int" v
let as_float = function I.Prim (V.Float f) -> f | v -> type_error "float" v

let as_int_array = function
  | I.Prim (V.Int_array a) -> a
  | v -> type_error "int[]" v

let as_float_array = function
  | I.Prim (V.Float_array a) -> a
  | v -> type_error "float[]" v

let as_bits_literal = function
  | I.Prim (V.Bits b) -> Bits.Bitvec.to_literal b
  | v -> type_error "bit[]" v

let show = function
  | I.Prim p -> V.to_string p
  | v -> Format.asprintf "%a" I.pp v
