module V = Wire.Value

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* [Wire.Value.f32], restated so that it inlines here: a build that
   passes [-opaque] never inlines a call into another library. *)
let[@inline] f32 x = Int32.float_of_bits (Int32.bits_of_float x)

type typed = Unary of (float -> float) | Binary of (float -> float -> float)

(* The one table: each operation on unboxed floats, rounded to single
   precision. Built once, so looking an intrinsic up allocates
   nothing. *)
let table =
  [
    "sqrt", Unary (fun x -> f32 (sqrt x));
    "exp", Unary (fun x -> f32 (exp x));
    "log", Unary (fun x -> f32 (log x));
    "sin", Unary (fun x -> f32 (sin x));
    "cos", Unary (fun x -> f32 (cos x));
    "abs", Unary (fun x -> f32 (Float.abs x));
    "floor", Unary (fun x -> f32 (Float.floor x));
    "pow", Binary (fun x y -> f32 (x ** y));
    "min", Binary (fun x y -> f32 (Float.min x y));
    "max", Binary (fun x y -> f32 (Float.max x y));
  ]

let signatures =
  List.map (fun (name, op) -> name, match op with Unary _ -> 1 | Binary _ -> 2) table

let is_intrinsic key =
  match String.index_opt key '.' with
  | Some 4 when String.sub key 0 4 = "Math" ->
    List.mem_assoc (String.sub key 5 (String.length key - 5)) signatures
  | _ -> false

let short key =
  match String.index_opt key '.' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

let typed key = List.assoc_opt (short key) table

(* The boxed form of a table entry, with its trap on other operands. *)
let boxed name = function
  | Unary f -> (
    function
    | [ V.Float x ] -> V.Float (f x)
    | _ -> fail "Math.%s expects one float argument" name)
  | Binary f -> (
    function
    | [ V.Float x; V.Float y ] -> V.Float (f x y)
    | _ -> fail "Math.%s expects two float arguments" name)

let ops = List.map (fun (name, op) -> name, boxed name op) table

let resolve key : V.t list -> V.t =
  let name = short key in
  match List.assoc_opt name ops with
  | Some op -> op
  | None -> fun _ -> fail "unknown intrinsic Math.%s" name

let apply key args = resolve key args

(* Special-function-unit throughput costs, in cycles. *)
let device_cycles key =
  match String.index_opt key '.' with
  | Some i -> (
    match String.sub key (i + 1) (String.length key - i - 1) with
    | "abs" | "min" | "max" | "floor" -> 1
    | "sqrt" -> 8
    | "exp" | "log" | "sin" | "cos" -> 16
    | "pow" -> 32
    | _ -> 16)
  | None -> 16

let opencl_name key =
  match short key with
  | "abs" -> "fabs"
  | "min" -> "fmin"
  | "max" -> "fmax"
  | s -> s

let c_name key =
  match short key with
  | "abs" -> "fabsf"
  | "min" -> "fminf"
  | "max" -> "fmaxf"
  | s -> s ^ "f"
