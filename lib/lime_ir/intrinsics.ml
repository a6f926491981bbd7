module V = Wire.Value

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* [Wire.Value.f32], restated so that it inlines here: a build that
   passes [-opaque] never inlines a call into another library. *)
let[@inline] f32 x = Int32.float_of_bits (Int32.bits_of_float x)

type op = Sqrt | Exp | Log | Sin | Cos | Abs | Floor | Pow | Min | Max

(* The one table: each intrinsic's name and operation. *)
let table =
  [
    "sqrt", Sqrt; "exp", Exp; "log", Log; "sin", Sin; "cos", Cos; "abs", Abs;
    "floor", Floor; "pow", Pow; "min", Min; "max", Max;
  ]

let arity = function
  | Sqrt | Exp | Log | Sin | Cos | Abs | Floor -> 1
  | Pow | Min | Max -> 2

let signatures = List.map (fun (name, op) -> name, arity op) table

let is_intrinsic key =
  match String.index_opt key '.' with
  | Some 4 when String.sub key 0 4 = "Math" ->
    List.mem_assoc (String.sub key 5 (String.length key - 5)) signatures
  | _ -> false

let short key =
  match String.index_opt key '.' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

let op key = List.assoc_opt (short key) table

(* The boxed form of a table entry: the operation, rounded to single
   precision, with its trap on other operands. *)
let boxed name op args =
  match op, args with
  | Sqrt, [ V.Float x ] -> V.Float (f32 (sqrt x))
  | Exp, [ V.Float x ] -> V.Float (f32 (exp x))
  | Log, [ V.Float x ] -> V.Float (f32 (log x))
  | Sin, [ V.Float x ] -> V.Float (f32 (sin x))
  | Cos, [ V.Float x ] -> V.Float (f32 (cos x))
  | Abs, [ V.Float x ] -> V.Float (f32 (Float.abs x))
  | Floor, [ V.Float x ] -> V.Float (f32 (Float.floor x))
  | Pow, [ V.Float x; V.Float y ] -> V.Float (f32 (x ** y))
  | Min, [ V.Float x; V.Float y ] -> V.Float (f32 (Float.min x y))
  | Max, [ V.Float x; V.Float y ] -> V.Float (f32 (Float.max x y))
  | _ ->
    fail "Math.%s expects %s" name
      (if arity op = 1 then "one float argument" else "two float arguments")

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
