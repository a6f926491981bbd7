module V = Wire.Value

let signatures =
  [
    "sqrt", 1; "exp", 1; "log", 1; "sin", 1; "cos", 1; "abs", 1;
    "floor", 1; "pow", 2; "min", 2; "max", 2;
  ]

let is_intrinsic key =
  match String.index_opt key '.' with
  | Some 4 when String.sub key 0 4 = "Math" ->
    List.mem_assoc (String.sub key 5 (String.length key - 5)) signatures
  | _ -> false

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let float1 name f args =
  match args with
  | [ V.Float x ] -> V.Float (V.f32 (f x))
  | _ -> fail "Math.%s expects one float argument" name

let float2 name f args =
  match args with
  | [ V.Float x; V.Float y ] -> V.Float (V.f32 (f x y))
  | _ -> fail "Math.%s expects two float arguments" name

let short key =
  match String.index_opt key '.' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

(* Built once, so looking an intrinsic up allocates nothing. *)
let ops =
  [
    "sqrt", float1 "sqrt" sqrt; "exp", float1 "exp" exp;
    "log", float1 "log" log; "sin", float1 "sin" sin; "cos", float1 "cos" cos;
    "abs", float1 "abs" Float.abs; "floor", float1 "floor" Float.floor;
    "pow", float2 "pow" ( ** ); "min", float2 "min" Float.min;
    "max", float2 "max" Float.max;
  ]

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
