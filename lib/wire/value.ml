type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Bit of bool
  | Enum of { enum : string; tag : int }
  | Bits of Bits.Bitvec.t
  | Int_array of int array
  | Float_array of float array
  | Bool_array of bool array
  | Array of t array
  | Tuple of t list

let norm32 v =
  let v = v land 0xffffffff in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let f32 x = Int32.float_of_bits (Int32.bits_of_float x)

let add_f32 a b = f32 (a +. b)
let sub_f32 a b = f32 (a -. b)
let mul_f32 a b = f32 (a *. b)
let div_f32 a b = f32 (a /. b)

let add32 a b = norm32 (a + b)
let sub32 a b = norm32 (a - b)
let mul32 a b = norm32 (a * b)

let div32 a b =
  if b = 0 then raise Division_by_zero;
  (* OCaml's (/) already truncates toward zero, matching Java. *)
  norm32 (a / b)

let rem32 a b =
  if b = 0 then raise Division_by_zero;
  norm32 (a mod b)

let shl32 a b = norm32 (a lsl (b land 31))

let shr32 a b = norm32 (norm32 a asr (b land 31))

let ushr32 a b = norm32 ((norm32 a land 0xffffffff) lsr (b land 31))

let rec equal a b =
  match a, b with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y || (Float.is_nan x && Float.is_nan y)
  | Bit x, Bit y -> x = y
  | Enum a, Enum b -> String.equal a.enum b.enum && a.tag = b.tag
  | Bits x, Bits y -> Bits.Bitvec.equal x y
  | Int_array x, Int_array y -> x = y
  | Float_array x, Float_array y ->
    Array.length x = Array.length y
    && Array.for_all2 (fun u v -> equal (Float u) (Float v)) x y
  | Bool_array x, Bool_array y -> x = y
  | Array x, Array y ->
    Array.length x = Array.length y && Array.for_all2 equal x y
  | Tuple x, Tuple y -> List.length x = List.length y && List.for_all2 equal x y
  | ( ( Unit | Bool _ | Int _ | Float _ | Bit _ | Enum _ | Bits _
      | Int_array _ | Float_array _ | Bool_array _ | Array _ | Tuple _ ),
      _ ) ->
    false

(* The C conversion [Printf]'s [%g] calls: six significant digits. *)
external format_float : string -> float -> string = "caml_format_float"

(* Decimal digits of [i], computed on the non-positive side so that
   [min_int] needs no case of its own. *)
let add_int b i =
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))
  in
  if i < 0 then Buffer.add_char b '-';
  digits (if i > 0 then -i else i)

let add_float b f = Buffer.add_string b (format_float "%.6g" f)
let add_bool b x = Buffer.add_string b (if x then "true" else "false")

let add_array b add a =
  Buffer.add_char b '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b "; ";
      add b x)
    a;
  Buffer.add_char b ']'

let rec add_value b = function
  | Unit -> Buffer.add_string b "()"
  | Bool x -> add_bool b x
  | Int i -> add_int b i
  | Float f -> add_float b f
  | Bit x -> Buffer.add_string b (if x then "one" else "zero")
  | Enum { enum; tag } ->
    Buffer.add_string b enum;
    Buffer.add_char b '.';
    add_int b tag
  | Bits bv ->
    Buffer.add_string b (Bits.Bitvec.to_literal bv);
    Buffer.add_char b 'b'
  | Int_array a -> add_array b add_int a
  | Float_array a -> add_array b add_float a
  | Bool_array a -> add_array b add_bool a
  | Array a -> add_array b add_value a
  | Tuple xs ->
    Buffer.add_char b '(';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        add_value b x)
      xs;
    Buffer.add_char b ')'

let to_string v =
  let b = Buffer.create 64 in
  add_value b v;
  Buffer.contents b

let pp ppf v = Format.pp_print_string ppf (to_string v)

let type_name = function
  | Unit -> "void"
  | Bool _ -> "boolean"
  | Int _ -> "int"
  | Float _ -> "float"
  | Bit _ -> "bit"
  | Enum { enum; _ } -> enum
  | Bits _ -> "bit[]"
  | Int_array _ -> "int[]"
  | Float_array _ -> "float[]"
  | Bool_array _ -> "boolean[]"
  | Array _ -> "array"
  | Tuple _ -> "tuple"
