type ty =
  | W_unit
  | W_bool
  | W_int
  | W_float
  | W_bit
  | W_enum of string
  | W_bits
  | W_bits_boxed
  | W_array of ty
  | W_tuple of ty list

exception Type_mismatch of { expected : ty; got : Value.t }

let mismatch expected got = raise (Type_mismatch { expected; got })

let rec pp_ty ppf = function
  | W_unit -> Format.fprintf ppf "void"
  | W_bool -> Format.fprintf ppf "boolean"
  | W_int -> Format.fprintf ppf "int"
  | W_float -> Format.fprintf ppf "float"
  | W_bit -> Format.fprintf ppf "bit"
  | W_enum name -> Format.fprintf ppf "%s" name
  | W_bits -> Format.fprintf ppf "bit[]"
  | W_bits_boxed -> Format.fprintf ppf "bit[](boxed)"
  | W_array t -> Format.fprintf ppf "%a[]" pp_ty t
  | W_tuple ts ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         pp_ty)
      ts

let ty_to_string t = Format.asprintf "%a" pp_ty t

(* [byte_size], [encode] and [decode] have one case per wire type and
   must agree. [encode_bytes] sizes its buffer with [byte_size], so
   [byte_size] also decides which values [encode] accepts. *)
let rec byte_size ty (v : Value.t) =
  match ty, v with
  | W_unit, Unit -> 0
  | W_bool, Bool _ | W_bit, Bit _ -> 1
  | W_int, Int _ | W_float, Float _ | W_enum _, Enum _ -> 4
  | W_bits, Bits bv -> 4 + ((Bits.Bitvec.length bv + 7) / 8)
  | (W_bits_boxed | W_array W_bit), Bits bv -> 4 + Bits.Bitvec.length bv
  | W_array W_int, Int_array a -> 4 + (4 * Array.length a)
  | W_array W_float, Float_array a -> 4 + (4 * Array.length a)
  | W_array W_bool, Bool_array a -> 4 + Array.length a
  | W_array elt, Array a ->
    Array.fold_left (fun acc x -> acc + byte_size elt x) 4 a
  | W_tuple tys, Tuple vs when List.compare_lengths tys vs = 0 ->
    List.fold_left2 (fun acc ty x -> acc + byte_size ty x) 0 tys vs
  | ( ( W_unit | W_bool | W_int | W_float | W_bit | W_enum _ | W_bits
      | W_bits_boxed | W_array _ | W_tuple _ ),
      _ ) ->
    mismatch ty v

let rec encode ty w (v : Value.t) =
  let module W = Buffer_io.Writer in
  match ty, v with
  | W_unit, Unit -> ()
  | W_bool, Bool b | W_bit, Bit b -> W.u8 w (if b then 1 else 0)
  | W_int, Int i -> W.i32 w i
  | W_float, Float f -> W.f32 w f
  | W_enum _, Enum { tag; _ } -> W.i32 w tag
  | W_bits, Bits bv ->
    W.i32 w (Bits.Bitvec.length bv);
    W.bytes w (Bits.Bitvec.to_packed_bytes bv)
  | (W_bits_boxed | W_array W_bit), Bits bv ->
    W.i32 w (Bits.Bitvec.length bv);
    W.bools w (Bits.Bitvec.to_bool_array bv)
  | W_array W_int, Int_array a ->
    W.i32 w (Array.length a);
    W.ints w a
  | W_array W_float, Float_array a ->
    W.i32 w (Array.length a);
    W.floats w a
  | W_array W_bool, Bool_array a ->
    W.i32 w (Array.length a);
    W.bools w a
  | W_array elt, Array a ->
    W.i32 w (Array.length a);
    Array.iter (encode elt w) a
  | W_tuple tys, Tuple vs when List.compare_lengths tys vs = 0 ->
    List.iter2 (fun ty v -> encode ty w v) tys vs
  | ( ( W_unit | W_bool | W_int | W_float | W_bit | W_enum _ | W_bits
      | W_bits_boxed | W_array _ | W_tuple _ ),
      _ ) ->
    mismatch ty v

(* The fewest bytes one value of [ty] can take: an array count is
   checked against it before the array is allocated. *)
let rec min_size = function
  | W_unit -> 0
  | W_bool | W_bit -> 1
  | W_int | W_float | W_enum _ | W_bits | W_bits_boxed | W_array _ -> 4
  | W_tuple tys -> List.fold_left (fun acc ty -> acc + min_size ty) 0 tys

let rec decode ty r : Value.t =
  let module R = Buffer_io.Reader in
  match ty with
  | W_unit -> Unit
  | W_bool -> Bool (R.u8 r <> 0)
  | W_bit -> Bit (R.u8 r <> 0)
  | W_int -> Int (R.i32 r)
  | W_float -> Float (R.f32 r)
  | W_enum enum -> Enum { enum; tag = R.i32 r }
  | W_bits ->
    (* the packed bytes are checked by [R.bytes] *)
    let len = R.count r ~width:0 in
    Bits (Bits.Bitvec.of_packed_bytes ~length:len (R.bytes r ((len + 7) / 8)))
  | W_bits_boxed -> decode (W_array W_bit) r
  | W_array elt -> (
    let n = R.count r ~width:(min_size elt) in
    match elt with
    | W_int -> Int_array (R.ints r n)
    | W_float -> Float_array (R.floats r n)
    | W_bool -> Bool_array (R.bools r n)
    | W_bit -> Bits (Bits.Bitvec.of_bool_array (R.bools r n))
    | _ -> Array (Array.init n (fun _ -> decode elt r)))
  | W_tuple tys -> Tuple (List.map (fun ty -> decode ty r) tys)

let encode_bytes ty v =
  let w = Buffer_io.Writer.create (byte_size ty v) in
  encode ty w v;
  Buffer_io.Writer.contents w

let decode_bytes ty data =
  let r = Buffer_io.Reader.of_bytes data in
  let v = decode ty r in
  if Buffer_io.Reader.remaining r <> 0 then
    failwith "Codec.decode_bytes: trailing bytes";
  v
