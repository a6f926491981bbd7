(* Tests for the wire format: byte-stream IO, codecs, and the
   host/device boundary model (paper Figure 3). *)

open Wire

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let value_testable = Alcotest.testable Value.pp Value.equal

let test_writer_reader_scalars () =
  (* 1 + 4 + 8 + 8 + 4 bytes *)
  let w = Buffer_io.Writer.create 25 in
  Buffer_io.Writer.u8 w 0xab;
  Buffer_io.Writer.i32 w (-123456);
  Buffer_io.Writer.i64 w 0x1122334455667788L;
  Buffer_io.Writer.f64 w 3.25;
  Buffer_io.Writer.f32 w 1.5;
  let r = Buffer_io.Reader.of_bytes (Buffer_io.Writer.contents w) in
  check_int "u8" 0xab (Buffer_io.Reader.u8 r);
  check_int "i32" (-123456) (Buffer_io.Reader.i32 r);
  Alcotest.(check int64) "i64" 0x1122334455667788L (Buffer_io.Reader.i64 r);
  Alcotest.(check (float 0.0)) "f64" 3.25 (Buffer_io.Reader.f64 r);
  Alcotest.(check (float 0.0)) "f32" 1.5 (Buffer_io.Reader.f32 r);
  check_int "exhausted" 0 (Buffer_io.Reader.remaining r)

let test_reader_underflow () =
  let r = Buffer_io.Reader.of_bytes (Bytes.make 2 '\x00') in
  Alcotest.check_raises "underflow" Buffer_io.Reader.Underflow (fun () ->
      ignore (Buffer_io.Reader.i32 r))

let test_norm32 () =
  check_int "identity" 42 (Value.norm32 42);
  check_int "wrap max" (-2147483648) (Value.norm32 2147483648);
  check_int "wrap add" (-2147483648) (Value.add32 2147483647 1);
  check_int "mul wrap" 0 (Value.mul32 65536 65536);
  check_int "div toward zero" (-2) (Value.div32 (-7) 3);
  check_int "rem sign" (-1) (Value.rem32 (-7) 3);
  check_int "shl" 16 (Value.shl32 1 4);
  check_int "shl masks count" 2 (Value.shl32 1 33);
  check_int "shr arithmetic" (-1) (Value.shr32 (-2) 1);
  check_int "ushr" 0x7fffffff (Value.ushr32 (-1) 1)

let test_f32_idempotent () =
  let x = Value.f32 0.1 in
  Alcotest.(check (float 0.0)) "idempotent" x (Value.f32 x);
  check_bool "lossy vs double" true (x <> 0.1)

let roundtrip ty v =
  Alcotest.check value_testable
    (Codec.ty_to_string ty)
    v
    (Codec.decode_bytes ty (Codec.encode_bytes ty v))

let test_codec_roundtrips () =
  roundtrip Codec.W_unit Value.Unit;
  roundtrip Codec.W_bool (Value.Bool true);
  roundtrip Codec.W_int (Value.Int (-2147483648));
  roundtrip Codec.W_float (Value.Float (Value.f32 3.14159));
  roundtrip Codec.W_bit (Value.Bit true);
  roundtrip (Codec.W_enum "bit") (Value.Enum { enum = "bit"; tag = 1 });
  roundtrip Codec.W_bits (Value.Bits (Bits.Bitvec.of_literal "101010101"));
  roundtrip Codec.W_bits_boxed (Value.Bits (Bits.Bitvec.of_literal "110"));
  roundtrip (Codec.W_array Codec.W_int) (Value.Int_array [| 1; -2; 3 |]);
  roundtrip
    (Codec.W_array Codec.W_float)
    (Value.Float_array [| 0.5; -1.25; 1e10 |]);
  roundtrip (Codec.W_array Codec.W_bool) (Value.Bool_array [| true; false |]);
  roundtrip
    (Codec.W_array (Codec.W_enum "bit"))
    (Value.Array [| Value.Enum { enum = "bit"; tag = 0 } |]);
  roundtrip
    (Codec.W_tuple [ Codec.W_int; Codec.W_float ])
    (Value.Tuple [ Value.Int 7; Value.Float 2.0 ])

let test_codec_byte_size_matches () =
  let cases =
    [
      Codec.W_int, Value.Int 5;
      Codec.W_bits, Value.Bits (Bits.Bitvec.of_literal "101010101");
      Codec.W_bits_boxed, Value.Bits (Bits.Bitvec.of_literal "101010101");
      Codec.W_array Codec.W_float, Value.Float_array (Array.make 17 1.0);
    ]
  in
  List.iter
    (fun (ty, v) ->
      check_int (Codec.ty_to_string ty)
        (Bytes.length (Codec.encode_bytes ty v))
        (Codec.byte_size ty v))
    cases

(* The exact bytes of one value per wire type. A round trip cannot
   see a layout change that encoder and decoder agree on; this can. *)
let hex b =
  String.concat " "
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

let test_codec_golden_bytes () =
  let bits s = Value.Bits (Bits.Bitvec.of_literal s) in
  let no_bits = Value.Bits (Bits.Bitvec.create 0 false) in
  let color tag = Value.Enum { enum = "Color"; tag } in
  List.iter
    (fun (ty, v, expected) ->
      Alcotest.(check string)
        (Codec.ty_to_string ty ^ " " ^ Value.to_string v)
        expected
        (hex (Codec.encode_bytes ty v)))
    [
      Codec.W_unit, Value.Unit, "";
      Codec.W_bool, Value.Bool true, "01";
      Codec.W_bit, Value.Bit false, "00";
      Codec.W_int, Value.Int 2147483647, "ff ff ff 7f";
      Codec.W_int, Value.Int (-2147483648), "00 00 00 80";
      Codec.W_int, Value.Int ((1 lsl 40) + 5), "05 00 00 00";
      Codec.W_float, Value.Float (-0.0), "00 00 00 80";
      Codec.W_float, Value.Float Float.nan, "00 00 c0 7f";
      Codec.W_float, Value.Float Float.infinity, "00 00 80 7f";
      Codec.W_float, Value.Float Float.neg_infinity, "00 00 80 ff";
      (* the smallest f32 subnormal *)
      Codec.W_float, Value.Float (Int32.float_of_bits 1l), "01 00 00 00";
      Codec.W_enum "Color", color 2, "02 00 00 00";
      Codec.W_bits, no_bits, "00 00 00 00";
      Codec.W_bits, bits "1", "01 00 00 00 01";
      Codec.W_bits, bits "100000011", "09 00 00 00 03 01";
      Codec.W_bits_boxed, no_bits, "00 00 00 00";
      Codec.W_bits_boxed, bits "1", "01 00 00 00 01";
      ( Codec.W_bits_boxed,
        bits "100000011",
        "09 00 00 00 01 01 00 00 00 00 00 00 01" );
      Codec.W_array Codec.W_int, Value.Int_array [||], "00 00 00 00";
      ( Codec.W_array Codec.W_int,
        Value.Int_array [| 1; -2; 0x01020304 |],
        "03 00 00 00 01 00 00 00 fe ff ff ff 04 03 02 01" );
      Codec.W_array Codec.W_float, Value.Float_array [||], "00 00 00 00";
      ( Codec.W_array Codec.W_float,
        Value.Float_array [| 1.0; -2.5 |],
        "02 00 00 00 00 00 80 3f 00 00 20 c0" );
      Codec.W_array Codec.W_bool, Value.Bool_array [||], "00 00 00 00";
      ( Codec.W_array Codec.W_bool,
        Value.Bool_array [| true; false; true |],
        "03 00 00 00 01 00 01" );
      ( Codec.W_array (Codec.W_enum "Color"),
        Value.Array [| color 0; color 3 |],
        "02 00 00 00 00 00 00 00 03 00 00 00" );
      ( Codec.W_array (Codec.W_array Codec.W_int),
        Value.Array [| Value.Int_array [| 7 |]; Value.Int_array [||] |],
        "02 00 00 00 01 00 00 00 07 00 00 00 00 00 00 00" );
      ( Codec.W_tuple [ Codec.W_int; Codec.W_float; Codec.W_bool ],
        Value.Tuple [ Value.Int 7; Value.Float 0.5; Value.Bool true ],
        "07 00 00 00 00 00 00 3f 01" );
    ]

let test_codec_dense_packing_wins () =
  (* Ablation A4 precondition: dense bit packing is ~8x smaller. *)
  let v = Value.Bits (Bits.Bitvec.create 1024 true) in
  let dense = Codec.byte_size Codec.W_bits v in
  let boxed = Codec.byte_size Codec.W_bits_boxed v in
  check_int "dense" (4 + 128) dense;
  check_int "boxed" (4 + 1024) boxed

let test_codec_mismatch () =
  let mismatch name f =
    match f () with
    | exception Codec.Type_mismatch _ -> ()
    | _ -> Alcotest.failf "%s: expected Type_mismatch" name
  in
  mismatch "encode: boolean as int" (fun () ->
      ignore (Codec.encode_bytes Codec.W_int (Value.Bool true)));
  mismatch "byte_size: tuple of the wrong arity" (fun () ->
      ignore
        (Codec.byte_size
           (Codec.W_tuple [ Codec.W_int; Codec.W_int ])
           (Value.Tuple [ Value.Int 1 ])));
  mismatch "byte_size: float as int" (fun () ->
      ignore (Codec.byte_size Codec.W_int (Value.Float 1.0)))

let le32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  b

let underflows name ty data =
  match Codec.decode_bytes ty data with
  | exception Buffer_io.Reader.Underflow -> ()
  | v -> Alcotest.failf "%s: decoded %s" name (Value.to_string v)

let test_codec_malformed_counts () =
  let eight = Bytes.make 8 '\000' in
  underflows "negative array count" (Codec.W_array Codec.W_int) (le32 (-1));
  underflows "negative nested count"
    (Codec.W_array (Codec.W_array Codec.W_int))
    (le32 (-3));
  underflows "negative dense bit count" Codec.W_bits
    (Bytes.of_string "\xfb\xff\xff\xff");
  underflows "negative boxed bit count" Codec.W_bits_boxed (le32 (-5));
  underflows "int count past the end"
    (Codec.W_array Codec.W_int)
    (Bytes.cat (le32 65536) eight);
  underflows "nested count past the end"
    (Codec.W_array (Codec.W_array Codec.W_float))
    (Bytes.cat (le32 3) eight);
  (* The count is checked before the array is allocated. *)
  let data = Bytes.cat (le32 (1 lsl 20)) eight in
  let before = Gc.allocated_bytes () in
  underflows "2^20 ints claimed" (Codec.W_array Codec.W_int) data;
  let allocated = Gc.allocated_bytes () -. before in
  check_bool
    (Printf.sprintf "allocated %.0f bytes, under 1 KB" allocated)
    true (allocated < 1024.0)

let test_boundary_fig3_path () =
  (* Figure 3: float array in, int array out. *)
  let b = Boundary.create () in
  let input = Value.Float_array [| 1.0; 2.5; -3.0 |] in
  let native = Boundary.to_device b (Codec.W_array Codec.W_float) input in
  check_int "native bytes" (4 + 12) (Boundary.Native.byte_length native);
  Alcotest.check value_testable "device sees the same value" input
    (Boundary.Native.to_value native);
  let output = Value.Int_array [| 1; 2; -3 |] in
  let native_out = Boundary.to_device b (Codec.W_array Codec.W_int) output in
  let back = Boundary.to_host b native_out in
  Alcotest.check value_testable "mirror path" output back;
  let stats = Boundary.stats b in
  check_int "crossings to device" 2 stats.crossings_to_device;
  check_int "crossings to host" 1 stats.crossings_to_host;
  check_int "bytes to device" (16 + 16) stats.bytes_to_device;
  check_int "bytes to host" 16 stats.bytes_to_host;
  check_bool "transfer cost accumulated" true (stats.modeled_transfer_ns > 0.0)

let test_boundary_transfer_model () =
  let b = Boundary.create ~latency_ns:100.0 ~bandwidth_bytes_per_ns:2.0 () in
  Alcotest.(check (float 1e-9)) "latency+bytes" 150.0 (Boundary.transfer_ns b 100)

let test_boundary_reset () =
  let b = Boundary.create () in
  ignore (Boundary.to_device b Codec.W_int (Value.Int 1));
  Boundary.reset_stats b;
  let stats = Boundary.stats b in
  check_int "reset crossings" 0 stats.crossings_to_device;
  check_int "reset bytes" 0 stats.bytes_to_device

(* Property tests *)

(* What a value reads back as: an int as its low 32 bits,
   sign-extended. Generated floats are already single precision. *)
let rec as_decoded (v : Value.t) : Value.t =
  match v with
  | Int i -> Int (Value.norm32 i)
  | Int_array a -> Int_array (Array.map Value.norm32 a)
  | Array a -> Array (Array.map as_decoded a)
  | Tuple vs -> Tuple (List.map as_decoded vs)
  | v -> v

let gen_value_and_ty =
  QCheck2.Gen.(
    let len = int_range 0 4096 in
    let enum = map (fun tag -> Value.Enum { enum = "Color"; tag }) (int_range 0 255) in
    let bits = map Bits.Bitvec.of_bool_array (array_size len bool) in
    let f32 = map Value.f32 float in
    (* [int] draws from the whole OCaml range, so most ints are wider
       than 32 bits *)
    let* ty_v =
      oneof
        [
          return (Codec.W_unit, Value.Unit);
          map (fun b -> Codec.W_bool, Value.Bool b) bool;
          map (fun i -> Codec.W_int, Value.Int i) int;
          map (fun f -> Codec.W_float, Value.Float f) f32;
          map (fun b -> Codec.W_bit, Value.Bit b) bool;
          map (fun e -> Codec.W_enum "Color", e) enum;
          map
            (fun a -> Codec.W_array Codec.W_int, Value.Int_array a)
            (array_size len int);
          map
            (fun a -> Codec.W_array Codec.W_float, Value.Float_array a)
            (array_size len f32);
          map
            (fun a -> Codec.W_array Codec.W_bool, Value.Bool_array a)
            (array_size len bool);
          map
            (fun a -> Codec.W_array (Codec.W_enum "Color"), Value.Array a)
            (array_size (int_range 0 64) enum);
          map
            (fun rows ->
              ( Codec.W_array (Codec.W_array Codec.W_int),
                Value.Array (Array.map (fun a -> Value.Int_array a) rows) ))
            (array_size (int_range 0 8) (array_size (int_range 0 64) int));
          map (fun bv -> Codec.W_bits, Value.Bits bv) bits;
          map (fun bv -> Codec.W_bits_boxed, Value.Bits bv) bits;
          map (fun bv -> Codec.W_array Codec.W_bit, Value.Bits bv) bits;
        ]
    in
    let a, b = ty_v in
    (* tuples of two generated values *)
    oneof
      [
        return ty_v;
        return (Codec.W_tuple [ a; a ], Value.Tuple [ b; b ]);
      ])

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"codec: encode/decode roundtrip" ~count:500
    gen_value_and_ty (fun (ty, v) ->
      Value.equal (as_decoded v)
        (Codec.decode_bytes ty (Codec.encode_bytes ty v)))

let prop_codec_size =
  QCheck2.Test.make ~name:"codec: byte_size = encoded length" ~count:500
    gen_value_and_ty (fun (ty, v) ->
      Codec.byte_size ty v = Bytes.length (Codec.encode_bytes ty v))

let prop_boundary_roundtrip =
  QCheck2.Test.make ~name:"boundary: to_device/to_host identity" ~count:200
    gen_value_and_ty (fun (ty, v) ->
      let b = Boundary.create () in
      Value.equal (as_decoded v) (Boundary.to_host b (Boundary.to_device b ty v)))

(* The Format printer [Value.to_string] replaced, kept as the
   reference it must match byte for byte. *)
let rec format_pp ppf (v : Value.t) =
  let sep s ppf () = Format.fprintf ppf "%s" s in
  let seq pp_elt = Format.pp_print_array ~pp_sep:(sep "; ") pp_elt in
  match v with
  | Unit -> Format.fprintf ppf "()"
  | Bool b -> Format.fprintf ppf "%b" b
  | Int i -> Format.fprintf ppf "%d" i
  | Float f -> Format.fprintf ppf "%g" f
  | Bit b -> Format.fprintf ppf "%s" (if b then "one" else "zero")
  | Enum { enum; tag } -> Format.fprintf ppf "%s.%d" enum tag
  | Bits bv -> Bits.Bitvec.pp ppf bv
  | Int_array a -> Format.fprintf ppf "[%a]" (seq Format.pp_print_int) a
  | Float_array a ->
    Format.fprintf ppf "[%a]" (seq (fun ppf f -> Format.fprintf ppf "%g" f)) a
  | Bool_array a -> Format.fprintf ppf "[%a]" (seq Format.pp_print_bool) a
  | Array a -> Format.fprintf ppf "[%a]" (seq format_pp) a
  | Tuple xs ->
    Format.fprintf ppf "(%a)" (Format.pp_print_list ~pp_sep:(sep ", ") format_pp) xs

let gen_printed_value =
  QCheck2.Gen.(
    let float =
      oneof
        [
          float;
          oneofl
            [
              nan; -.nan; infinity; neg_infinity; 0.0; -0.0; 5e-324;
              2.2250738585072009e-308; Float.min_float; Float.max_float;
              1e30; -1e30; 0.1; 123456.5; 1e-5;
            ];
        ]
    in
    let int =
      oneof [ int; oneofl [ 0; -1; 9; 10; -10; min_int; max_int; -2147483648 ] ]
    in
    let bits =
      let* n = oneof [ oneofl [ 0; 1; 9 ]; int_range 0 80 ] in
      map Bits.Bitvec.of_bool_array (array_size (return n) bool)
    in
    let small = int_range 0 6 in
    let leaves =
      [
        return Value.Unit;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) float;
        map (fun b -> Value.Bit b) bool;
        map
          (fun (enum, tag) -> Value.Enum { enum; tag })
          (pair (oneofl [ "Color"; "Op" ]) (int_range 0 255));
        map (fun bv -> Value.Bits bv) bits;
        map (fun a -> Value.Int_array a) (array_size small int);
        map (fun a -> Value.Float_array a) (array_size small float);
        map (fun a -> Value.Bool_array a) (array_size small bool);
      ]
    in
    sized_size (int_range 0 3)
    @@ fix (fun self depth ->
           if depth = 0 then oneof leaves
           else
             let inner = self (depth - 1) in
             oneof
               (leaves
               @ [
                   map (fun a -> Value.Array a) (array_size small inner);
                   map (fun xs -> Value.Tuple xs) (list_size small inner);
                 ])))

let prop_to_string_matches_format =
  QCheck2.Test.make ~name:"value: to_string = the Format printer" ~count:1000
    ~print:(Format.asprintf "%a" format_pp) gen_printed_value (fun v ->
      let reference = Format.asprintf "%a" format_pp v in
      Value.to_string v = reference
      && Format.asprintf "%a" Value.pp v = reference)

let test_show_non_values () =
  let module I = Lime_ir.Interp in
  Alcotest.(check string) "object" "<Acc instance>"
    (Liquid_metal.Lm.show (I.Obj { obj_class = "Acc"; obj_fields = [||] }));
  Alcotest.(check string) "graph handle" "<graph 3>"
    (Liquid_metal.Lm.show (I.Graph_handle 3));
  Alcotest.(check string) "value" "[1.5; -0; nan]"
    (Liquid_metal.Lm.show (I.Prim (Value.Float_array [| 1.5; -0.0; nan |])))

let suite =
  ( "wire",
    [
      Alcotest.test_case "writer/reader scalars" `Quick test_writer_reader_scalars;
      Alcotest.test_case "reader underflow" `Quick test_reader_underflow;
      Alcotest.test_case "32-bit int semantics" `Quick test_norm32;
      Alcotest.test_case "float32 rounding" `Quick test_f32_idempotent;
      Alcotest.test_case "codec roundtrips" `Quick test_codec_roundtrips;
      Alcotest.test_case "codec byte sizes" `Quick test_codec_byte_size_matches;
      Alcotest.test_case "codec golden bytes" `Quick test_codec_golden_bytes;
      Alcotest.test_case "dense vs boxed packing" `Quick test_codec_dense_packing_wins;
      Alcotest.test_case "codec type mismatch" `Quick test_codec_mismatch;
      Alcotest.test_case "codec malformed counts" `Quick test_codec_malformed_counts;
      Alcotest.test_case "figure-3 transfer path" `Quick test_boundary_fig3_path;
      Alcotest.test_case "transfer cost model" `Quick test_boundary_transfer_model;
      Alcotest.test_case "stats reset" `Quick test_boundary_reset;
      QCheck_alcotest.to_alcotest prop_codec_roundtrip;
      QCheck_alcotest.to_alcotest prop_codec_size;
      QCheck_alcotest.to_alcotest prop_boundary_roundtrip;
      QCheck_alcotest.to_alcotest prop_to_string_matches_format;
      Alcotest.test_case "Lm.show of objects and graphs" `Quick test_show_non_values;
    ] )
