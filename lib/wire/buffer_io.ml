module Writer = struct
  type t = { data : Bytes.t; mutable pos : int }

  let create size = { data = Bytes.create size; pos = 0 }

  let u8 t v =
    Bytes.set_uint8 t.data t.pos (v land 0xff);
    t.pos <- t.pos + 1

  let i32 t v =
    Bytes.set_int32_le t.data t.pos (Int32.of_int v);
    t.pos <- t.pos + 4

  let i64 t v =
    Bytes.set_int64_le t.data t.pos v;
    t.pos <- t.pos + 8

  let f32 t v =
    Bytes.set_int32_le t.data t.pos (Int32.bits_of_float v);
    t.pos <- t.pos + 4

  let f64 t v = i64 t (Int64.bits_of_float v)

  let bytes t b =
    Bytes.blit b 0 t.data t.pos (Bytes.length b);
    t.pos <- t.pos + Bytes.length b

  let ints t a =
    let data = t.data and pos = t.pos in
    for i = 0 to Array.length a - 1 do
      Bytes.set_int32_le data (pos + (4 * i)) (Int32.of_int (Array.unsafe_get a i))
    done;
    t.pos <- pos + (4 * Array.length a)

  let floats t a =
    let data = t.data and pos = t.pos in
    for i = 0 to Array.length a - 1 do
      Bytes.set_int32_le data
        (pos + (4 * i))
        (Int32.bits_of_float (Array.unsafe_get a i))
    done;
    t.pos <- pos + (4 * Array.length a)

  let bools t a =
    let data = t.data and pos = t.pos in
    for i = 0 to Array.length a - 1 do
      Bytes.set_uint8 data (pos + i) (if Array.unsafe_get a i then 1 else 0)
    done;
    t.pos <- pos + Array.length a

  let contents t =
    if t.pos <> Bytes.length t.data then
      invalid_arg "Buffer_io.Writer.contents: buffer not filled";
    t.data
end

module Reader = struct
  type t = { data : Bytes.t; mutable pos : int }

  exception Underflow

  let of_bytes data = { data; pos = 0 }
  let remaining t = Bytes.length t.data - t.pos

  let u8 t =
    if remaining t < 1 then raise Underflow;
    let v = Bytes.get_uint8 t.data t.pos in
    t.pos <- t.pos + 1;
    v

  let i32 t =
    if remaining t < 4 then raise Underflow;
    let v = Int32.to_int (Bytes.get_int32_le t.data t.pos) in
    t.pos <- t.pos + 4;
    v

  let i64 t =
    if remaining t < 8 then raise Underflow;
    let v = Bytes.get_int64_le t.data t.pos in
    t.pos <- t.pos + 8;
    v

  let f32 t = Int32.float_of_bits (Int32.of_int (i32 t))
  let f64 t = Int64.float_of_bits (i64 t)

  (* [n] items of [width] bytes each must fit in what is left. Division
     keeps a hostile count from overflowing the product. *)
  let need t n ~width =
    if n < 0 || (width > 0 && n > remaining t / width) then raise Underflow

  let bytes t n =
    need t n ~width:1;
    let b = Bytes.sub t.data t.pos n in
    t.pos <- t.pos + n;
    b

  let count t ~width =
    let n = i32 t in
    need t n ~width;
    n

  let ints t n =
    need t n ~width:4;
    let data = t.data and pos = t.pos in
    let a = Array.make n 0 in
    for i = 0 to n - 1 do
      Array.unsafe_set a i (Int32.to_int (Bytes.get_int32_le data (pos + (4 * i))))
    done;
    t.pos <- pos + (4 * n);
    a

  let floats t n =
    need t n ~width:4;
    let data = t.data and pos = t.pos in
    let a = Array.create_float n in
    for i = 0 to n - 1 do
      Array.unsafe_set a i
        (Int32.float_of_bits (Bytes.get_int32_le data (pos + (4 * i))))
    done;
    t.pos <- pos + (4 * n);
    a

  let bools t n =
    need t n ~width:1;
    let data = t.data and pos = t.pos in
    let a = Array.make n false in
    for i = 0 to n - 1 do
      Array.unsafe_set a i (Bytes.get_uint8 data (pos + i) <> 0)
    done;
    t.pos <- pos + n;
    a
end
