(** Serializers from Lime values to the universal wire format.

    During task substitution "the runtime will find a custom serializer
    based on the task I/O data type" (paper section 4.3); a {!ty} is
    that data type and {!encode}/{!decode} are the serializer pair.

    Wire layout (all little-endian):
    - [boolean], [bit]: 1 byte (0 or 1)
    - [int]: 4 bytes two's complement
    - [float]: 4 bytes IEEE single
    - enum: 4 bytes declaration-index tag
    - [bit\[\]]: 4-byte bit count, then densely packed bytes (8 bits per
      byte) — the packing ablated in experiment A4
    - other arrays: 4-byte element count, then elements
    - tuples: fields in declaration order, no header

    {!encode_bytes} takes the length from {!byte_size}, allocates the
    result once and writes [int], [float] and [boolean] arrays a word
    (or byte) at a time. {!decode_bytes} checks every element count
    against the bytes left before it allocates the array, so a corrupt
    or truncated count raises [Underflow] rather than allocating what
    it claims. Arrays of zero-size elements (void, empty tuples) are
    the exception: their count is checked for sign only. *)

type ty =
  | W_unit
  | W_bool
  | W_int
  | W_float
  | W_bit
  | W_enum of string
  | W_bits  (** bit array, dense packing *)
  | W_bits_boxed  (** bit array, one byte per bit (ablation A4) *)
  | W_array of ty
  | W_tuple of ty list

exception Type_mismatch of { expected : ty; got : Value.t }

val encode_bytes : ty -> Value.t -> Bytes.t
(** Serialize to a fresh byte array of exactly {!byte_size} bytes. An
    [int] is written as its low 32 bits and a [float] in single
    precision, so decoding returns {!Value.norm32} of the one and
    {!Value.f32} of the other.
    @raise Type_mismatch if the value does not have the type. *)

val decode_bytes : ty -> Bytes.t -> Value.t
(** Deserialize.
    @raise Buffer_io.Reader.Underflow if the bytes end early or an
    element count is negative or larger than the bytes that follow.
    @raise Failure if trailing bytes remain. *)

val byte_size : ty -> Value.t -> int
(** Number of bytes {!encode_bytes} will produce, without encoding.
    Accepts exactly the values {!encode_bytes} accepts.
    @raise Type_mismatch otherwise. *)

val ty_to_string : ty -> string
