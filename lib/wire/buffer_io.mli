(** Little-endian byte-stream writer and reader.

    The runtime "adopts a universal wire format that relies only on
    sending a byte stream" (paper section 4.3); this module is that
    byte stream. All multi-byte quantities are little-endian.

    A writer fills one buffer allocated at its final size, so a caller
    knows the length before it writes; flat arrays are written and read
    a word at a time. A reader checks an element count against the
    bytes left before it allocates anything for the elements. *)

module Writer : sig
  type t

  val create : int -> t
  (** A writer over a fresh buffer of exactly this many bytes. Writing
      past its end raises [Invalid_argument]. *)

  val u8 : t -> int -> unit
  val i32 : t -> int -> unit
  (** Writes the low 32 bits. *)

  val i64 : t -> int64 -> unit
  val f32 : t -> float -> unit
  (** IEEE single precision; precision beyond 32 bits is dropped,
      matching a Java [float] on the wire. *)

  val f64 : t -> float -> unit
  val bytes : t -> Bytes.t -> unit
  (** Raw bytes, no length prefix. *)

  val ints : t -> int array -> unit
  (** Each element as {!i32}, no length prefix. *)

  val floats : t -> float array -> unit
  (** Each element as {!f32}, no length prefix. *)

  val bools : t -> bool array -> unit
  (** One byte (0 or 1) per element, no length prefix. *)

  val contents : t -> Bytes.t
  (** The buffer itself, not a copy.
      @raise Invalid_argument unless every byte has been written. *)
end

module Reader : sig
  type t

  exception Underflow
  (** Raised when a read runs past the end of the stream, or is asked
      for a negative count. *)

  val of_bytes : Bytes.t -> t
  val remaining : t -> int
  val u8 : t -> int
  val i32 : t -> int
  (** Sign-extended to a 32-bit value. *)

  val i64 : t -> int64
  val f32 : t -> float
  val f64 : t -> float
  val bytes : t -> int -> Bytes.t

  val count : t -> width:int -> int
  (** Reads a 4-byte element count [n] and checks that [n] elements of
      at least [width] bytes each fit in the bytes left.
      @raise Underflow if [n] is negative or they do not fit. *)

  val ints : t -> int -> int array
  val floats : t -> int -> float array
  val bools : t -> int -> bool array
  (** [n] elements, as {!i32}, {!f32} or {!u8} [<> 0] read them, into
      one array allocated after [n] is checked.
      @raise Underflow if [n] is negative or they do not fit. *)
end
