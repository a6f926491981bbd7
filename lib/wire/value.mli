(** Lime runtime values.

    Only [value] types flow between tasks (enforced by the Lime type
    system, paper section 2.2), so the representation here is
    immutable-by-convention: the typechecker guarantees programs never
    mutate a value that crossed a task connection, and the marshaling
    layer can serialize without concern for data races.

    Lime [int] has Java 32-bit two's-complement semantics; {!norm32}
    normalizes an OCaml int to that range and every arithmetic helper
    applies it. *)

type t =
  | Unit
  | Bool of bool
  | Int of int  (** 32-bit two's complement, kept normalized *)
  | Float of float
  | Bit of bool
  | Enum of { enum : string; tag : int }
      (** instance of a [value enum]; [tag] is the declaration index *)
  | Bits of Bits.Bitvec.t  (** bit array, packed *)
  | Int_array of int array
  | Float_array of float array
  | Bool_array of bool array
  | Array of t array
      (** arrays of non-primitive element type (e.g. enums, tuples) *)
  | Tuple of t list

val norm32 : int -> int
(** Truncate to 32 bits and sign-extend. *)

val f32 : float -> float
(** Round to IEEE single precision. Lime [float] is Java's 32-bit
    float; every device keeps float results in this set, so values
    marshal across the wire (4 bytes) without loss and co-executing
    backends produce bit-identical answers. *)

val add_f32 : float -> float -> float
val sub_f32 : float -> float -> float
val mul_f32 : float -> float -> float
val div_f32 : float -> float -> float

val add32 : int -> int -> int
val sub32 : int -> int -> int
val mul32 : int -> int -> int

val div32 : int -> int -> int
(** Java semantics: truncation toward zero; [Division_by_zero] on 0. *)

val rem32 : int -> int -> int
val shl32 : int -> int -> int
val shr32 : int -> int -> int
(** Arithmetic shift right; shift counts are masked to 5 bits as in Java. *)

val ushr32 : int -> int -> int

val equal : t -> t -> bool
val to_string : t -> string
(** The one rendering of a value: floats with six significant digits
    ([%g]), arrays as [[a; b]], tuples as [(a, b)], bit arrays as a
    literal ([101b]), enums as [Name.tag]. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

val type_name : t -> string
(** Short description used in runtime error messages ("int[]", "bit"). *)
