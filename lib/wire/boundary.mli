(** The host/device boundary (the paper's JNI boundary, Figure 3).

    A transfer from the JVM to a native device takes three steps:
    serialize the Lime value to a byte array, cross the JNI boundary,
    and convert the byte array into a dense C-style value. The return
    path is the mirror image. This module performs the first and third
    steps for real (so their cost is measurable) and *models* the cost
    of the crossing itself (per-crossing latency plus bytes/bandwidth),
    accumulating both into per-boundary statistics. *)

(** A dense, C-style native value: the device-side result of step 3. *)
module Native : sig
  type t

  val ty : t -> Codec.ty
  val data : t -> Bytes.t
  val byte_length : t -> int

  val to_value : t -> Value.t
  (** Unpack back into a heap-resident Lime value. *)
end

type stats = {
  crossings_to_device : int;
  crossings_to_host : int;
  bytes_to_device : int;
  bytes_to_host : int;
  modeled_transfer_ns : float;
      (** accumulated crossing cost under the latency/bandwidth model *)
}

type t

val create :
  ?label:string ->
  ?latency_ns:float ->
  ?bandwidth_bytes_per_ns:float ->
  unit ->
  t
(** Defaults model a PCIe 2.0 x16-class link: 10_000 ns per crossing
    and 8 bytes/ns (~8 GB/s). [label] (default ["boundary"]) names the
    boundary in trace counter events ([boundary:<label>]). *)

val label : t -> string

val to_device : t -> Codec.ty -> Value.t -> Native.t
(** Full host-to-device path: serialize, cross, convert to dense. *)

val to_host : ?streaming:bool -> t -> Native.t -> Value.t
(** Full device-to-host mirror path. [~streaming:true] models the
    return leg of a fused segment's single round trip: the result
    streams back overlapped with compute inside the transfer window
    the inbound crossing opened, so only the bandwidth term is
    charged, not the per-crossing latency. *)

val native_of_value : Codec.ty -> Value.t -> Native.t
(** Device-side packing of a result into the dense wire form, ready
    for {!to_host}. Not counted as a crossing: it happens on the
    device side of the boundary. *)

val transfer_ns : t -> int -> float
(** [transfer_ns t bytes] is the modeled cost of one crossing moving
    [bytes] bytes. *)

val stats : t -> stats
val reset_stats : t -> unit
