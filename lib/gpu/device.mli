(** GPU device models.

    The paper's 12x-431x speedups were measured against an NVidia
    GTX580 (Fermi); {!gtx580} is that card's architectural envelope.
    Only aggregate parameters matter to the simulator — SIMT width, SM
    count, clock and memory bandwidth — because those determine the
    shape of data-parallel speedups. *)

type t = {
  name : string;
  sms : int;  (** streaming multiprocessors *)
  lanes_per_warp : int;  (** SIMT width *)
  clock_ghz : float;
  mem_bandwidth_gbps : float;  (** device-memory bandwidth, GB/s *)
  launch_overhead_ns : float;  (** fixed kernel-launch cost *)
}

val gtx580 : t
(** The paper's evaluation card (16 SMs x 32 lanes, 1.544 GHz,
    192 GB/s). *)

val mobile : t
(** A small laptop-class part for ablations. *)

val total_lanes : t -> int
val cycles_to_ns : t -> float -> float
