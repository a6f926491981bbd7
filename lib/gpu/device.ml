(* GPU device models.

   The paper reports end-to-end speedups of 12x-431x against an NVidia
   GTX580 (Fermi) [section 2.2, ref 3]; [gtx580] is that card's
   architectural envelope. The simulator uses only these aggregate
   parameters — SIMT width, streaming-multiprocessor count, clock and
   memory bandwidth — which are the quantities that determine the
   *shape* of data-parallel speedups. *)

type t = {
  name : string;
  sms : int;  (** streaming multiprocessors *)
  lanes_per_warp : int;  (** SIMT width *)
  clock_ghz : float;
  mem_bandwidth_gbps : float;  (** device-memory bandwidth, GB/s *)
  launch_overhead_ns : float;  (** fixed kernel-launch cost *)
}

let gtx580 =
  {
    name = "GTX580-class (Fermi)";
    sms = 16;
    lanes_per_warp = 32;
    clock_ghz = 1.544;
    mem_bandwidth_gbps = 192.0;
    launch_overhead_ns = 5_000.0;
  }

(* A smaller laptop-class part, used by ablations. *)
let mobile =
  {
    name = "mobile-class";
    sms = 2;
    lanes_per_warp = 32;
    clock_ghz = 0.9;
    mem_bandwidth_gbps = 25.0;
    launch_overhead_ns = 8_000.0;
  }

let total_lanes d = d.sms * d.lanes_per_warp

let cycles_to_ns d cycles = cycles /. d.clock_ghz
