(** Artifacts and manifests (paper sections 1 and 3).

    A compilation produces "a collection of artifacts for different
    architectures, each labeled with the particular computational node
    that it implements"; the manifest records every artifact's unique
    task identifier plus the exclusions each backend declared.

    Bytecode needs no artifact entry: the CPU compiler always compiles
    the entire program, so every task implicitly has a bytecode
    implementation. *)

module Ir = Lime_ir.Ir

(** Computational elements. [Cpu] is interpretation (no artifact);
    [Native] is the paper's section-5 C shared-library configuration. *)
type device = Cpu | Native | Gpu | Fpga

val device_name : device -> string

type gpu_kind =
  | G_map of Ir.map_site
  | G_reduce of Ir.reduce_site
  | G_filter_chain of Ir.filter_info list
      (** a fused elementwise kernel over consecutive pure filters *)

type gpu_artifact = {
  ga_uid : string;
  ga_kind : gpu_kind;
  ga_opencl : string;  (** generated OpenCL C source *)
}

type fpga_artifact = {
  fa_uid : string;
  fa_filters : Ir.filter_info list;
  fa_verilog : string;  (** generated Verilog source *)
  fa_pipeline : Rtl.Netlist.pipeline;
      (** the synthesized pipeline [fa_verilog] was generated from,
          without receivers; a launch binds the segment's receivers
          and the engine's FIFO depth *)
}

type native_artifact = {
  na_uid : string;
  na_filters : Ir.filter_info list;
  na_c : string;  (** generated C source of the shared library *)
}

type t =
  | Gpu_kernel of gpu_artifact
  | Fpga_module of fpga_artifact
  | Native_binary of native_artifact

val uid : t -> string
val device : t -> device

val chain_uid : Ir.filter_info list -> string
(** The UID of a substitution covering a consecutive filter chain: the
    member task UIDs joined with [+]. *)

(** {2 Fused-segment naming} (see {!Lime_ir.Fuse} and [docs/FUSION.md])

    A fused artifact's uid is ["fuse:" ^ chain_uid members], so the
    pre-fusion segment names are recoverable from the artifact name
    alone — fault-injection specs keep matching, and unfuse-on-fault
    knows which per-stage chain to re-plan. *)

val fused_prefix : string
val is_fused_uid : string -> bool

val fused_members : string -> string list
(** Member uids behind a (possibly fused) uid; a plain uid is its own
    single member. *)

type manifest_entry = { me_uid : string; me_device : device; me_desc : string }

type exclusion = {
  ex_uid : string;  (** task or kernel-site UID *)
  ex_device : device;
  ex_reason : string;  (** why the backend excluded it (section 3) *)
}

type manifest = {
  entries : manifest_entry list;
  exclusions : exclusion list;
}

val manifest_entry_of : t -> manifest_entry
val pp_manifest : Format.formatter -> manifest -> unit
