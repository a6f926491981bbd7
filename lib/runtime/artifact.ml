module Ir = Lime_ir.Ir

(* Artifacts and manifests.

   "The result of a compilation with Liquid Metal is a collection of
   artifacts for different architectures, each labeled with the
   particular computational node that it implements" (paper section 1),
   and "the frontend and backend compilers cooperate to produce a
   manifest describing each generated artifact and labeling it with a
   unique task identifier" (section 3).

   Bytecode needs no artifact entry: the CPU compiler always compiles
   the entire program, so every task implicitly has a bytecode
   implementation. *)

type device = Cpu | Native | Gpu | Fpga

let device_name = function
  | Cpu -> "cpu"
  | Native -> "native"
  | Gpu -> "gpu"
  | Fpga -> "fpga"

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

let uid = function
  | Gpu_kernel g -> g.ga_uid
  | Fpga_module f -> f.fa_uid
  | Native_binary n -> n.na_uid

let device = function
  | Gpu_kernel _ -> Gpu
  | Fpga_module _ -> Fpga
  | Native_binary _ -> Native

(* The UID of a substitution covering a consecutive chain of filters:
   the concatenation of the member task UIDs. A single filter's chain
   UID is its own UID. *)
let chain_uid (filters : Ir.filter_info list) =
  String.concat "+" (List.map (fun (f : Ir.filter_info) -> f.uid) filters)

(* Fused-segment naming (see [Lime_ir.Fuse]): the fused artifact uid
   is ["fuse:" ^ chain_uid members], so the pre-fusion segment names
   are recoverable from the artifact name alone — fault-injection
   specs keep matching, and unfuse-on-fault knows what to re-plan. *)
let fused_prefix = Lime_ir.Fuse.fused_prefix
let is_fused_uid = Lime_ir.Fuse.is_fused_uid
let fused_members = Lime_ir.Fuse.member_uids

let describe = function
  | Gpu_kernel { ga_uid; ga_kind; _ } ->
    let kind =
      match ga_kind with
      | G_map m -> "map kernel for " ^ m.Ir.map_fn
      | G_reduce r -> "reduce kernel for " ^ r.Ir.red_fn
      | G_filter_chain fs ->
        Printf.sprintf "fused filter kernel (%d stage(s))" (List.length fs)
    in
    Printf.sprintf "[gpu] %s: %s" ga_uid kind
  | Fpga_module { fa_uid; fa_filters; _ } ->
    Printf.sprintf "[fpga] %s: pipeline (%d stage(s))" fa_uid
      (List.length fa_filters)
  | Native_binary { na_uid; na_filters; _ } ->
    Printf.sprintf "[native] %s: shared library (%d stage(s))" na_uid
      (List.length na_filters)

type manifest_entry = { me_uid : string; me_device : device; me_desc : string }

type exclusion = {
  ex_uid : string;  (** task or kernel-site UID *)
  ex_device : device;
  ex_reason : string;
}

(* The manifest also records why a backend excluded a task — section 3:
   "a task containing language constructs that are not suitable for
   the device is excluded from further compilation by that backend". *)
type manifest = {
  entries : manifest_entry list;
  exclusions : exclusion list;
}

let manifest_entry_of artifact =
  {
    me_uid = uid artifact;
    me_device = device artifact;
    me_desc = describe artifact;
  }

let pp_manifest ppf (m : manifest) =
  Format.fprintf ppf "artifacts:@.";
  List.iter (fun e -> Format.fprintf ppf "  %s@." e.me_desc) m.entries;
  if m.exclusions <> [] then begin
    Format.fprintf ppf "exclusions:@.";
    List.iter
      (fun x ->
        Format.fprintf ppf "  [%s] %s: %s@." (device_name x.ex_device) x.ex_uid
          x.ex_reason)
      m.exclusions
  end
