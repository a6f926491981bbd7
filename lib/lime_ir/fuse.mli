(** Cross-filter fusion: collapse a proven-fusible run of adjacent
    pipeline filters into one synthetic filter whose function composes
    the member bodies, so a fused segment crosses the host/device wire
    once instead of per stage. Legality is established by
    [Analysis.Fusability]; this pass is mechanical. See
    [docs/FUSION.md]. *)

val fused_prefix : string
(** ["fuse:"] — every fused uid/function key starts with this. *)

val is_fused_uid : string -> bool

val member_uids : string -> string list
(** Pre-fusion segment names behind a (possibly fused) uid; a plain
    uid is its own single member. *)

type fused = {
  fu_filter : Ir.filter_info;  (** synthetic filter standing for the run *)
  fu_members : Ir.filter_info list;  (** pre-fusion filters, pipeline order *)
  fu_inlined : bool;
      (** [true] = member bodies spliced (intermediates stay in
          registers); [false] = call-chain fallback *)
}

val fuse_program :
  Ir.program -> Ir.filter_info list list -> Ir.program * fused list
(** Fuse every run (>= 2 members, all [F_static], pipeline order) into
    a fused function registered in the returned program; runs the
    composer cannot handle are skipped. A fused function's key and
    artifact uid is ["fuse:" ^ member uids joined with '+'], so
    pre-fusion segment names are recoverable from the fused name
    alone. *)
